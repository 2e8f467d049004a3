package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"polymer/internal/algorithms"
	"polymer/internal/atomicx"
	"polymer/internal/bench"
	"polymer/internal/core"
	"polymer/internal/engines/ligra"
	"polymer/internal/fault"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/mutate"
	"polymer/internal/numa"
	"polymer/internal/obs"
	"polymer/internal/par"
	"polymer/internal/partition"
	"polymer/internal/plan"
	"polymer/internal/serve"
	"polymer/internal/sg"
	"polymer/internal/state"
)

// Layer probes: direct, timed calls into one layer's public functions on
// the workload's graph. They run on the traced run of every workload, so
// a layer the workload's own path never enters still has a number, and
// the same layer can be compared across workloads.

const probeRounds = 5

// probe times `per` calls of fn per round, each round under one span and
// between two calibration readings, and returns the median calibrated
// nanoseconds per call.
func (e *env) probe(name string, parent, per int, fn func()) float64 {
	var perCall []float64
	for r := 0; r < probeRounds; r++ {
		cal := e.timed(name, parent, func() {
			for i := 0; i < per; i++ {
				fn()
			}
		})
		perCall = append(perCall, float64(cal)/float64(per))
	}
	return median(perCall)
}

// touch is the cheapest kernel an engine accepts: every edge activates
// its destination, nothing is computed.
type touch struct{}

func (touch) Update(_, _ graph.Vertex, _ float32) bool       { return true }
func (touch) UpdateAtomic(_, _ graph.Vertex, _ float32) bool { return true }
func (touch) Cond(graph.Vertex) bool                         { return true }

var probeSink uint64

// probeLayers fills the layer-probe metrics for graph g. pop is the
// workload's (or a stand-in) request population, for the decode probe.
func probeLayers(e *env, g *graph.Graph, pop []query, parent int, m *metricSet) error {
	const nsToMs, nsToUs = 1e-6, 1e-3
	src := graph.Vertex(gen.NewRNG(e.seed ^ 0x70726f62).Intn(g.NumVertices()))

	m.set("partition.edge_balanced_ms", nsToMs*e.probe("partition.edge_balanced", parent, 1, func() {
		partition.EdgeBalanced(g, sockets, partition.Out)
	}), "ms_cal")
	m.set("gen.load_ms", nsToMs*e.probe("gen.load", parent, 1, func() {
		if _, err := gen.Load(gen.PowerLaw, gen.Small, false); err != nil {
			e.fail(err)
		}
	}), "ms_cal")

	// Direct EdgeMap / VertexMap: full frontier and one-vertex frontier.
	for _, eng := range []struct {
		layer string
		e     sg.Engine
	}{
		{"core", core.MustNew(g, newMachine(), core.DefaultOptions())},
		{"ligra", ligra.MustNew(g, newMachine(), ligra.DefaultOptions())},
	} {
		all := state.NewAll(eng.e.Bounds())
		one := state.NewSingle(eng.e.Bounds(), src)
		eng.e.EdgeMap(all, touch{}, sg.Hints{NoOutput: true}) // lay the data out
		m.set(eng.layer+".edgemap_dense_ms", nsToMs*e.probe(eng.layer+".edgemap_dense", parent, 1, func() {
			eng.e.EdgeMap(all, touch{}, sg.Hints{NoOutput: true})
		}), "ms_cal")
		m.set(eng.layer+".edgemap_sparse_us", nsToUs*e.probe(eng.layer+".edgemap_sparse", parent, 50, func() {
			eng.e.EdgeMap(one, touch{}, sg.Hints{})
		}), "us_cal")
		if eng.layer == "core" {
			m.set("core.vertexmap_ms", nsToMs*e.probe("core.vertexmap", parent, 2, func() {
				eng.e.VertexMap(all, func(graph.Vertex) bool { return true })
			}), "ms_cal")
		}
		if err := eng.e.Err(); err != nil {
			return fmt.Errorf("%s probe: %w", eng.layer, err)
		}
		eng.e.Close()
	}

	threads := sockets * coresPerSock
	pool := par.MustNewPool(threads)
	m.set("par.run_us", nsToUs*e.probe("par.run", parent, 200, func() {
		if err := pool.Run(func(int) {}); err != nil {
			e.fail(err)
		}
	}), "us_cal")
	pool.Close()

	// A 256-vertex frontier is what a road-grid BFS superstep carries.
	bounds := partition.Bounds(partition.EdgeBalanced(g, sockets, partition.Out))
	rng := gen.NewRNG(e.seed ^ 0x7374)
	vs := make([]uint32, 256)
	for i := range vs {
		vs[i] = uint32(rng.Intn(g.NumVertices()))
	}
	for _, dense := range []bool{false, true} {
		name := "state.build_sparse"
		if dense {
			name = "state.build_dense"
		}
		m.set(name+"_us", nsToUs*e.probe(name, parent, 100, func() {
			b := state.NewBuilder(bounds, threads, dense)
			for _, v := range vs {
				if dense {
					b.Set(0, v)
				} else {
					b.Add(0, v)
				}
			}
			probeSink += uint64(b.Build().Count())
		}), "us_cal")
	}
	sparse := state.FromVertices(bounds, vs)
	m.set("state.to_dense_us", nsToUs*e.probe("state.to_dense", parent, 100, func() {
		probeSink += uint64(sparse.ToDense().Count())
	}), "us_cal")

	mach := newMachine()
	ep := mach.NewEpoch()
	ws := int64(g.NumVertices()) * 8
	i := 0
	m.set("numa.access_ns", e.probe("numa.access", parent, 20000, func() {
		i++
		ep.Access(i%threads, numa.Rand, numa.Load, i%sockets, 64, 8, ws)
	}), "ns_cal")
	m.set("numa.time_us", nsToUs*e.probe("numa.time", parent, 2000, func() {
		probeSink += uint64(ep.Time() * 1e9)
	}), "us_cal")

	var acc float64
	m.set("atomicx.add_float64_ns", e.probe("atomicx.add_float64", parent, 200000, func() {
		atomicx.AddFloat64(&acc, 1)
	}), "ns_cal")

	// Overhead of a fault session and of an obs tracer around the same
	// five PageRank iterations on Polymer.
	opt := core.DefaultOptions()
	opt.Mode = core.Push
	ce := core.MustNew(g, newMachine(), opt)
	algorithms.PageRank(ce, refIters, prDamping)
	plain := e.probe("core.pagerank_plain", parent, 1, func() { algorithms.PageRank(ce, refIters, prDamping) })
	sess := fault.NewSession(ce, fault.NewInjector(nil))
	guarded := e.probe("fault.session", parent, 1, func() {
		if _, err := algorithms.PageRankE(ce, refIters, prDamping, sess); err != nil {
			e.fail(err)
		}
	})
	ce.SetTracer(obs.New(obs.NewRing(1 << 12)))
	observed := e.probe("obs.trace", parent, 1, func() { algorithms.PageRank(ce, refIters, prDamping) })
	ce.Close()
	m.set("fault.session_overhead_frac", guarded/plain-1, "frac")
	m.set("obs.trace_overhead_frac", observed/plain-1, "frac")

	m.set("bench.resilient_run_ms", nsToMs*e.probe("bench.resilient_run", parent, 1, func() {
		opt := bench.ResilientOptions{MaxRestarts: 3, SessionRetries: -1}
		if _, _, err := bench.RunResilientCtx(context.Background(), bench.Polymer, bench.PR, g, newMachine, nil, opt); err != nil {
			e.fail(err)
		}
	}), "ms_cal")

	var feats plan.Features
	m.set("plan.profile_ms", nsToMs*e.probe("plan.profile", parent, 1, func() { feats = plan.Profile(g) }), "ms_cal")
	q := plan.Query{Features: feats, Alg: bench.PR, Nodes: sockets}
	var planner *plan.Planner
	var cold []float64
	for r := 0; r < probeRounds; r++ {
		planner = plan.New(numa.IntelXeon80(), coresPerSock)
		cold = append(cold, us(e.timed("plan.resolve_cold", parent, func() { planner.Resolve(q) })))
	}
	m.set("plan.resolve_cold_us", median(cold), "us_cal")
	m.set("plan.resolve_warm_ns", e.probe("plan.resolve_warm", parent, 20000, func() { planner.Resolve(q) }), "ns_cal")

	var rd bytes.Reader
	m.set("serve.decode_us", nsToUs*e.probe("serve.decode", parent, 20*len(pop), func() {
		i++
		rd.Reset(pop[i%len(pop)].body)
		if _, err := serve.DecodeRequest(&rd); err != nil {
			e.fail(err)
		}
	}), "us_cal")

	if err := probeMutate(e, parent, m); err != nil {
		return err
	}
	return e.err
}

// probeMutate times the mutation store directly, outside any server:
// commits (append + fsync), snapshot materialisation, and recovery of the
// log those commits wrote.
func probeMutate(e *env, parent int, m *metricSet) error {
	const batches = 16
	dir := filepath.Join(walRoot, fmt.Sprintf("wal-%d-probe", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := mutate.Open(dir, mutate.Options{})
	if err != nil {
		return err
	}
	base, err := gen.Load(gen.PowerLaw, gen.Small, false)
	if err != nil {
		return err
	}
	name, scale, n := string(gen.PowerLaw), int(gen.Small), base.NumVertices()
	stream := newMutationStream(e.seed, gen.PowerLaw, "small")
	var commits []float64
	var seq uint64
	for i := 0; i < batches; i++ {
		_, ops := stream.next()
		c := e.timed("mutate.commit", parent, func() { seq, err = store.Commit(name, scale, n, ops) })
		if err != nil {
			return fmt.Errorf("commit probe: %w", err)
		}
		commits = append(commits, us(c))
	}
	m.set("mutate.commit_us", median(commits), "us_cal")
	m.set("mutate.graph_at_ms", 1e-6*e.probe("mutate.graph_at", parent, 1, func() {
		if _, err := store.GraphAt(name, scale, seq, base); err != nil {
			e.fail(err)
		}
	}), "ms_cal")
	if err := store.Close(); err != nil {
		return err
	}
	m.set("mutate.recover_ms", 1e-6*e.probe("mutate.recover", parent, 1, func() {
		s, err := mutate.Open(dir, mutate.Options{})
		if err == nil {
			err = s.RecoverAll()
		}
		if err != nil {
			e.fail(err)
		}
		s.Close()
	}), "ms_cal")
	return nil
}

// parSpeedup is the one place the benchmark lets the engines use every
// processor: the same op at GOMAXPROCS=1 over the op at GOMAXPROCS=nproc.
// It is a diagnostic; on shared vCPUs it moves by tens of percent between
// runs, which is why no end-to-end metric is taken this way.
func parSpeedup(e *env, in *engineInputs) float64 {
	timeOps := func() float64 {
		var ds []float64
		for i := 0; i < 6; i++ {
			src := in.sources[i%len(in.sources)]
			ds = append(ds, ms(e.timed("par.op", noSpan, func() { in.op(e, src) })))
		}
		return median(ds)
	}
	rec := e.rec
	e.rec = nil
	defer func() { e.rec = rec }()
	serial := timeOps()
	runtime.GOMAXPROCS(runtime.NumCPU())
	parallel := timeOps()
	runtime.GOMAXPROCS(1)
	return serial / parallel
}

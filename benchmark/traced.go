package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"polymer/internal/bench"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/serve"
)

var allEngines = []string{"core", "ligra", "xstream", "galois"}

// servedSpec is the dataset both serve workloads serve, powerlaw@small,
// built by gen.Load's own recipe in two timed steps, so the engine layers
// behind the server are measured on the graph the server runs them on.
var servedSpec = engineSpec{
	pr: true,
	generate: func(uint64) (int, []graph.Edge) {
		n, err := gen.NumVertices(gen.PowerLaw, gen.Small)
		if err != nil {
			panic(err)
		}
		return gen.Powerlaw(n, 10.5, 2.0, 0x20)
	},
	sources: func(uint64) []graph.Vertex { return []graph.Vertex{0} },
	layers:  allEngines,
}

// The traced run times fewer ops than the untraced one: two engine builds
// of the six, one server of the three; and runs this many schedule blocks
// of serve-churn where the workload itself has no write path.
const (
	tracedEngineEpochs = 2
	churnSampleBlocks  = 8
	engineRuns         = 5
)

// runTraced is the traced run: a third of the workload's ops with spans on
// for every other op or block, then every layer measured from outside. It
// emits the per-layer metrics and writes the spans to tracePath ("1" picks
// a name under the build directory).
//
// The driver's contract wants every per-layer metric from every workload's
// traced run. A layer the workload enters is measured on the workload: its
// own spans, and probes on its own graph. A layer it never enters is
// measured beside it at the serve workloads' scale: the engines on the
// dataset a serve workload serves, the server and the mutation store on
// eight blocks of serve-churn. README.md lists which is which.
func runTraced(workload string, e *env, m *metricSet, tracePath string) (*phase, error) {
	e.recAll = newRecorder(e.cal)
	e.rec = e.recAll
	e.cal.slice()
	var (
		p   *phase
		in  *engineInputs
		pop []query
		err error
	)
	root := e.rec.begin("setup", noSpan, 0)
	switch workload {
	case "engine-dense", "engine-sparse":
		spec := engineSpecs[workload]
		if in, err = spec.setup(e, root, nil); err != nil {
			return nil, err
		}
		e.rec.end(root)
		if p, err = in.measure(e, spec.size.opsPerEpoch(e.seconds), tracedEngineEpochs); err != nil {
			return nil, err
		}
		pop = population(e.seed, "small", true)
	case "serve-hot", "serve-churn":
		churn := workload == "serve-churn"
		pop = population(e.seed, "small", churn)
		s, err := setupServe(e, pop, "small", churn, root, nil)
		if err != nil {
			return nil, err
		}
		e.rec.end(root)
		before := s.srv.Counters().Snapshot()
		var byKind map[string][]float32
		p = &phase{cal: e.cal}
		if churn {
			byKind = s.measureChurn(e, p, churnSize.opsPerEpoch(e.seconds))
			err = s.checkOracle(p)
		} else {
			s.measureHot(e, p, hotSize.opsPerEpoch(e.seconds))
			byKind = map[string][]float32{"serve.hit": p.pooled(), "serve.miss": s.coldMs}
		}
		serveMetrics(m, byKind, before, s.srv.Counters().Snapshot())
		s.close()
		if err != nil {
			return nil, err
		}
		e.rec = e.recAll
		section := e.rec.begin("served-dataset", noSpan, 0)
		if in, err = servedSpec.setup(e, section, nil); err != nil {
			return nil, err
		}
		e.rec.end(section)
		if served, err := gen.Load(gen.PowerLaw, gen.Small, false); err != nil || served.NumEdges() != in.g.NumEdges() {
			return nil, fmt.Errorf("servedSpec no longer builds what gen.Load serves (%v)", err)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	defer in.closeLegs()
	e.rec = e.recAll

	m.set("par.speedup_nproc", parSpeedup(e, in), "ratio")
	if err := in.engineMetrics(e, m); err != nil {
		return nil, err
	}
	probes := e.rec.begin("layer-probes", noSpan, 0)
	if err := probeLayers(e, in.g, pop, probes, m); err != nil {
		return nil, err
	}
	e.rec.end(probes)
	if workload != "serve-churn" {
		if err := churnSample(e, m); err != nil {
			return nil, err
		}
	}
	m.set("harness.cal_ms", median(p.sliceMs), "ms")
	m.set("harness.trace_overhead_frac", float64(median(p.tracedMs)/median(p.untracedMs))-1, "frac")

	if tracePath == "1" {
		if err := os.MkdirAll(walRoot, 0o755); err != nil {
			return nil, err
		}
		tracePath = filepath.Join(walRoot, fmt.Sprintf("trace-%s-seed%d.json", workload, e.seed))
	}
	if err := e.recAll.write(tracePath, workload, e.seed); err != nil {
		return nil, err
	}
	logf("traced run: %d spans written to %s", len(e.recAll.spans), tracePath)
	return p, nil
}

// engineMetrics builds all four engines on the workload's graph and runs
// each engineRuns times, spans on, then reads the engine layers' numbers
// off every span of the run (the measured phase's included) and runs the
// paper's measurement on all four systems for the simulated clock's
// per-layer view.
func (in *engineInputs) engineMetrics(e *env, m *metricSet) error {
	section := e.rec.begin("engine-layers", noSpan, 0)
	err := in.build(e, section, allEngines, nil)
	for i := 0; err == nil && i < engineRuns; i++ {
		if _, _, ok := in.op(e, in.sources[0]); !ok {
			err = errors.New("engine-layers: an engine disagrees with the oracle")
		}
	}
	e.rec.end(section)
	if err != nil {
		return err
	}
	for _, layer := range allEngines {
		m.set(layer+".build_ms", median(e.recAll.calMs(layer+".build")), "ms_cal")
		m.set(layer+".run_ms", median(e.recAll.calMs(layer+".run")), "ms_cal")
		m.set(layer+".alloc_kb_per_run", median(in.legAllocKB[layer]), "KB")
	}
	m.set("gen.generate_ms", median(e.recAll.calMs("gen.generate")), "ms_cal")
	m.set("graph.from_edges_ms", median(e.recAll.calMs("graph.from_edges")), "ms_cal")
	var steps, edges []float64
	for _, c := range in.coreCounts {
		steps, edges = append(steps, float64(c.steps)), append(edges, float64(c.edges))
	}
	m.set("algorithms.supersteps_per_op", median(steps), "count")
	m.set("algorithms.edges_per_op", median(edges), "count")

	alg := bench.BFS
	if in.spec.pr {
		alg = bench.PR
	}
	sim := make(map[bench.System]bench.RunResult)
	for _, sys := range bench.Systems() {
		sim[sys] = bench.RunFrom(sys, alg, in.g, newMachine(), in.sources[0])
	}
	m.set("numa.sim_remote_frac_polymer", sim[bench.Polymer].Stats.RemoteRate, "frac")
	m.set("numa.sim_remote_frac_ligra", sim[bench.Ligra].Stats.RemoteRate, "frac")
	m.set("numa.sim_s_ligra", sim[bench.Ligra].SimSeconds, "sim_s")
	m.set("numa.sim_s_xstream", sim[bench.XStream].SimSeconds, "sim_s")
	m.set("numa.sim_s_galois", sim[bench.Galois].SimSeconds, "sim_s")
	m.set("mem.sim_agent_mb_polymer", float64(sim[bench.Polymer].AgentBytes)/(1<<20), "sim_MB")
	return nil
}

// serveMetrics turns a serve phase's per-kind latencies and the server's
// counter movement into the serve layer's metrics. It keeps a value the
// workload itself already produced.
func serveMetrics(m *metricSet, byKind map[string][]float32, before, after serve.CounterSnapshot) {
	set := m.setDefault
	if v := byKind["serve.hit"]; len(v) > 0 {
		set("serve.hit_us", 1e3*float64(median(v)), "us_cal")
	}
	if v := byKind["serve.miss"]; len(v) > 0 {
		set("serve.miss_ms", float64(median(v)), "ms_cal")
	}
	if v := byKind["serve.mutate"]; len(v) > 0 {
		set("serve.mutate_ms", float64(median(v)), "ms_cal")
		set("mutate.batches", float64(len(v)), "count")
	}
	// Every /run request is counted once at intake as exactly one of these.
	runs := float64(after.Admitted - before.Admitted - (after.Mutations - before.Mutations) +
		after.Coalesced - before.Coalesced + after.Batched - before.Batched +
		after.ResultHits - before.ResultHits + after.Shed - before.Shed)
	if runs > 0 {
		set("serve.result_hit_frac", float64(after.ResultHits-before.ResultHits)/runs, "frac")
		set("serve.coalesced_frac", float64(after.Coalesced-before.Coalesced)/runs, "frac")
		set("serve.batched_frac", float64(after.Batched-before.Batched)/runs, "frac")
		set("serve.shed_frac", float64(after.Shed-before.Shed)/runs, "frac")
	}
}

// churnSample runs churnSampleBlocks blocks of serve-churn, set-up and
// all, and fills whichever serve and mutation metrics are still unset.
func churnSample(e *env, m *metricSet) error {
	e.rec = e.recAll
	root := e.rec.begin("churn-sample", noSpan, 0)
	s, err := setupServe(e, population(e.seed, "small", true), "small", true, root, nil)
	if err != nil {
		return err
	}
	defer s.close()
	before := s.srv.Counters().Snapshot()
	p := &phase{cal: e.cal}
	byKind := s.measureChurn(e, p, churnSampleBlocks)
	e.rec = e.recAll
	e.rec.end(root)
	if p.failed > 0 {
		return fmt.Errorf("churn sample: %d of %d blocks failed", p.failed, p.attempted)
	}
	serveMetrics(m, byKind, before, s.srv.Counters().Snapshot())
	return nil
}

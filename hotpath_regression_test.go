package polymer_test

// Regression guards for the hot-path overhaul:
//
//   - steady-state EdgeMap/VertexMap iterations must stay within a small
//     fixed allocation budget (the phase-scoped scratch arenas make the
//     loop body allocation-free apart from the frontier bitmap words the
//     builder donates to the returned Subset);
//   - two identical runs must produce bit-identical simulated times — the
//     host-side optimisations (scratch reuse, row kernels, cached
//     degrees) must never leak into the simulated clock.

import (
	"math"
	"testing"

	"polymer/internal/algorithms"
	"polymer/internal/bench"
	"polymer/internal/core"
	"polymer/internal/engines/ligra"
	"polymer/internal/engines/xstream"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
	"polymer/internal/sg"
	"polymer/internal/state"
)

// allocBudgetPerIteration bounds the steady-state allocations of one full
// PageRank iteration (EdgeMap + VertexMap). The remaining allocations are
// the dense frontier bitmap words — one slice per NUMA node, donated to
// the returned Subset so they cannot be pooled — plus the Subset headers;
// before the scratch arenas the same loop allocated several hundred
// objects per iteration.
const allocBudgetPerIteration = 32

func regressionMachine() *numa.Machine {
	topo := numa.IntelXeon80()
	return numa.NewMachine(topo, topo.Sockets, topo.CoresPerSocket)
}

func regressionGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := bench.LoadDataset(gen.Twitter, gen.Tiny, bench.PR)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPolymerPRIterationAllocs(t *testing.T) {
	g := regressionGraph(t)
	opt := core.DefaultOptions()
	opt.Mode = core.Push
	e := core.MustNew(g, regressionMachine(), opt)
	defer e.Close()
	iterate := algorithms.PRIteration(e, 0.85)
	iterate() // warm up: layouts, scratch arenas
	iterate()
	allocs := testing.AllocsPerRun(10, iterate)
	if allocs > allocBudgetPerIteration {
		t.Fatalf("steady-state PageRank iteration allocated %.0f objects, budget %d",
			allocs, allocBudgetPerIteration)
	}
}

func TestLigraPRIterationAllocs(t *testing.T) {
	g := regressionGraph(t)
	e := ligra.MustNew(g, regressionMachine(), ligra.DefaultOptions())
	defer e.Close()
	iterate := algorithms.PRIteration(e, 0.85)
	iterate()
	iterate()
	allocs := testing.AllocsPerRun(10, iterate)
	if allocs > allocBudgetPerIteration {
		t.Fatalf("steady-state Ligra iteration allocated %.0f objects, budget %d",
			allocs, allocBudgetPerIteration)
	}
}

// TestXStreamPRIterationAllocs bounds a warm X-Stream iteration: the
// shuffle buffers keep their capacity and the active bitmaps double-buffer,
// so one more Iterate over the full frontier allocates only the phase
// closures. Narrow tiles make a return to per-iteration buffers cost two
// growing arrays per (thread, tile) pair in use, far over the budget.
func TestXStreamPRIterationAllocs(t *testing.T) {
	g := regressionGraph(t)
	opt := xstream.DefaultOptions()
	opt.TileVertices = 64
	e := xstream.MustNew(g, regressionMachine(), opt, algorithms.PRHints())
	defer e.Close()
	if e.Tiles() < 4 {
		t.Fatalf("%d tiles: too few for the budget to notice reallocated buffers", e.Tiles())
	}
	k := algorithms.NewXSKernels(e)["pr"].Kernel
	iterate := func() {
		e.SetAllActive()
		e.Iterate(k, nil)
	}
	iterate() // warm up: buffers grow to the full frontier's updates
	iterate() // the second active bitmap
	if allocs := testing.AllocsPerRun(10, iterate); allocs > allocBudgetPerIteration {
		t.Fatalf("steady-state X-Stream iteration allocated %.0f objects, budget %d",
			allocs, allocBudgetPerIteration)
	}
}

// TestSimSecondsDeterministic runs the same workload on fresh engines —
// push PageRank on Polymer, then SSSP, the traversal whose relaxation
// counts used to follow the host schedule, on every engine — and requires
// bit-identical simulated times, access ledgers and values. A phase runs
// on one goroutine in a fixed order (package par), so any divergence means
// host-side state leaked into the values or the simulated clock.
func TestSimSecondsDeterministic(t *testing.T) {
	same := func(t *testing.T, runs int, run func() (float64, numa.Stats, []float64)) {
		s1, st1, r1 := run()
		for i := 1; i < runs; i++ {
			s2, st2, r2 := run()
			if math.Float64bits(s1) != math.Float64bits(s2) || st1 != st2 {
				t.Fatalf("simulated time drifted across identical runs: %x %+v vs %x %+v", s1, st1, s2, st2)
			}
			for v := range r1 {
				if math.Float64bits(r1[v]) != math.Float64bits(r2[v]) {
					t.Fatalf("value[%d] drifted across identical runs: %x vs %x", v, r1[v], r2[v])
				}
			}
		}
	}
	t.Run("polymer/push-pr", func(t *testing.T) {
		g := regressionGraph(t)
		same(t, 20, func() (float64, numa.Stats, []float64) {
			opt := core.DefaultOptions()
			opt.Mode = core.Push
			e := core.MustNew(g, regressionMachine(), opt)
			defer e.Close()
			ranks := algorithms.PageRank(e, 10, 0.85)
			return e.SimSeconds(), e.RunStats(), ranks
		})
	})
	g, err := bench.LoadDataset(gen.Twitter, gen.Tiny, bench.SSSP)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []bench.System{bench.Polymer, bench.Ligra, bench.XStream, bench.Galois} {
		t.Run(string(sys)+"/sssp", func(t *testing.T) {
			same(t, 5, func() (float64, numa.Stats, []float64) {
				r := bench.RunFrom(sys, bench.SSSP, g, regressionMachine(), 0)
				return r.SimSeconds, r.Stats, r.Out.Widen()
			})
		})
	}
}

// claimAll is BFS's kernel without its memory: every edge passes Cond and
// claims its target, so one frontier yields the same sparse superstep on
// every call.
type claimAll struct{}

func (claimAll) Update(s, d graph.Vertex, w float32) bool { return true }
func (claimAll) Cond(graph.Vertex) bool                   { return true }

// sparseSuperstepAllocs counts the objects one sparse EdgeMap allocates on
// e: a road-grid BFS level, 64 active vertices out of 3600, queue
// collection.
func sparseSuperstepAllocs(t *testing.T, newEngine func(*graph.Graph) sg.Engine) float64 {
	t.Helper()
	n, edges := gen.RoadGrid(60, 60, 7)
	e := newEngine(graph.FromEdges(n, edges, false))
	defer e.Close()
	vs := make([]graph.Vertex, 64)
	for i := range vs {
		vs[i] = graph.Vertex(i * (n / len(vs)))
	}
	frontier := state.FromVertices(e.Bounds(), vs)
	step := func() {
		if out := e.EdgeMap(frontier, claimAll{}, sg.Hints{DataBytes: 4}); out.Dense() || out.IsEmpty() {
			t.Fatalf("superstep built a dense or empty frontier (%d active)", out.Count())
		}
	}
	step() // warm up: layouts, scratch arenas, queue capacity
	step()
	return testing.AllocsPerRun(10, step)
}

// sparseSuperstepAllocBudget bounds one sparse superstep: the returned
// Subset (header, per-node list table, one backing array) and the phase
// closure. The builder, its per-thread queue table and degree counters
// come from the engine's scratch, and the phase epoch folds in place; a
// queue table allocated per phase — 2 KB at 80 threads, once for each of
// a road-grid BFS's ~400 supersteps — is one object over.
const sparseSuperstepAllocBudget = 4

func TestPolymerSparseSuperstepAllocs(t *testing.T) {
	allocs := sparseSuperstepAllocs(t, func(g *graph.Graph) sg.Engine {
		return core.MustNew(g, regressionMachine(), core.DefaultOptions())
	})
	if allocs > sparseSuperstepAllocBudget {
		t.Fatalf("sparse superstep allocated %.0f objects, budget %d", allocs, sparseSuperstepAllocBudget)
	}
}

func TestLigraSparseSuperstepAllocs(t *testing.T) {
	allocs := sparseSuperstepAllocs(t, func(g *graph.Graph) sg.Engine {
		return ligra.MustNew(g, regressionMachine(), ligra.DefaultOptions())
	})
	if allocs > sparseSuperstepAllocBudget {
		t.Fatalf("sparse superstep allocated %.0f objects, budget %d", allocs, sparseSuperstepAllocBudget)
	}
}

// pullSuperstepAllocs counts the objects one dense pull superstep of BFS
// and of SSSP allocates on e: a weighted power-law graph, every third
// vertex active, so each row tests the frontier leaf and the phase goes
// dense by active degree.
func pullSuperstepAllocs(t *testing.T, newEngine func(*graph.Graph) sg.Engine) (bfs, sssp float64) {
	t.Helper()
	n, edges := gen.Powerlaw(3000, 8, 2.0, 7)
	gen.AddRandomWeights(edges, 11)
	e := newEngine(graph.FromEdges(n, edges, true))
	defer e.Close()
	sources := make([]graph.Vertex, 0, n/3)
	for v := 0; v < n; v += 3 {
		sources = append(sources, graph.Vertex(v))
	}
	measure := func(sssp bool) float64 {
		superstep := algorithms.TraversalSuperstep(e, sssp, sources)
		step := func() {
			if out := superstep(); !out.Dense() || out.IsEmpty() {
				t.Fatalf("sssp=%v: superstep built a sparse or empty frontier (%d active)", sssp, out.Count())
			}
		}
		step() // warm up: pull layout, scratch arenas
		step()
		return testing.AllocsPerRun(10, step)
	}
	return measure(false), measure(true)
}

// The pull superstep budgets are what the per-edge loops allocated before
// the kernels had a segment form: the returned Subset, its leaf table and
// bitmap leaves (one per NUMA node on Polymer, one on Ligra) and the phase
// closure. Finding sg.PullRowKernel must add nothing — a struct-valued
// kernel would be boxed once per phase (sg.RowKernelOf), one object over —
// and neither may the hit list a segment returns, which the engine sizes
// once.
const (
	polymerPullSuperstepAllocBudget = 11
	ligraPullSuperstepAllocBudget   = 4
)

func TestPolymerPullSuperstepAllocs(t *testing.T) {
	bfs, sssp := pullSuperstepAllocs(t, func(g *graph.Graph) sg.Engine {
		return core.MustNew(g, regressionMachine(), core.DefaultOptions())
	})
	if bfs > polymerPullSuperstepAllocBudget || sssp > polymerPullSuperstepAllocBudget {
		t.Fatalf("dense pull superstep allocated %.0f (BFS) and %.0f (SSSP) objects, budget %d", bfs, sssp, polymerPullSuperstepAllocBudget)
	}
}

func TestLigraPullSuperstepAllocs(t *testing.T) {
	bfs, sssp := pullSuperstepAllocs(t, func(g *graph.Graph) sg.Engine {
		return ligra.MustNew(g, regressionMachine(), ligra.DefaultOptions())
	})
	if bfs > ligraPullSuperstepAllocBudget || sssp > ligraPullSuperstepAllocBudget {
		t.Fatalf("dense pull superstep allocated %.0f (BFS) and %.0f (SSSP) objects, budget %d", bfs, sssp, ligraPullSuperstepAllocBudget)
	}
}

// TestEpochTimeDoesNotAllocate: Time() runs once per phase, hundreds of
// times per traversal; it folds the ledger in place.
func TestEpochTimeDoesNotAllocate(t *testing.T) {
	for _, tiered := range []bool{false, true} {
		m := regressionMachine()
		if tiered {
			if err := m.SetTierConfig(numa.TierConfig{DRAMPerNode: 1 << 20, Policy: numa.TierHot}); err != nil {
				t.Fatal(err)
			}
		}
		ep := m.NewEpoch()
		ep.AccessInterleaved(3, numa.Rand, numa.Load, 1000, 8, 1<<30)
		if n := testing.AllocsPerRun(10, func() { _ = ep.Time() }); n != 0 {
			t.Fatalf("tiered=%v: Epoch.Time allocated %.0f objects per call", tiered, n)
		}
	}
}

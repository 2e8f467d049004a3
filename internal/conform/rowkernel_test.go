package conform

import (
	"math"
	"slices"
	"testing"

	"polymer/internal/algorithms"
	"polymer/internal/bench"
	"polymer/internal/core"
	"polymer/internal/engines/ligra"
	"polymer/internal/fault"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/mem"
	"polymer/internal/numa"
	"polymer/internal/sg"
	"polymer/internal/state"
)

// perEdge hides a kernel's row form: embedding the interface promotes
// only Cond and Update.
type perEdge struct{ sg.EdgeKernel }

// perEdgeEngine hands every kernel to the engine under it through
// perEdge, so a driver run on it takes the per-edge loops throughout.
type perEdgeEngine struct{ sg.Engine }

func (e perEdgeEngine) EdgeMap(a *state.Subset, k sg.EdgeKernel, h sg.Hints) *state.Subset {
	return e.Engine.EdgeMap(a, perEdge{k}, h)
}

// rowEngine is what the row/per-edge differential needs of an engine.
type rowEngine interface {
	sg.Engine
	fault.Engine
	EdgesProcessed() int64
}

// rowOutcome is what a row path and the per-edge path must agree on.
type rowOutcome struct {
	out   []float64
	sim   float64
	stats numa.Stats
	edges int64
}

// rowSystem is one engine configuration of the row/per-edge differentials.
type rowSystem struct {
	name   string
	tiered bool
	build  func(*graph.Graph, *numa.Machine) rowEngine
}

// run drives one algorithm on a fresh 4x2 machine under a fault session
// that rolls step 1 back, through the engine's row forms or, with rows
// unset, through the per-edge loops only. inspect, when non-nil, sees the
// engine before it is closed.
func (sys rowSystem) run(t *testing.T, g *graph.Graph, rows bool,
	algo func(sg.Engine, *fault.Session) ([]float64, error), inspect func(rowEngine)) rowOutcome {
	t.Helper()
	m := numa.NewMachine(numa.IntelXeon80(), 4, 2)
	if sys.tiered {
		// Far below the footprint: most accesses go to the slow tier.
		if err := m.SetTierConfig(numa.TierConfig{DRAMPerNode: 2048, Policy: numa.TierHot, PromoteEvery: 2}); err != nil {
			t.Fatal(err)
		}
	}
	e := sys.build(g, m)
	defer e.Close()
	evs, err := fault.ParseSpec("panic@1:t1")
	if err != nil {
		t.Fatal(err)
	}
	sess := fault.NewSession(e, fault.NewInjector(evs))
	var driven sg.Engine = e
	if !rows {
		driven = perEdgeEngine{e}
	}
	out, err := algo(driven, sess)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Rollbacks() != 1 {
		t.Fatalf("rows=%v: %d rollbacks, want 1", rows, sess.Rollbacks())
	}
	if inspect != nil {
		inspect(e)
	}
	return rowOutcome{out, e.SimSeconds(), e.RunStats(), e.EdgesProcessed()}
}

// polymerSystems is Polymer in the given dense mode under the four
// placements whose charging recipes differ.
func polymerSystems(prefix string, mode core.Mode) []rowSystem {
	build := func(edit func(*core.Options)) func(*graph.Graph, *numa.Machine) rowEngine {
		return func(g *graph.Graph, m *numa.Machine) rowEngine {
			opt := core.DefaultOptions()
			opt.Mode = mode
			edit(&opt)
			return core.MustNew(g, m, opt)
		}
	}
	return []rowSystem{
		{prefix + "/colocated", false, build(func(*core.Options) {})},
		{prefix + "/interleaved", false, build(func(o *core.Options) { o.Layout = mem.Interleaved })},
		{prefix + "/norolling", false, build(func(o *core.Options) { o.DisableRolling = true })},
		{prefix + "/tiered", true, build(func(*core.Options) {})},
	}
}

func ligraSystem(name string, opt ligra.Options) rowSystem {
	return rowSystem{name, false, func(g *graph.Graph, m *numa.Machine) rowEngine { return ligra.MustNew(g, m, opt) }}
}

// compareClock holds the simulated side of two outcomes equal.
func compareClock(t *testing.T, sys rowSystem, row, edge rowOutcome) {
	t.Helper()
	if math.Float64bits(row.sim) != math.Float64bits(edge.sim) {
		t.Errorf("SimSeconds: row %x, per-edge %x", row.sim, edge.sim)
	}
	if row.stats != edge.stats {
		t.Errorf("RunStats: row %+v, per-edge %+v", row.stats, edge.stats)
	}
	if sys.tiered && row.stats.SlowCount == 0 {
		t.Error("tiered run never touched the slow tier")
	}
	if row.edges != edge.edges {
		t.Errorf("EdgesProcessed: row %d, per-edge %d", row.edges, edge.edges)
	}
}

// TestRowKernelEquivalence holds the sg.RowKernel contract at engine
// level: PR, SpMV and BP through the row loops and through the per-edge
// loops commit the same value bits, simulated clock, access statistics
// and edge count, each under a fault session that rolls one step back, at
// any GOMAXPROCS.
func TestRowKernelEquivalence(t *testing.T) {
	wg := metamorphicGraph()
	n, edges := gen.Powerlaw(192, 4, 2.0, 13)
	ug := graph.FromEdges(n, edges, false)

	systems := append(polymerSystems("polymer", core.Push), ligraSystem("ligra", ligra.DefaultOptions()))
	algos := []struct {
		algo Algo
		run  func(sg.Engine, *fault.Session) ([]float64, error)
	}{
		{PR, func(e sg.Engine, s *fault.Session) ([]float64, error) {
			return algorithms.PageRankE(e, Iters, Damping, s)
		}},
		{SpMV, func(e sg.Engine, s *fault.Session) ([]float64, error) {
			return algorithms.SpMV(e, Iters, ones(e.Graph().NumVertices()), s)
		}},
		{BP, func(e sg.Engine, s *fault.Session) ([]float64, error) { return algorithms.BP(e, Iters, s) }},
	}

	for _, sys := range systems {
		for _, a := range algos {
			for gname, g := range map[string]*graph.Graph{"weighted": wg, "unweighted": ug} {
				t.Run(sys.name+"/"+string(a.algo)+"/"+gname, func(t *testing.T) {
					row, edge := sys.run(t, g, true, a.run, nil), sys.run(t, g, false, a.run, nil)
					compareClock(t, sys, row, edge)
					if want := int64(Iters) * g.NumEdges(); row.edges != want {
						t.Errorf("EdgesProcessed: %d, want %d", row.edges, want)
					}
					if d := Compare(Case{Algo: a.algo}, Policy{Exact: true}, edge.out, row.out); d != nil {
						t.Errorf("values: row path diverges from per-edge path: %v", d)
					}
				})
			}
		}
	}
}

// TestPullRowEquivalence holds the sg.PullRowKernel contract at engine
// level: BFS, CC and SSSP with their PullRow and with it hidden (the
// per-edge sg.PullRowPerEdge) commit the same values, simulated clock,
// access statistics and edge count, each under a fault session that rolls
// one step back, at any GOMAXPROCS.
func TestPullRowEquivalence(t *testing.T) {
	wg := metamorphicGraph()
	n, edges := gen.Powerlaw(192, 4, 2.0, 13)
	ug := graph.FromEdges(n, edges, false)
	const src = 1

	dense := ligra.DefaultOptions()
	dense.Adaptive = false // every phase is a dense pull
	systems := slices.Concat(polymerSystems("polymer/auto", core.Auto), polymerSystems("polymer/pull", core.Pull),
		[]rowSystem{ligraSystem("ligra", ligra.DefaultOptions()), ligraSystem("ligra/dense", dense)})
	algos := []struct {
		algo Algo
		run  func(sg.Engine, *fault.Session) ([]float64, error)
	}{
		{BFS, func(e sg.Engine, s *fault.Session) ([]float64, error) {
			levels, err := algorithms.BFSE(e, src, s)
			return bench.Output{I64: levels}.Widen(), err
		}},
		{CC, func(e sg.Engine, s *fault.Session) ([]float64, error) {
			labels, err := algorithms.CC(e, s)
			return bench.Output{V: labels}.Widen(), err
		}},
		{SSSP, func(e sg.Engine, s *fault.Session) ([]float64, error) { return algorithms.SSSP(e, src, s) }},
	}

	for _, sys := range systems {
		for _, a := range algos {
			for gname, g := range map[string]*graph.Graph{"weighted": wg, "unweighted": ug} {
				if a.algo == CC {
					g = g.Symmetrized()
				}
				t.Run(sys.name+"/"+string(a.algo)+"/"+gname, func(t *testing.T) {
					pulled := func(e rowEngine) {
						if p, ok := e.(*core.Engine); ok && p.Metrics().DensePhases == 0 {
							t.Error("no dense phase: the pull loops never ran")
						}
					}
					row, edge := sys.run(t, g, true, a.run, pulled), sys.run(t, g, false, a.run, pulled)
					compareClock(t, sys, row, edge)
					if d := Compare(Case{Algo: a.algo}, Policy{Exact: true}, edge.out, row.out); d != nil {
						t.Errorf("values: PullRow path diverges from per-edge path: %v", d)
					}
					if d := Compare(Case{Algo: a.algo}, Policy{Exact: true}, Ref(a.algo, g, src).Out, row.out); d != nil {
						t.Errorf("values: PullRow path diverges from the oracle: %v", d)
					}
				})
			}
		}
	}
}

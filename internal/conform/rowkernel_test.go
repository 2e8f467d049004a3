package conform

import (
	"math"
	"runtime"
	"testing"

	"polymer/internal/algorithms"
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
// only Cond, Update and UpdateAtomic.
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

// TestRowKernelEquivalence holds the sg.RowKernel contract at engine
// level: PR, SpMV and BP through the row loops and through the per-edge
// loops commit the same value bits, simulated clock, access statistics
// and edge count, each under a fault session that rolls one step back.
// Polymer's push has one writer per target, so its values are exact at
// any GOMAXPROCS; Ligra's are exact on one host worker and sum in CAS
// order on more, on either path.
func TestRowKernelEquivalence(t *testing.T) {
	wg := metamorphicGraph()
	n, edges := gen.Powerlaw(192, 4, 2.0, 13)
	ug := graph.FromEdges(n, edges, false)

	polymer := func(edit func(*core.Options)) func(*graph.Graph, *numa.Machine) rowEngine {
		return func(g *graph.Graph, m *numa.Machine) rowEngine {
			opt := core.DefaultOptions()
			opt.Mode = core.Push
			edit(&opt)
			return core.MustNew(g, m, opt)
		}
	}
	systems := []struct {
		name      string
		tiered    bool
		oneWriter bool // per push target: float sums exact at any GOMAXPROCS
		build     func(*graph.Graph, *numa.Machine) rowEngine
	}{
		{"polymer/colocated", false, true, polymer(func(*core.Options) {})},
		{"polymer/interleaved", false, true, polymer(func(o *core.Options) { o.Layout = mem.Interleaved })},
		{"polymer/norolling", false, true, polymer(func(o *core.Options) { o.DisableRolling = true })},
		{"polymer/tiered", true, true, polymer(func(*core.Options) {})},
		{"ligra", false, false, func(g *graph.Graph, m *numa.Machine) rowEngine {
			return ligra.MustNew(g, m, ligra.DefaultOptions())
		}},
	}
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
					type outcome struct {
						out   []float64
						sim   float64
						stats numa.Stats
						edges int64
					}
					run := func(rows bool) outcome {
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
						out, err := a.run(driven, sess)
						if err != nil {
							t.Fatal(err)
						}
						if sess.Rollbacks() != 1 {
							t.Fatalf("rows=%v: %d rollbacks, want 1", rows, sess.Rollbacks())
						}
						return outcome{out, e.SimSeconds(), e.RunStats(), e.EdgesProcessed()}
					}
					row, edge := run(true), run(false)

					if math.Float64bits(row.sim) != math.Float64bits(edge.sim) {
						t.Errorf("SimSeconds: row %x, per-edge %x", row.sim, edge.sim)
					}
					if row.stats != edge.stats {
						t.Errorf("RunStats: row %+v, per-edge %+v", row.stats, edge.stats)
					}
					if sys.tiered && row.stats.SlowCount == 0 {
						t.Error("tiered run never touched the slow tier")
					}
					if want := int64(Iters) * g.NumEdges(); row.edges != want || edge.edges != want {
						t.Errorf("EdgesProcessed: row %d, per-edge %d, want %d", row.edges, edge.edges, want)
					}
					p := Policy{Exact: true}
					if !sys.oneWriter && runtime.GOMAXPROCS(0) > 1 {
						p = PolicyFor(a.algo)
					}
					if d := Compare(Case{Algo: a.algo}, p, edge.out, row.out); d != nil {
						t.Errorf("values: row path diverges from per-edge path: %v", d)
					}
				})
			}
		}
	}
}

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

// perEdge hides a kernel's segment form: embedding the interface promotes
// only Cond and Update.
type perEdge struct{ sg.EdgeKernel }

// perEdgeEngine hands every kernel to the engine under it through
// perEdge, so a driver run on it takes the per-edge loops throughout.
type perEdgeEngine struct{ sg.Engine }

func (e perEdgeEngine) EdgeMap(a *state.Subset, k sg.EdgeKernel, h sg.Hints) *state.Subset {
	return e.Engine.EdgeMap(a, perEdge{k}, h)
}

// segmentLog counts how the dense sweeps cut their chunks. Within one
// EdgeMap, a segment that continues the previous segment on the same rows
// was cut from it at an owner boundary when it starts where that one
// ended, and at the rolling start's wrap when that one ended at the last
// row and this one starts at row 0. Chunks of one thread are never
// adjacent, and those of two threads only on a node with one chunk each,
// so neither case arises between chunks on the graphs below.
type segmentLog struct {
	last                map[*sg.Rows]int // each rows view's previous segment end
	ownerCuts, wrapCuts int
}

func (l *segmentLog) note(rs *sg.Rows, lo, hi int) {
	if end, ok := l.last[rs]; ok && lo < hi {
		switch {
		case lo == end:
			l.ownerCuts++
		case lo == 0 && end == len(rs.IDs):
			l.wrapCuts++
		}
	}
	if lo < hi {
		l.last[rs] = hi
	}
}

// pushSegments and pullSegments pass a kernel's segment form through,
// noting each segment in log.
type pushSegments struct {
	sg.EdgeKernel
	rk  sg.RowKernel
	log *segmentLog
}

func (k pushSegments) PushRows(rs *sg.Rows, lo, hi int, active []uint64, base int) (int64, int64) {
	k.log.note(rs, lo, hi)
	return k.rk.PushRows(rs, lo, hi, active, base)
}

type pullSegments struct {
	sg.EdgeKernel
	pk  sg.PullRowKernel
	log *segmentLog
}

func (k pullSegments) PullRows(rs *sg.Rows, lo, hi int, active []uint64, base int, hits []int32) (int64, []int32) {
	k.log.note(rs, lo, hi)
	return k.pk.PullRows(rs, lo, hi, active, base, hits)
}

// segmentEngine hands every kernel with a segment form to the engine under
// it through pushSegments or pullSegments, recording into log.
type segmentEngine struct {
	sg.Engine
	log *segmentLog
}

func (e segmentEngine) EdgeMap(a *state.Subset, k sg.EdgeKernel, h sg.Hints) *state.Subset {
	clear(e.log.last)
	if rk, ok := k.(sg.RowKernel); ok {
		k = pushSegments{k, rk, e.log}
	} else if pk, ok := k.(sg.PullRowKernel); ok {
		k = pullSegments{k, pk, e.log}
	}
	return e.Engine.EdgeMap(a, k, h)
}

// rowEngine is what the row/per-edge differential needs of an engine.
type rowEngine interface {
	sg.Engine
	fault.Engine
	EdgesProcessed() int64
}

// rowOutcome is what a row path and the per-edge path must agree on, and
// how the row path's sweeps cut their chunks.
type rowOutcome struct {
	out   []float64
	sim   float64
	stats numa.Stats
	edges int64
	cuts  segmentLog
}

// rowSystem is one engine configuration of the row/per-edge differentials.
// owners and wraps say whether its dense sweeps cut chunks at owner
// boundaries (Polymer's parts) and at the rolling start's wrap.
type rowSystem struct {
	name          string
	tiered        bool
	owners, wraps bool
	build         func(*graph.Graph, *numa.Machine) rowEngine
}

// rowGraphs are the graphs of the segment/per-edge differentials: two
// small power-law graphs, weighted and not, and wrappingGraph.
func rowGraphs() map[string]*graph.Graph {
	n, edges := gen.Powerlaw(192, 4, 2.0, 13)
	return map[string]*graph.Graph{"weighted": metamorphicGraph(), "unweighted": graph.FromEdges(n, edges, false), "wrapping": wrappingGraph()}
}

// wrappingGraph is a weighted power-law graph large enough that each node
// of a 4x2 machine sweeps its rows in many chunks, so some chunks contain
// the rolling start's wrap and some cross owner boundaries.
func wrappingGraph() *graph.Graph {
	n, e := gen.Powerlaw(4000, 6, 2.0, 29)
	gen.AddRandomWeights(e, 31)
	return graph.FromEdges(n, e, true)
}

// checkCuts holds the row run's segments on wrappingGraph to the system's
// sweep: chunks cut at owner boundaries and at the wrap exactly where the
// system has them.
func checkCuts(t *testing.T, sys rowSystem, row rowOutcome) {
	t.Helper()
	if c := row.cuts; (c.ownerCuts > 0) != sys.owners || (c.wrapCuts > 0) != sys.wraps {
		t.Errorf("%d owner cuts and %d wrap cuts; want owner cuts %t, wrap cuts %t", c.ownerCuts, c.wrapCuts, sys.owners, sys.wraps)
	}
}

// run drives one algorithm on a fresh 4x2 machine under a fault session
// that rolls step 1 back, through the engine's segment forms or, with rows
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
	log := &segmentLog{last: map[*sg.Rows]int{}}
	var driven sg.Engine = segmentEngine{e, log}
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
	return rowOutcome{out, e.SimSeconds(), e.RunStats(), e.EdgesProcessed(), *log}
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
		{prefix + "/colocated", false, true, true, build(func(*core.Options) {})},
		{prefix + "/interleaved", false, true, true, build(func(o *core.Options) { o.Layout = mem.Interleaved })},
		{prefix + "/norolling", false, true, false, build(func(o *core.Options) { o.DisableRolling = true })},
		{prefix + "/tiered", true, true, true, build(func(*core.Options) {})},
	}
}

// ligraSystem is Ligra: one part and no rolling start, so each chunk is
// one segment.
func ligraSystem(name string, opt ligra.Options) rowSystem {
	return rowSystem{name, false, false, false, func(g *graph.Graph, m *numa.Machine) rowEngine { return ligra.MustNew(g, m, opt) }}
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
// level: PR, SpMV and BP through the segment form and through the
// per-edge loops commit the same value bits, simulated clock, access
// statistics and edge count, each under a fault session that rolls one
// step back, at any GOMAXPROCS. On the wrapping graph the segments are
// also held to the sweep's cuts (checkCuts).
func TestRowKernelEquivalence(t *testing.T) {
	graphs := rowGraphs()

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
			for gname, g := range graphs {
				t.Run(sys.name+"/"+string(a.algo)+"/"+gname, func(t *testing.T) {
					row, edge := sys.run(t, g, true, a.run, nil), sys.run(t, g, false, a.run, nil)
					compareClock(t, sys, row, edge)
					if gname == "wrapping" {
						checkCuts(t, sys, row)
					}
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
// level: BFS, CC and SSSP with their PullRows and with it hidden (the
// per-edge sg.PullRowsPerEdge) commit the same values, simulated clock,
// access statistics and edge count, each under a fault session that rolls
// one step back, at any GOMAXPROCS. On the wrapping graph the segments are
// also held to the sweep's cuts (checkCuts).
func TestPullRowEquivalence(t *testing.T) {
	graphs := rowGraphs()
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
			for gname, g := range graphs {
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
					if gname == "wrapping" {
						checkCuts(t, sys, row)
					}
					if d := Compare(Case{Algo: a.algo}, Policy{Exact: true}, edge.out, row.out); d != nil {
						t.Errorf("values: PullRows path diverges from per-edge path: %v", d)
					}
					if d := Compare(Case{Algo: a.algo}, Policy{Exact: true}, Ref(a.algo, g, src).Out, row.out); d != nil {
						t.Errorf("values: PullRows path diverges from the oracle: %v", d)
					}
				})
			}
		}
	}
}

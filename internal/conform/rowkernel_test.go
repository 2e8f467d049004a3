package conform

import (
	"math"
	"slices"
	"testing"
	"unsafe"

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
// so neither case arises between chunks on the graphs below. The rows are
// told apart by their offsets array: one a part for Polymer, whose fresh
// builds are laid out flat, and one a graph chunk for Ligra, whose
// schedule's chunks on wrappingGraph are graph chunks. A phase that
// streams no weights hands the rows over in a scratch view with the same
// offsets.
type segmentLog struct {
	last                map[*int64]int // each part's previous segment end
	ownerCuts, wrapCuts int
}

func (l *segmentLog) note(rs *sg.Rows, lo, hi int) {
	part := unsafe.SliceData(rs.Idx)
	if end, ok := l.last[part]; ok && lo < hi {
		switch {
		case lo == end:
			l.ownerCuts++
		case lo == 0 && end == rs.Len():
			l.wrapCuts++
		}
	}
	if lo < hi {
		l.last[part] = hi
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
	log := &segmentLog{last: map[*int64]int{}}
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

// rowCounting passes the engine under it every kernel with the sparse
// row form through sparseRows, counting the PushRow calls in calls.
type rowCounting struct {
	sg.Engine
	calls *int
}

// sparseRows passes a kernel's sparse row form through, counting its calls.
type sparseRows struct {
	sg.EdgeKernel
	sk    sg.SparseRowKernel
	calls *int
}

func (k sparseRows) PushRow(s graph.Vertex, cols []graph.Vertex, wts []float32, out []graph.Vertex) (int64, []graph.Vertex) {
	*k.calls++
	return k.sk.PushRow(s, cols, wts, out)
}

func (e rowCounting) EdgeMap(a *state.Subset, k sg.EdgeKernel, h sg.Hints) *state.Subset {
	if sk, ok := k.(sg.SparseRowKernel); ok {
		k = sparseRows{k, sk, e.calls}
	}
	return e.Engine.EdgeMap(a, k, h)
}

// emptyPartsGraph is a weighted graph whose first half only sends: each of
// its vertices has four out-edges into the second half, a bidirectional
// ring. Balanced by out-degree over eight nodes, the senders fill the
// first nodes, whose push parts key no row: no vertex of theirs has an
// in-edge.
func emptyPartsGraph() *graph.Graph {
	const half = 200
	rng := gen.NewRNG(37)
	var edges []graph.Edge
	for v := 0; v < half; v++ {
		for j := 0; j < 4; j++ {
			edges = append(edges, graph.Edge{Src: graph.Vertex(v), Dst: graph.Vertex(half + rng.Intn(half)), Wt: float32(1 + rng.Intn(9))})
		}
	}
	for i := 0; i < half; i++ {
		u, w := graph.Vertex(half+i), graph.Vertex(half+(i+1)%half)
		edges = append(edges, graph.Edge{Src: u, Dst: w, Wt: 1}, graph.Edge{Src: w, Dst: u, Wt: 1})
	}
	return graph.FromEdges(2*half, edges, true)
}

// TestSparseRowEquivalence holds the sg.SparseRowKernel contract at engine
// level: BFS and SSSP, driven through sparse phases on Polymer (P = 8) and
// Ligra, commit the same values, simulated clock, access statistics and
// edge count through their PushRow as through the per-edge loop
// (perEdgeEngine). On emptyPartsGraph some of Polymer's push parts hold no
// rows. The sweep's per-part counts are compared in package sg
// (TestSparsePartCounts).
func TestSparseRowEquivalence(t *testing.T) {
	n, e := gen.RoadGrid(24, 24, 3)
	graphs := rowGraphs()
	delete(graphs, "wrapping")
	graphs["road"] = graph.FromEdges(n, e, true)
	graphs["empty-parts"] = emptyPartsGraph()
	const src = 1

	// A threshold of 1 keeps a phase sparse until its frontier's degree sum
	// passes the edge count.
	popt, lopt := core.DefaultOptions(), ligra.DefaultOptions()
	popt.Threshold, lopt.Threshold = 1, 1
	systems := []struct {
		name  string
		build func(*graph.Graph, *numa.Machine) rowEngine
	}{
		{"polymer", func(g *graph.Graph, m *numa.Machine) rowEngine { return core.MustNew(g, m, popt) }},
		{"ligra", func(g *graph.Graph, m *numa.Machine) rowEngine { return ligra.MustNew(g, m, lopt) }},
	}
	algos := []struct {
		algo Algo
		run  func(sg.Engine) ([]float64, error)
	}{
		{BFS, func(e sg.Engine) ([]float64, error) {
			levels, err := algorithms.BFSE(e, src, nil)
			return bench.Output{I64: levels}.Widen(), err
		}},
		{SSSP, func(e sg.Engine) ([]float64, error) { return algorithms.SSSP(e, src, nil) }},
	}

	// run drives algo through the row forms, counting their calls in
	// rowCalls, or, with rowCalls nil, through the per-edge loop.
	run := func(t *testing.T, build func(*graph.Graph, *numa.Machine) rowEngine, g *graph.Graph, rowCalls *int, algo func(sg.Engine) ([]float64, error)) rowOutcome {
		t.Helper()
		e := build(g, numa.NewMachine(numa.IntelXeon80(), 8, 2))
		defer e.Close()
		var driven sg.Engine = perEdgeEngine{e}
		if rowCalls != nil {
			driven = rowCounting{e, rowCalls}
		}
		out, err := algo(driven)
		if err != nil {
			t.Fatal(err)
		}
		return rowOutcome{out: out, sim: e.SimSeconds(), stats: e.RunStats(), edges: e.EdgesProcessed()}
	}

	for _, sys := range systems {
		for _, a := range algos {
			rowCalls := 0 // over all graphs
			for gname, g := range graphs {
				t.Run(sys.name+"/"+string(a.algo)+"/"+gname, func(t *testing.T) {
					row, edge := run(t, sys.build, g, &rowCalls, a.run), run(t, sys.build, g, nil, a.run)
					compareClock(t, rowSystem{}, row, edge)
					if d := Compare(Case{Algo: a.algo}, Policy{Exact: true}, edge.out, row.out); d != nil {
						t.Errorf("values: PushRow path diverges from per-edge path: %v", d)
					}
				})
			}
			if rowCalls == 0 {
				t.Errorf("%s/%s: no PushRow call: no sparse phase ran", sys.name, a.algo)
			}
		}
	}

	// The empty-parts graph keeps its promise: on Polymer's push layout,
	// some node's vertices have no in-edge, so its part keys no row.
	g := graphs["empty-parts"]
	p := core.MustNew(g, numa.NewMachine(numa.IntelXeon80(), 8, 2), popt)
	defer p.Close()
	empty := 0
	for _, r := range p.Parts() {
		in := int64(0)
		for v := r.Lo; v < r.Hi; v++ {
			in += g.InDegree(graph.Vertex(v))
		}
		if in == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Errorf("no empty push part among %v", p.Parts())
	}
}

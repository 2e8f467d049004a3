package algorithms

import (
	"errors"
	"math"
	"runtime/debug"
	"slices"
	"testing"

	"polymer/internal/core"
	"polymer/internal/engines/galois"
	"polymer/internal/engines/ligra"
	"polymer/internal/engines/xstream"
	"polymer/internal/fault"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
	"polymer/internal/sg"
)

// A driver's per-vertex arrays are run-scoped: it hands back every one it
// does not return, and the engine's next run takes them back into service
// (sg.NewArray). These tests hold what that must not change: no run's
// result is an engine array, a rerun is bit-identical, and the simulated
// ledger returns to where it stood before each run.

// rerunDriver is one driver on one engine, run with input variant v: 0
// is run A, 1 a different run B.
type rerunDriver func(v int) (any, error)

// rerunCase builds a fresh engine on m and returns its driver. A
// scatter-gather engine makes the layouts a first run would lay out up
// front, so the ledger stands where every run must leave it.
type rerunCase func(m *numa.Machine) (run rerunDriver, close func())

// rerunEngine is what the tests read of an engine beside a driver's
// result: every engine family's sg.Base.
type rerunEngine interface {
	SimSeconds() float64
	RunStats() numa.Stats
	Close()
}

// engineCase is a rerunCase that returns the engine itself.
type engineCase func(m *numa.Machine) (run rerunDriver, e rerunEngine)

var rerunSources = [2]graph.Vertex{0, 5}

// rerunCases lists every driver that allocates vertex state, on every
// engine family it runs on.
func rerunCases(t *testing.T) map[string]rerunCase {
	t.Helper()
	out := map[string]rerunCase{}
	for name, c := range engineCases(t) {
		out[name] = func(m *numa.Machine) (rerunDriver, func()) {
			run, e := c(m)
			return run, e.Close
		}
	}
	return out
}

// engineCases is rerunCases with the engines.
func engineCases(t *testing.T) map[string]engineCase {
	t.Helper()
	g, err := gen.Load(gen.Twitter, gen.Tiny, true)
	if err != nil {
		t.Fatal(err)
	}
	sym, unit := g.Symmetrized(), g.Unweighted()
	n := g.NumVertices()
	x0 := [2][]float64{make([]float64, n), make([]float64, n)}
	for v := 0; v < n; v++ {
		x0[0][v], x0[1][v] = 1, float64(v%7)
	}
	var sssp, bfs [2]any
	for i, s := range rerunSources {
		sssp[i], bfs[i] = RefSSSP(g, s), RefBFS(unit, s)
	}

	out := map[string]engineCase{}
	sgEngine := map[string]func(*graph.Graph, *numa.Machine) sg.Engine{
		"polymer": func(g *graph.Graph, m *numa.Machine) sg.Engine {
			return core.MustNew(g, m, core.DefaultOptions())
		},
		"ligra": func(g *graph.Graph, m *numa.Machine) sg.Engine {
			return ligra.MustNew(g, m, ligra.DefaultOptions())
		},
	}
	sgDrivers := map[string]struct {
		g   *graph.Graph
		run func(e sg.Engine, v int) (any, error)
	}{
		"pr":   {g, func(e sg.Engine, v int) (any, error) { return PageRankE(e, 2+v, 0.85, nil) }},
		"spmv": {g, func(e sg.Engine, v int) (any, error) { return SpMV(e, 2, x0[v], nil) }},
		"bp":   {g, func(e sg.Engine, v int) (any, error) { return BP(e, 2+v, nil) }},
		"prdelta": {g, func(e sg.Engine, v int) (any, error) {
			r, _ := PageRankDelta(e, 1e-6, 3+v)
			return r, e.Err()
		}},
		"bfs":  {unit, func(e sg.Engine, v int) (any, error) { return BFSE(e, rerunSources[v], nil) }},
		"sssp": {g, func(e sg.Engine, v int) (any, error) { return SSSP(e, rerunSources[v], nil) }},
		"cc":   {sym, func(e sg.Engine, v int) (any, error) { return CC(e, nil) }},
		"msssp": {g, func(e sg.Engine, v int) (any, error) {
			return MultiSSSP(e, []graph.Vertex{rerunSources[v], 9})
		}},
		"repair-sssp": {g, func(e sg.Engine, v int) (any, error) {
			return RepairSSSP(e, rerunSources[v], sssp[v].([]float64), nil, nil)
		}},
		"repair-bfs": {unit, func(e sg.Engine, v int) (any, error) {
			return RepairBFS(e, rerunSources[v], bfs[v].([]int64), nil, nil)
		}},
	}
	for en, build := range sgEngine {
		for dn, d := range sgDrivers {
			out[en+"/"+dn] = func(m *numa.Machine) (rerunDriver, rerunEngine) {
				e := build(d.g, m)
				sg.MakeLayouts(e)
				return func(v int) (any, error) { return d.run(e, v) }, e
			}
		}
	}

	xsDrivers := map[string]struct {
		g   *graph.Graph
		run func(e *xstream.Engine, v int) any
	}{
		"pr":   {g, func(e *xstream.Engine, v int) any { return XSPageRank(e, 2+v, 0.85) }},
		"spmv": {g, func(e *xstream.Engine, v int) any { return must(XSSpMV(e, 2, x0[v], nil)) }},
		"bp":   {g, func(e *xstream.Engine, v int) any { return must(XSBP(e, 2+v, nil)) }},
		"prdelta": {g, func(e *xstream.Engine, v int) any {
			r, _ := XSPageRankDelta(e, 1e-6, 3+v)
			return r
		}},
		"bfs":  {unit, func(e *xstream.Engine, v int) any { return XSBFS(e, rerunSources[v]) }},
		"sssp": {g, func(e *xstream.Engine, v int) any { return XSSSSP(e, rerunSources[v]) }},
		"cc":   {sym, func(e *xstream.Engine, v int) any { return XSCC(e) }},
	}
	for dn, d := range xsDrivers {
		out["xstream/"+dn] = func(m *numa.Machine) (rerunDriver, rerunEngine) {
			e := xstream.MustNew(d.g, m, xstream.DefaultOptions(), sg.Hints{DataBytes: 8, Weighted: d.g.Weighted()})
			return func(v int) (any, error) { r := d.run(e, v); return r, e.Err() }, e
		}
	}

	galoisDrivers := map[string]struct {
		g   *graph.Graph
		run func(e *galois.Engine, v int) (any, error)
	}{
		"pr":   {g, func(e *galois.Engine, v int) (any, error) { return e.PageRankE(2+v, 0.85, nil) }},
		"spmv": {g, func(e *galois.Engine, v int) (any, error) { return e.SpMV(2, x0[v], nil) }},
		"bp":   {g, func(e *galois.Engine, v int) (any, error) { return e.BP(2+v, nil) }},
		"prdelta": {g, func(e *galois.Engine, v int) (any, error) {
			r, _ := e.PageRankDelta(1e-6, 3+v)
			return r, e.Err()
		}},
		"bfs":  {unit, func(e *galois.Engine, v int) (any, error) { return e.BFS(rerunSources[v]), e.Err() }},
		"sssp": {g, func(e *galois.Engine, v int) (any, error) { return e.SSSP(rerunSources[v]), e.Err() }},
		"cc":   {sym, func(e *galois.Engine, v int) (any, error) { return e.CC(), e.Err() }},
	}
	for dn, d := range galoisDrivers {
		out["galois/"+dn] = func(m *numa.Machine) (rerunDriver, rerunEngine) {
			e := galois.MustNew(d.g, m, galois.DefaultOptions())
			return func(v int) (any, error) { return d.run(e, v) }, e
		}
	}
	return out
}

// resultBits copies a driver's result out as bit patterns.
func resultBits(t *testing.T, r any) []uint64 {
	t.Helper()
	var out []uint64
	switch r := r.(type) {
	case []float64:
		for _, x := range r {
			out = append(out, math.Float64bits(x))
		}
	case []int64:
		for _, x := range r {
			out = append(out, uint64(x))
		}
	case []graph.Vertex:
		for _, x := range r {
			out = append(out, uint64(x))
		}
	case [][]float64:
		for _, xs := range r {
			out = append(out, resultBits(t, xs)...)
		}
	default:
		t.Fatalf("result of type %T", r)
	}
	return out
}

// scribble overwrites a driver's result in place.
func scribble(r any) {
	switch r := r.(type) {
	case []float64:
		for i := range r {
			r[i] = -7
		}
	case []int64:
		for i := range r {
			r[i] = -7
		}
	case []graph.Vertex:
		for i := range r {
			r[i] = 7
		}
	case [][]float64:
		for _, xs := range r {
			scribble(xs)
		}
	}
}

// TestRunsOnOneEngineDoNotShareResults keeps run A's result, runs B and
// then A again on the same engine: A's kept result must not change, the
// rerun must be bit-identical to it, and after every run the tracker must
// be back at its post-build value. Writing over the rerun's result must
// not reach A's or B's either.
//
// A run's first arrays may be storage an earlier subtest's engine handed
// to mem's spare list at Close, and a spare handed out uncleared shows
// here as a rerun that differs from run A. The spare list is a sync.Pool,
// which a GC empties, so automatic GC is off for the whole test: whether
// a subtest sees its predecessor's spares does not depend on GC timing.
func TestRunsOnOneEngineDoNotShareResults(t *testing.T) {
	gc := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(gc) })
	for name, c := range rerunCases(t) {
		t.Run(name, func(t *testing.T) {
			m := testMachine()
			run, closeEngine := c(m)
			defer closeEngine()
			built := m.Alloc().Current()
			do := func(what string, v int) any {
				t.Helper()
				r, err := run(v)
				if err != nil {
					t.Fatalf("run %s: %v", what, err)
				}
				if got := m.Alloc().Current(); got != built {
					t.Fatalf("after run %s the tracker holds %d bytes, %d after build", what, got, built)
				}
				return r
			}
			a := do("A", 0)
			wantA := resultBits(t, a)
			b := do("B", 1)
			wantB := resultBits(t, b)
			if !slices.Equal(resultBits(t, a), wantA) {
				t.Fatal("run B changed run A's kept result")
			}
			a2 := do("A again", 0)
			if !slices.Equal(resultBits(t, a2), wantA) {
				t.Fatal("rerun of A is not bit-identical to A")
			}
			scribble(a2)
			if !slices.Equal(resultBits(t, a), wantA) || !slices.Equal(resultBits(t, b), wantB) {
				t.Fatal("the rerun's result shares memory with an earlier run's")
			}
		})
	}
}

// TestClosedEnginesDoNotShareResults is TestRunsOnOneEngineDoNotShareResults
// across one-shot engines, as polymerd runs them: each run on a fresh
// machine and engine of the same shape, closed when it returns, so the
// next engine takes the closed one's arrays and ledgers (sg.Base.Close).
// Run A's kept result must not change when B runs on the storage A's
// engine handed over; A again, on a third engine, must be bit-identical
// to the first A in its result, simulated clock and access statistics;
// writing over either A's result must not reach the other's or B's; and
// Close must leave nothing on a machine's tracker.
func TestClosedEnginesDoNotShareResults(t *testing.T) {
	for name, c := range engineCases(t) {
		t.Run(name, func(t *testing.T) {
			type reading struct {
				r     any
				sim   uint64
				stats numa.Stats
			}
			oneShot := func(what string, v int) reading {
				t.Helper()
				m := testMachine()
				run, e := c(m)
				r, err := run(v)
				if err != nil {
					t.Fatalf("run %s: %v", what, err)
				}
				got := reading{r, math.Float64bits(e.SimSeconds()), e.RunStats()}
				e.Close()
				if live := m.Alloc().Current(); live != 0 {
					t.Fatalf("closing run %s's engine left %d bytes on the tracker", what, live)
				}
				return got
			}
			a := oneShot("A", 0)
			wantA := resultBits(t, a.r)
			b := oneShot("B", 1)
			wantB := resultBits(t, b.r)
			if !slices.Equal(resultBits(t, a.r), wantA) {
				t.Fatal("run B changed run A's kept result")
			}
			a2 := oneShot("A again", 0)
			if !slices.Equal(resultBits(t, a2.r), wantA) {
				t.Fatal("A on a third engine is not bit-identical to A")
			}
			if a2.sim != a.sim || a2.stats != a.stats {
				t.Fatalf("A on a third engine charged %x %+v, on the first %x %+v", a2.sim, a2.stats, a.sim, a.stats)
			}
			scribble(a2.r)
			if !slices.Equal(resultBits(t, a.r), wantA) || !slices.Equal(resultBits(t, b.r), wantB) {
				t.Fatal("the second A's result shares memory with an earlier run's")
			}
			scribble(a.r)
			if !slices.Equal(resultBits(t, b.r), wantB) {
				t.Fatal("the first A's result shares memory with B's")
			}
		})
	}
}

// simClock is the clock every engine exposes.
type simClock interface {
	SimSeconds() float64
	AddSimSeconds(s float64)
	Close()
}

// runCharge rewinds e's clock to zero and returns what run charges to it.
// A difference of two readings of a running clock would round by the
// clock's magnitude; a sum from zero is exact to compare.
func runCharge(e simClock, run func() ([]float64, error)) ([]float64, float64, error) {
	e.AddSimSeconds(-e.SimSeconds())
	r, err := run()
	return r, e.SimSeconds(), err
}

// prEngine builds one engine family's engine on m, with the PageRank run
// the tests repeat on it; label is what a run's first allocation charges.
type prEngine struct {
	label string
	build func(m *numa.Machine) (simClock, func() ([]float64, error))
}

// prEngines are the four engine families on g.
func prEngines(g *graph.Graph) map[string]prEngine {
	sgEngine := func(build func(m *numa.Machine) sg.Engine) prEngine {
		return prEngine{"pr/curr", func(m *numa.Machine) (simClock, func() ([]float64, error)) {
			e := build(m)
			return e.(simClock), func() ([]float64, error) { return PageRankE(e, 3, 0.85, nil) }
		}}
	}
	return map[string]prEngine{
		"polymer": sgEngine(func(m *numa.Machine) sg.Engine { return core.MustNew(g, m, core.DefaultOptions()) }),
		"ligra":   sgEngine(func(m *numa.Machine) sg.Engine { return ligra.MustNew(g, m, ligra.DefaultOptions()) }),
		"xstream": {"pr/curr", func(m *numa.Machine) (simClock, func() ([]float64, error)) {
			e := xstream.MustNew(g, m, xstream.DefaultOptions(), PRHints())
			return e, func() ([]float64, error) { return XSPageRankE(e, 3, 0.85, nil) }
		}},
		"galois": {"galois/data", func(m *numa.Machine) (simClock, func() ([]float64, error)) {
			e := galois.MustNew(g, m, galois.DefaultOptions())
			return e, func() ([]float64, error) { return e.PageRankE(3, 0.85, nil) }
		}},
	}
}

// TestAllocFailureOnReusedArray arms an allocation failure of the array
// the second run would take from the free list: that run fails with the
// *numa.AllocFailure a fresh allocation reports, the tracker stays
// balanced, a third run is bit-identical to the first, clock charge
// included, and Close leaves nothing behind (an array the failure took
// off the free list would be released twice).
func TestAllocFailureOnReusedArray(t *testing.T) {
	n, edges := gen.RMAT(10, 8, 3)
	g := graph.FromEdges(n, edges, false)
	for name, c := range prEngines(g) {
		t.Run(name, func(t *testing.T) {
			m := testMachine()
			e, pr := c.build(m)
			first, firstSim, err := runCharge(e, pr)
			if err != nil {
				t.Fatal(err)
			}
			live := m.Alloc().Current()
			m.Alloc().FailNext(c.label)
			_, failedSim, err := runCharge(e, func() ([]float64, error) {
				return nil, fault.Catch(func() error { _, err := pr(); return err })
			})
			var af *numa.AllocFailure
			if !errors.As(err, &af) || af.Label != c.label {
				t.Fatalf("second run: %v, want an allocation failure of %s", err, c.label)
			}
			if failedSim != 0 {
				t.Fatalf("the failed run charged %g simulated seconds", failedSim)
			}
			if got := m.Alloc().Current(); got != live {
				t.Fatalf("after the failed run the tracker holds %d bytes, %d before", got, live)
			}
			third, thirdSim, err := runCharge(e, pr)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(resultBits(t, third), resultBits(t, first)) || math.Float64bits(thirdSim) != math.Float64bits(firstSim) {
				t.Fatalf("third run (clock %x) is not bit-identical to the first (clock %x)", thirdSim, firstSim)
			}
			if got := m.Alloc().Current(); got != live {
				t.Fatalf("after the third run the tracker holds %d bytes, %d after the first", got, live)
			}
			e.Close()
			if got := m.Alloc().Current(); got != 0 {
				t.Fatalf("Close left %d bytes on the tracker", got)
			}
		})
	}
}

// TestTieredRerunsChargeAlike runs PageRank three times on one tiered
// engine: each run must charge the clock bit-identically, as untiered
// runs do. Tier demand follows the tracker, so a released array's bytes
// leave the state class and the next run fills DRAM as the last one did.
func TestTieredRerunsChargeAlike(t *testing.T) {
	n, edges := gen.RMAT(12, 16, 7)
	g := graph.FromEdges(n, edges, false)
	for name, c := range prEngines(g) {
		t.Run(name, func(t *testing.T) {
			m := testMachine()
			if err := m.SetTierConfig(numa.TierConfig{DRAMPerNode: 200_000, Policy: numa.TierHot}); err != nil {
				t.Fatal(err)
			}
			e, pr := c.build(m)
			defer e.Close()
			var deltas [3]float64
			for i := range deltas {
				var err error
				if _, deltas[i], err = runCharge(e, pr); err != nil {
					t.Fatal(err)
				}
			}
			for i := 1; i < len(deltas); i++ {
				if math.Float64bits(deltas[i]) != math.Float64bits(deltas[0]) {
					t.Fatalf("run clock deltas %v: run %d differs from run 0", deltas, i)
				}
			}
		})
	}
}

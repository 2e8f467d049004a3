package algorithms

import (
	"errors"
	"math"
	"testing"
	"time"

	"polymer/internal/core"
	"polymer/internal/engines/galois"
	"polymer/internal/engines/ligra"
	"polymer/internal/engines/xstream"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
	"polymer/internal/sg"
)

func testMachine() *numa.Machine {
	return numa.NewMachine(numa.IntelXeon80(), 2, 2)
}

// engines under test: constructors for the two scatter-gather engines.
func sgEngines(g *graph.Graph) map[string]sg.Engine {
	return map[string]sg.Engine{
		"polymer": core.MustNew(g, testMachine(), core.DefaultOptions()),
		"ligra":   ligra.MustNew(g, testMachine(), ligra.DefaultOptions()),
	}
}

func testGraphs(t *testing.T, weighted bool) map[string]*graph.Graph {
	t.Helper()
	out := make(map[string]*graph.Graph)
	for _, d := range []gen.Dataset{gen.Twitter, gen.RMat24, gen.RoadUS} {
		g, err := gen.Load(d, gen.Tiny, weighted)
		if err != nil {
			t.Fatal(err)
		}
		out[string(d)] = g
	}
	// Fixtures with special shapes.
	n, edges := gen.Star(33)
	out["star"] = graph.FromEdges(n, edges, weighted)
	n, edges = gen.Chain(17)
	out["chain"] = graph.FromEdges(n, edges, weighted)
	return out
}

func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return d == 0
	}
	return d/m <= tol
}

func TestPageRankAllEnginesMatchReference(t *testing.T) {
	for name, g := range testGraphs(t, false) {
		want := RefPageRank(g, 5, 0.85)
		for ename, e := range sgEngines(g) {
			got := PageRank(e, 5, 0.85)
			for v := range want {
				if !relClose(got[v], want[v], 1e-9) {
					t.Fatalf("%s/%s: rank[%d] = %v, want %v", ename, name, v, got[v], want[v])
				}
			}
			e.Close()
		}
		xe := xstream.MustNew(g, testMachine(), xstream.DefaultOptions(), sg.Hints{})
		got := XSPageRank(xe, 5, 0.85)
		xe.Close()
		ge := galois.MustNew(g, testMachine(), galois.DefaultOptions())
		got2 := ge.PageRank(5, 0.85)
		ge.Close()
		for v := range want {
			if !relClose(got[v], want[v], 1e-9) {
				t.Fatalf("xstream/%s: rank[%d] = %v, want %v", name, v, got[v], want[v])
			}
			if !relClose(got2[v], want[v], 1e-9) {
				t.Fatalf("galois/%s: rank[%d] = %v, want %v", name, v, got2[v], want[v])
			}
		}
	}
}

func TestSpMVAllEnginesMatchReference(t *testing.T) {
	for name, g := range testGraphs(t, true) {
		n := g.NumVertices()
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = float64(i%7) + 1
		}
		want := RefSpMV(g, 3, x0)
		for ename, e := range sgEngines(g) {
			got := must(SpMV(e, 3, x0, nil))
			for v := range want {
				if !relClose(got[v], want[v], 1e-9) {
					t.Fatalf("%s/%s: y[%d] = %v, want %v", ename, name, v, got[v], want[v])
				}
			}
			e.Close()
		}
		xe := xstream.MustNew(g, testMachine(), xstream.DefaultOptions(), sg.Hints{Weighted: true})
		got := must(XSSpMV(xe, 3, x0, nil))
		xe.Close()
		ge := galois.MustNew(g, testMachine(), galois.DefaultOptions())
		got2 := must(ge.SpMV(3, x0, nil))
		ge.Close()
		for v := range want {
			if !relClose(got[v], want[v], 1e-9) {
				t.Fatalf("xstream/%s: y[%d] = %v, want %v", name, v, got[v], want[v])
			}
			if !relClose(got2[v], want[v], 1e-9) {
				t.Fatalf("galois/%s: y[%d] = %v, want %v", name, v, got2[v], want[v])
			}
		}
	}
}

func TestBPAllEnginesMatchReference(t *testing.T) {
	for name, g := range testGraphs(t, true) {
		want := RefBP(g, 3)
		for ename, e := range sgEngines(g) {
			got := must(BP(e, 3, nil))
			for v := range want {
				if !relClose(got[v], want[v], 1e-9) {
					t.Fatalf("%s/%s: belief[%d] = %v, want %v", ename, name, v, got[v], want[v])
				}
			}
			e.Close()
		}
		xe := xstream.MustNew(g, testMachine(), xstream.DefaultOptions(), sg.Hints{Weighted: true, DataBytes: 16})
		got := must(XSBP(xe, 3, nil))
		xe.Close()
		ge := galois.MustNew(g, testMachine(), galois.DefaultOptions())
		got2 := must(ge.BP(3, nil))
		ge.Close()
		for v := range want {
			if !relClose(got[v], want[v], 1e-9) {
				t.Fatalf("xstream/%s: belief[%d]", name, v)
			}
			if !relClose(got2[v], want[v], 1e-9) {
				t.Fatalf("galois/%s: belief[%d]", name, v)
			}
		}
	}
}

func TestBFSAllEnginesMatchReference(t *testing.T) {
	for name, g := range testGraphs(t, false) {
		want := RefBFS(g, 0)
		for ename, e := range sgEngines(g) {
			got := BFS(e, 0)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s/%s: level[%d] = %d, want %d", ename, name, v, got[v], want[v])
				}
			}
			e.Close()
		}
		xe := xstream.MustNew(g, testMachine(), xstream.DefaultOptions(), sg.Hints{})
		got := XSBFS(xe, 0)
		xe.Close()
		ge := galois.MustNew(g, testMachine(), galois.DefaultOptions())
		got2 := ge.BFS(0)
		ge.Close()
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("xstream/%s: level[%d] = %d, want %d", name, v, got[v], want[v])
			}
			if got2[v] != want[v] {
				t.Fatalf("galois/%s: level[%d] = %d, want %d", name, v, got2[v], want[v])
			}
		}
	}
}

func TestCCAllEnginesMatchReference(t *testing.T) {
	for name, g := range testGraphs(t, false) {
		want := RefCC(g)
		sym := g.Symmetrized()
		for ename, e := range sgEngines(sym) {
			got := must(CC(e, nil))
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s/%s: label[%d] = %d, want %d", ename, name, v, got[v], want[v])
				}
			}
			e.Close()
		}
		xe := xstream.MustNew(sym, testMachine(), xstream.DefaultOptions(), sg.Hints{})
		got := XSCC(xe)
		xe.Close()
		ge := galois.MustNew(sym, testMachine(), galois.DefaultOptions())
		got2 := ge.CC()
		ge.Close()
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("xstream/%s: label[%d] = %d, want %d", name, v, got[v], want[v])
			}
			if got2[v] != want[v] {
				t.Fatalf("galois/%s: label[%d] = %d, want %d", name, v, got2[v], want[v])
			}
		}
	}
}

func TestSSSPAllEnginesMatchReference(t *testing.T) {
	for name, g := range testGraphs(t, true) {
		want := RefSSSP(g, 0)
		for ename, e := range sgEngines(g) {
			got := must(SSSP(e, 0, nil))
			for v := range want {
				if !relClose(got[v], want[v], 1e-9) && !(math.IsInf(got[v], 1) && math.IsInf(want[v], 1)) {
					t.Fatalf("%s/%s: dist[%d] = %v, want %v", ename, name, v, got[v], want[v])
				}
			}
			e.Close()
		}
		xe := xstream.MustNew(g, testMachine(), xstream.DefaultOptions(), sg.Hints{Weighted: true})
		got := XSSSSP(xe, 0)
		xe.Close()
		ge := galois.MustNew(g, testMachine(), galois.DefaultOptions())
		got2 := ge.SSSP(0)
		ge.Close()
		for v := range want {
			if !relClose(got[v], want[v], 1e-9) && !(math.IsInf(got[v], 1) && math.IsInf(want[v], 1)) {
				t.Fatalf("xstream/%s: dist[%d] = %v, want %v", name, v, got[v], want[v])
			}
			if !relClose(got2[v], want[v], 1e-9) && !(math.IsInf(got2[v], 1) && math.IsInf(want[v], 1)) {
				t.Fatalf("galois/%s: dist[%d] = %v, want %v", name, v, got2[v], want[v])
			}
		}
	}
}

func TestBFSFromNonZeroSource(t *testing.T) {
	g, _ := gen.Load(gen.RoadUS, gen.Tiny, false)
	src := graph.Vertex(g.NumVertices() / 2)
	want := RefBFS(g, src)
	e := core.MustNew(g, testMachine(), core.DefaultOptions())
	defer e.Close()
	got := BFS(e, src)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("level[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestPolymerModesAgree(t *testing.T) {
	// Fixed Push, fixed Pull and Auto must all produce identical PR.
	g, _ := gen.Load(gen.Twitter, gen.Tiny, false)
	want := RefPageRank(g, 4, 0.85)
	for _, mode := range []core.Mode{core.Auto, core.Push, core.Pull} {
		opt := core.DefaultOptions()
		opt.Mode = mode
		e := core.MustNew(g, testMachine(), opt)
		got := PageRank(e, 4, 0.85)
		e.Close()
		for v := range want {
			if !relClose(got[v], want[v], 1e-9) {
				t.Fatalf("mode %d: rank[%d] = %v, want %v", mode, v, got[v], want[v])
			}
		}
	}
}

func TestPolymerAblationsStillCorrect(t *testing.T) {
	// Every ablation switch must leave results unchanged (they only alter
	// layout/charging/scheduling).
	g, _ := gen.Load(gen.RMat24, gen.Tiny, false)
	want := RefBFS(g, 0)
	for _, tweak := range []func(*core.Options){
		func(o *core.Options) { o.EdgeBalanced = false },
		func(o *core.Options) { o.Adaptive = false },
		func(o *core.Options) { o.DisableAgents = true },
		func(o *core.Options) { o.DisableRolling = true },
	} {
		opt := core.DefaultOptions()
		tweak(&opt)
		e := core.MustNew(g, testMachine(), opt)
		got := BFS(e, 0)
		e.Close()
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("ablation changed BFS result at %d", v)
			}
		}
	}
}

// TestXStreamLoopsLeaveOnEngineFailure: a failed phase leaves X-Stream's
// active set as it was, so a loop that only watches the active count
// scatters from the same set forever. Every dispatch fails here; each
// traversal must come back, with the failure on the engine.
func TestXStreamLoopsLeaveOnEngineFailure(t *testing.T) {
	n, edges := gen.RMAT(8, 6, 3)
	g := graph.FromEdges(n, edges, true).Symmetrized()
	errBoom := errors.New("boom")
	for name, run := range map[string]func(e *xstream.Engine) int{
		"bfs":     func(e *xstream.Engine) int { XSBFS(e, 0); return 0 },
		"sssp":    func(e *xstream.Engine) int { XSSSSP(e, 0); return 0 },
		"cc":      func(e *xstream.Engine) int { XSCC(e); return 0 },
		"prdelta": func(e *xstream.Engine) int { _, iters := XSPageRankDelta(e, 0, 250); return iters },
	} {
		e := xstream.MustNew(g, testMachine(), xstream.DefaultOptions(), sg.Hints{Weighted: true})
		e.SetFaultHook(func(int) error { return errBoom })
		iters := make(chan int, 1) // the run may outlive the test when it hangs
		go func() { iters <- run(e) }()
		select {
		case it := <-iters:
			if !errors.Is(e.Err(), errBoom) {
				t.Errorf("%s: engine error %v, want the hook's", name, e.Err())
			}
			if it > 1 {
				t.Errorf("%s: %d iterations on a failed engine", name, it)
			}
			e.Close()
		case <-time.After(3 * time.Second):
			t.Errorf("%s: still looping 3 s after the first phase failed", name)
		}
	}
}

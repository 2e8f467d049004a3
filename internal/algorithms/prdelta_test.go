package algorithms

import (
	"math"
	"testing"

	"polymer/internal/core"
	"polymer/internal/engines/ligra"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
	"polymer/internal/sg"
)

func TestPageRankDeltaConvergesToFixedPoint(t *testing.T) {
	g, _ := gen.Load(gen.Twitter, gen.Tiny, false)
	for name, e := range map[string]sg.Engine{
		"polymer": core.MustNew(g, testMachine(), core.DefaultOptions()),
		"ligra":   ligra.MustNew(g, testMachine(), ligra.DefaultOptions()),
	} {
		ranks, iters := PageRankDelta(e, 1e-10, 200)
		e.Close()
		if iters >= 200 {
			t.Fatalf("%s: did not converge in 200 iterations", name)
		}
		// At the fixed point the ranks satisfy the PageRank equation:
		// compare against a long fixed-iteration reference run.
		want := RefPageRank(g, iters+20, 0.85)
		for v := range want {
			if math.Abs(ranks[v]-want[v]) > 1e-7 {
				t.Fatalf("%s: rank[%d] = %v, reference %v", name, v, ranks[v], want[v])
			}
		}
	}
}

func TestPageRankDeltaFrontierShrinks(t *testing.T) {
	g, _ := gen.Load(gen.Twitter, gen.Tiny, false)
	e := core.MustNew(g, testMachine(), core.DefaultOptions())
	defer e.Close()
	_, iters := PageRankDelta(e, 1e-4, 200)
	if iters >= 200 || iters < 2 {
		t.Fatalf("unexpected iteration count %d", iters)
	}
	// A loose eps must converge faster than a tight one.
	e2 := core.MustNew(g, testMachine(), core.DefaultOptions())
	defer e2.Close()
	_, itersTight := PageRankDelta(e2, 1e-12, 500)
	if itersTight <= iters {
		t.Fatalf("tight eps (%d iters) must need more than loose eps (%d)", itersTight, iters)
	}
}

func TestPageRankDeltaMaxIterCap(t *testing.T) {
	// On a long chain, deltas keep flowing for ~n rounds, so a small cap
	// binds.
	n, edges := gen.Chain(50)
	g := graph.FromEdges(n, edges, false)
	e := core.MustNew(g, testMachine(), core.DefaultOptions())
	defer e.Close()
	_, iters := PageRankDelta(e, 0, 7)
	if iters != 7 {
		t.Fatalf("maxIter cap violated: %d", iters)
	}
}

func TestPageRankDeltaUniformCycleConvergesImmediately(t *testing.T) {
	// The uniform distribution is already the fixed point of a cycle, so
	// the first round produces zero deltas.
	n, edges := gen.Cycle(32)
	g := graph.FromEdges(n, edges, false)
	e := core.MustNew(g, testMachine(), core.DefaultOptions())
	defer e.Close()
	ranks, iters := PageRankDelta(e, 1e-15, 100)
	if iters != 1 {
		t.Fatalf("cycle should converge in one round, took %d", iters)
	}
	for v := 0; v < n; v++ {
		if math.Abs(ranks[v]-1.0/float64(n)) > 1e-12 {
			t.Fatalf("cycle rank[%d] = %v", v, ranks[v])
		}
	}
}

func TestPageRankDeltaEmptyGraph(t *testing.T) {
	g := graph.FromEdges(0, nil, false)
	m := numa.NewMachine(numa.IntelXeon80(), 1, 1)
	e := core.MustNew(g, m, core.DefaultOptions())
	defer e.Close()
	ranks, iters := PageRankDelta(e, 1e-6, 10)
	if ranks != nil || iters != 0 {
		t.Fatal("empty graph must return immediately")
	}
}

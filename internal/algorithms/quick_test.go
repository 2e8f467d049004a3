package algorithms

import (
	"math"
	"math/rand"
	"testing"

	"polymer/internal/core"
	"polymer/internal/engines/galois"
	"polymer/internal/engines/ligra"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
)

// TestRandomGraphsAllEnginesAgree fuzzes the full engine stack: random
// graphs, random machine shapes and random polymer configurations must
// all agree with the sequential references on the traversal algorithms
// (whose outputs are exact, not float-accumulation-order dependent).
func TestRandomGraphsAllEnginesAgree(t *testing.T) {
	topo := numa.IntelXeon80()
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(400)
		m := rng.Intn(4 * n)
		edges := make([]graph.Edge, m)
		for i := range edges {
			edges[i] = graph.Edge{
				Src: graph.Vertex(rng.Intn(n)),
				Dst: graph.Vertex(rng.Intn(n)),
				Wt:  float32(rng.Intn(100)) + 1,
			}
		}
		g := graph.FromEdges(n, edges, true)
		src := graph.Vertex(rng.Intn(n))

		nodes := 1 + rng.Intn(4)
		cores := 1 + rng.Intn(3)
		m1 := numa.NewMachine(topo, nodes, cores)
		opt := core.DefaultOptions()
		opt.Mode = core.Mode(rng.Intn(3))
		opt.EdgeBalanced = rng.Intn(2) == 0
		opt.Adaptive = rng.Intn(2) == 0

		wantBFS := RefBFS(g, src)
		wantSSSP := RefSSSP(g, src)
		wantCC := RefCC(g)

		e := core.MustNew(g, m1, opt)
		gotBFS := BFS(e, src)
		e.Close()
		// A fresh engine per algorithm keeps data arrays independent.
		e = core.MustNew(g, numa.NewMachine(topo, nodes, cores), opt)
		gotSSSP := must(SSSP(e, src, nil))
		e.Close()
		eSym := core.MustNew(g.Symmetrized(), numa.NewMachine(topo, nodes, cores), opt)
		gotCC := must(CC(eSym, nil))
		eSym.Close()

		le := ligra.MustNew(g, numa.NewMachine(topo, nodes, cores), ligra.DefaultOptions())
		ligraBFS := BFS(le, src)
		le.Close()

		ge := galois.MustNew(g, numa.NewMachine(topo, nodes, cores), galois.DefaultOptions())
		galoisSSSP := ge.SSSP(src)
		ge.Close()

		for v := 0; v < n; v++ {
			if gotBFS[v] != wantBFS[v] {
				t.Fatalf("seed %d: polymer BFS[%d] = %d, want %d (mode=%d n=%d m=%d)",
					seed, v, gotBFS[v], wantBFS[v], opt.Mode, n, m)
			}
			if ligraBFS[v] != wantBFS[v] {
				t.Fatalf("seed %d: ligra BFS[%d] = %d, want %d", seed, v, ligraBFS[v], wantBFS[v])
			}
			if gotCC[v] != wantCC[v] {
				t.Fatalf("seed %d: polymer CC[%d] = %d, want %d", seed, v, gotCC[v], wantCC[v])
			}
			if !floatEq(gotSSSP[v], wantSSSP[v]) {
				t.Fatalf("seed %d: polymer SSSP[%d] = %v, want %v", seed, v, gotSSSP[v], wantSSSP[v])
			}
			if !floatEq(galoisSSSP[v], wantSSSP[v]) {
				t.Fatalf("seed %d: galois SSSP[%d] = %v, want %v", seed, v, galoisSSSP[v], wantSSSP[v])
			}
		}
	}
}

func floatEq(a, b float64) bool {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestSelfLoopsAndDuplicateEdges exercises degenerate inputs the R-MAT
// generator produces.
func TestSelfLoopsAndDuplicateEdges(t *testing.T) {
	edges := []graph.Edge{
		{Src: 0, Dst: 0, Wt: 5}, // self loop
		{Src: 0, Dst: 1, Wt: 2},
		{Src: 0, Dst: 1, Wt: 3}, // duplicate with different weight
		{Src: 1, Dst: 2, Wt: 1},
	}
	g := graph.FromEdges(3, edges, true)
	want := RefSSSP(g, 0)
	e := core.MustNew(g, testMachine(), core.DefaultOptions())
	defer e.Close()
	got := must(SSSP(e, 0, nil))
	for v := range want {
		if !floatEq(got[v], want[v]) {
			t.Fatalf("dist[%d] = %v, want %v", v, got[v], want[v])
		}
	}
	if got[1] != 2 {
		t.Fatalf("duplicate edges must use the lighter weight: %v", got[1])
	}
}

// TestDisconnectedSource checks every engine's handling of an isolated
// source vertex.
func TestDisconnectedSource(t *testing.T) {
	_, edges := gen.Chain(5)
	g := graph.FromEdges(7, edges, false) // vertices 5,6 isolated
	e := core.MustNew(g, testMachine(), core.DefaultOptions())
	defer e.Close()
	levels := BFS(e, 6)
	for v := 0; v < 7; v++ {
		want := int64(-1)
		if v == 6 {
			want = 0
		}
		if levels[v] != want {
			t.Fatalf("level[%d] = %d, want %d", v, levels[v], want)
		}
	}
}

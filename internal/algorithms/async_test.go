package algorithms

import (
	"math/rand"
	"testing"

	"polymer/internal/core"
	"polymer/internal/gen"
	"polymer/internal/graph"
)

func TestAsyncSSSPMatchesDijkstra(t *testing.T) {
	n, edges := gen.RoadGrid(15, 15, 9)
	g := graph.FromEdges(n, edges, true)
	e := core.MustNew(g, testMachine(), core.DefaultOptions())
	defer e.Close()
	got := AsyncSSSP(e, 0)
	want := RefSSSP(g, 0)
	for v := 0; v < n; v++ {
		if !floatEq(got[v], want[v]) {
			t.Fatalf("dist[%d] = %v, want %v", v, got[v], want[v])
		}
	}
	if e.SimSeconds() <= 0 {
		t.Fatal("async run must advance the clock")
	}
	if e.Metrics().BarrierSeconds != 0 {
		t.Fatal("asynchronous execution must not charge barrier time")
	}
}

func TestAsyncBFSMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(300)
		m := rng.Intn(5 * n)
		edges := make([]graph.Edge, m)
		for i := range edges {
			edges[i] = graph.Edge{Src: graph.Vertex(rng.Intn(n)), Dst: graph.Vertex(rng.Intn(n))}
		}
		g := graph.FromEdges(n, edges, false)
		src := graph.Vertex(rng.Intn(n))
		e := core.MustNew(g, testMachine(), core.DefaultOptions())
		got := AsyncBFS(e, src)
		e.Close()
		want := RefBFS(g, src)
		for v := 0; v < n; v++ {
			if got[v] != want[v] {
				t.Fatalf("seed %d: level[%d] = %d, want %d", seed, v, got[v], want[v])
			}
		}
	}
}

func TestAsyncIsolatedSeedTerminates(t *testing.T) {
	g := graph.FromEdges(5, []graph.Edge{{Src: 1, Dst: 2}}, false)
	e := core.MustNew(g, testMachine(), core.DefaultOptions())
	defer e.Close()
	got := AsyncBFS(e, 0) // vertex 0 has no out-edges
	if got[0] != 0 {
		t.Fatalf("seed level = %d", got[0])
	}
	for v := 1; v < 5; v++ {
		if got[v] != -1 {
			t.Fatalf("level[%d] = %d, want -1", v, got[v])
		}
	}
}

func TestAsyncVersusSyncSimTime(t *testing.T) {
	// On a high-diameter graph the synchronous engine pays hundreds of
	// barrier crossings that the asynchronous executor avoids entirely.
	n, edges := gen.RoadGrid(60, 60, 3)
	g := graph.FromEdges(n, edges, true)

	eSync := core.MustNew(g, testMachine(), core.DefaultOptions())
	must(SSSP(eSync, 0, nil))
	syncBarrier := eSync.Metrics().BarrierSeconds
	eSync.Close()

	eAsync := core.MustNew(g, testMachine(), core.DefaultOptions())
	AsyncSSSP(eAsync, 0)
	asyncBarrier := eAsync.Metrics().BarrierSeconds
	eAsync.Close()

	if syncBarrier <= 0 {
		t.Fatal("synchronous run must charge barriers")
	}
	if asyncBarrier != 0 {
		t.Fatal("asynchronous run must charge none")
	}
}

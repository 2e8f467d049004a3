package plan

import (
	"sync"
	"testing"

	"polymer/internal/gen"
	"polymer/internal/graph"
)

func adversarialGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	out := make(map[string]*graph.Graph)
	for _, a := range gen.Adversarial() {
		out[a.Name] = graph.FromEdges(a.N, a.Edges, false)
	}
	n, edges := gen.RMAT(10, 8, 42)
	out["rmat10"] = graph.FromEdges(n, edges, false)
	n, edges = gen.RoadGrid(32, 32, 7)
	out["road32"] = graph.FromEdges(n, edges, false)
	return out
}

// Profiles must be a pure function of the graph: identical across
// repeated calls and across concurrent calls on the same graph.
func TestProfileDeterministic(t *testing.T) {
	for name, g := range adversarialGraphs(t) {
		want := Profile(g)
		for i := 0; i < 3; i++ {
			if got := Profile(g); got != want {
				t.Fatalf("%s: profile %d differs: %+v vs %+v", name, i, got, want)
			}
		}
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := Profile(g); got != want {
					t.Errorf("%s: concurrent profile differs", name)
				}
			}()
		}
		wg.Wait()
	}
}

// A graph rebuilt from the same edge list must profile identically —
// the profile survives checkpoint/rollback cycles, which reconstruct
// the CSR from persisted edges.
func TestProfileSurvivesRebuild(t *testing.T) {
	n, edges := gen.Powerlaw(2000, 8, 2.1, 99)
	a := graph.FromEdges(n, edges, false)
	b := graph.FromEdges(n, append([]graph.Edge(nil), edges...), false)
	if pa, pb := Profile(a), Profile(b); pa != pb {
		t.Fatalf("rebuilt graph profiles differ: %+v vs %+v", pa, pb)
	}
}

// Profiling must never mutate the graph: it equals a rebuild of its edge
// list afterwards, row for row.
func TestProfileDoesNotMutate(t *testing.T) {
	n, edges := gen.RMAT(9, 8, 3)
	gen.AddRandomWeights(edges, 3)
	g := graph.FromEdges(n, edges, true)
	_ = Profile(g)
	if !graph.Equal(g, graph.FromEdges(n, edges, true)) {
		t.Fatal("Profile mutated the graph")
	}
}

func TestProfileShapes(t *testing.T) {
	// A star graph has one huge hub: skew must be enormous, diameter tiny.
	n, edges := gen.Star(5000)
	star := Profile(graph.FromEdges(n, edges, false))
	if star.MaxOutDegree != 4999 {
		t.Fatalf("star hub degree = %d", star.MaxOutDegree)
	}
	if star.Skew < 100 {
		t.Fatalf("star skew = %f, want large", star.Skew)
	}
	if star.DiameterEst > 2 {
		t.Fatalf("star diameter = %d, want <= 2", star.DiameterEst)
	}

	// A chain is the opposite: no skew, huge diameter.
	n, edges = gen.Chain(4000)
	chain := Profile(graph.FromEdges(n, edges, false))
	if chain.DiameterEst < 100 {
		t.Fatalf("chain diameter estimate = %d, want deep", chain.DiameterEst)
	}
	if chain.Skew > 3 {
		t.Fatalf("chain skew = %f, want ~1", chain.Skew)
	}
	// Chains are maximally one-directional.
	if chain.Directedness < 0.9 {
		t.Fatalf("chain directedness = %f", chain.Directedness)
	}

	// A cycle made symmetric has reciprocal edges everywhere.
	n, edges = gen.Cycle(1000)
	sym := graph.FromEdges(n, edges, false).Symmetrized()
	if d := Profile(sym).Directedness; d > 0.1 {
		t.Fatalf("symmetric cycle directedness = %f, want ~0", d)
	}

	// Empty graph: all zeros, no panics.
	empty := Profile(graph.FromEdges(0, nil, false))
	if empty.Vertices != 0 || empty.Edges != 0 || empty.DiameterEst != 0 {
		t.Fatalf("empty profile: %+v", empty)
	}
}

func TestSketchQuantiles(t *testing.T) {
	var s Sketch
	for i := int64(1); i <= 1000; i++ {
		s.Add(i)
	}
	if s.Count() != 1000 {
		t.Fatalf("count = %d", s.Count())
	}
	if s.Max() != 1000 {
		t.Fatalf("max = %d", s.Max())
	}
	if m := s.Mean(); m < 500 || m > 501 {
		t.Fatalf("mean = %f", m)
	}
	// Log2 buckets are 2x-accurate: the median of 1..1000 must land
	// within [250, 1000].
	if q := s.Quantile(0.5); q < 250 || q > 1000 {
		t.Fatalf("p50 = %f", q)
	}
	if q := s.Quantile(1); q != 1000 {
		t.Fatalf("p100 = %f, want exactly max", q)
	}
	if q := s.Quantile(0); q > 2 {
		t.Fatalf("p0 = %f", q)
	}
	var zeros Sketch
	for i := 0; i < 10; i++ {
		zeros.Add(0)
	}
	if q := zeros.Quantile(0.9); q != 0 {
		t.Fatalf("all-zero p90 = %f", q)
	}
	var empty Sketch
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Fatal("empty sketch must be all-zero")
	}
}

package graph

import (
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
	"weak"
)

// sample graph from the paper's Figure 1 (vertices renumbered 0-based):
// out-edges: 1->{2,3}, 2->{3,5}, 3->{2,5,6}, 4->{1,3,5}, 5->{1,2,3,6}, 6->{2}
// (paper numbering). We subtract one.
func paperSample() *Graph {
	edges := []Edge{
		{0, 1, 0}, {0, 2, 0},
		{1, 2, 0}, {1, 4, 0},
		{2, 1, 0}, {2, 4, 0}, {2, 5, 0},
		{3, 0, 0}, {3, 2, 0}, {3, 4, 0},
		{4, 0, 0}, {4, 1, 0}, {4, 2, 0}, {4, 5, 0},
		{5, 1, 0},
	}
	return FromEdges(6, edges, false)
}

func TestFromEdgesCounts(t *testing.T) {
	g := paperSample()
	if g.NumVertices() != 6 || g.NumEdges() != 15 {
		t.Fatalf("got %v", g)
	}
	if g.OutDegree(4) != 4 || g.InDegree(2) != 4 {
		t.Fatalf("degrees wrong: out(4)=%d in(2)=%d", g.OutDegree(4), g.InDegree(2))
	}
}

func TestInOutConsistency(t *testing.T) {
	g := paperSample()
	// Every out-edge must appear as an in-edge and vice versa.
	type pair struct{ s, d Vertex }
	out := make(map[pair]int)
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.OutNeighbors(Vertex(v)) {
			out[pair{Vertex(v), u}]++
		}
	}
	in := make(map[pair]int)
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.InNeighbors(Vertex(v)) {
			in[pair{u, Vertex(v)}]++
		}
	}
	if len(out) != len(in) {
		t.Fatalf("edge sets differ: %d vs %d", len(out), len(in))
	}
	for p, c := range out {
		if in[p] != c {
			t.Fatalf("edge %v count mismatch", p)
		}
	}
}

func TestDegreeSumsEqualEdges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		m := rng.Intn(200)
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{Vertex(rng.Intn(n)), Vertex(rng.Intn(n)), rng.Float32()}
		}
		g := FromEdges(n, edges, true)
		var outSum, inSum int64
		for v := 0; v < n; v++ {
			outSum += g.OutDegree(Vertex(v))
			inSum += g.InDegree(Vertex(v))
		}
		return outSum == int64(m) && inSum == int64(m) && g.NumEdges() == int64(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightsAligned(t *testing.T) {
	edges := []Edge{{0, 1, 1.5}, {0, 2, 2.5}, {1, 2, 3.5}}
	g := FromEdges(3, edges, true)
	if !g.Weighted() {
		t.Fatal("graph should be weighted")
	}
	nbrs, wts := g.OutNeighbors(0), g.OutWeights(0)
	if len(nbrs) != 2 || len(wts) != 2 {
		t.Fatalf("lens: %d %d", len(nbrs), len(wts))
	}
	for i, u := range nbrs {
		var want float32
		switch u {
		case 1:
			want = 1.5
		case 2:
			want = 2.5
		}
		if wts[i] != want {
			t.Fatalf("weight of 0->%d = %v, want %v", u, wts[i], want)
		}
	}
	// In-weights must carry the same values.
	inNbrs, inWts := g.InNeighbors(2), g.InWeights(2)
	for i, u := range inNbrs {
		var want float32
		switch u {
		case 0:
			want = 2.5
		case 1:
			want = 3.5
		}
		if inWts[i] != want {
			t.Fatalf("in-weight of %d->2 = %v, want %v", u, inWts[i], want)
		}
	}
}

func TestUnweightedHasNilWeights(t *testing.T) {
	g := paperSample()
	if g.Weighted() || g.OutWeights(0) != nil || g.InWeights(0) != nil {
		t.Fatal("unweighted graph must not carry weights")
	}
}

func TestFromEdgesPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range edge")
		}
	}()
	FromEdges(2, []Edge{{0, 5, 0}}, false)
}

func TestSymmetrize(t *testing.T) {
	g := Symmetrize(3, []Edge{{0, 1, 1}, {1, 2, 2}}, true)
	if g.NumEdges() != 4 {
		t.Fatalf("symmetrized edges = %d, want 4", g.NumEdges())
	}
	if g.OutDegree(1) != 2 || g.InDegree(1) != 2 {
		t.Fatal("vertex 1 must have degree 2 both ways")
	}
}

func TestMaxOutDegree(t *testing.T) {
	g := paperSample()
	if got := g.MaxOutDegree(); got != 4 {
		t.Fatalf("MaxOutDegree = %d, want 4", got)
	}
}

// TestInvOutDegreesIsBuiltOnce: concurrent first callers (engines serving
// requests over one cached graph) all get the one array, holding 1/outdeg
// and 0 for a sink.
func TestInvOutDegreesIsBuiltOnce(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1, 0}, {0, 2, 0}, {0, 3, 0}, {0, 0, 0}, {1, 2, 0}, {2, 2, 0}, {2, 0, 0}}, false)
	got := make(chan []float64, 8)
	for i := 0; i < cap(got); i++ {
		go func() { got <- g.InvOutDegrees() }()
	}
	first := g.InvOutDegrees()
	for i := 0; i < cap(got); i++ {
		if inv := <-got; &inv[0] != &first[0] {
			t.Fatal("two callers got two arrays")
		}
	}
	for v, want := range []float64{0.25, 1, 0.5, 0} {
		if first[v] != want {
			t.Fatalf("InvOutDegrees()[%d] = %v, want %v", v, first[v], want)
		}
	}
	if len(FromEdges(0, nil, false).InvOutDegrees()) != 0 {
		t.Fatal("the empty graph has no degrees")
	}
}

// TestDerivedIsBuiltOnceAndHeldWeakly: concurrent callers on a graph and
// its Unweighted view get one build per key, made from the weighted root;
// once every caller has dropped it, a GC frees it and the next call builds
// again.
func TestDerivedIsBuiltOnceAndHeldWeakly(t *testing.T) {
	w := FromEdges(3, []Edge{{0, 1, 2}, {1, 2, 3}, {2, 0, 4}}, true)
	var builds atomic.Int32
	build := func(root *Graph) *[]float32 {
		builds.Add(1)
		if root != w {
			t.Error("build did not get the root graph")
		}
		wts := slices.Clone(root.OutWts)
		return &wts
	}
	got := make(chan *[]float32, 8)
	for i := 0; i < cap(got); i++ {
		g := w
		if i%2 == 1 {
			g = w.Unweighted()
		}
		go func() { got <- Derived(g, "wts", build) }()
	}
	first := Derived(w.Unweighted(), "wts", build)
	for i := 0; i < cap(got); i++ {
		if v := <-got; v != first {
			t.Fatal("two callers got two builds")
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for one key, want 1", n)
	}
	if Derived(w, "other", build) == first || builds.Load() != 2 {
		t.Fatal("a second key shared the first key's build")
	}
	wp := weak.Make(first)
	first = nil
	runtime.GC()
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("the graph kept a derived value alive")
	}
	if Derived(w, "wts", build); builds.Load() != 3 {
		t.Fatalf("%d builds, want a rebuild after the value was freed", builds.Load())
	}
}

func TestEmptyGraph(t *testing.T) {
	g := FromEdges(0, nil, false)
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty graph mis-built")
	}
	g = FromEdges(5, nil, false)
	for v := 0; v < 5; v++ {
		if g.OutDegree(Vertex(v)) != 0 || len(g.OutNeighbors(Vertex(v))) != 0 {
			t.Fatal("isolated vertices must have zero degree")
		}
	}
}

func TestTopologyBytesPositive(t *testing.T) {
	g := paperSample()
	if g.TopologyBytes() <= 0 {
		t.Fatal("TopologyBytes must be positive")
	}
	// weighted graph is strictly larger
	gw := FromEdges(6, []Edge{{0, 1, 1}}, true)
	gu := FromEdges(6, []Edge{{0, 1, 1}}, false)
	if gw.TopologyBytes() <= gu.TopologyBytes() {
		t.Fatal("weighted topology must be larger")
	}
}

func TestStringer(t *testing.T) {
	g := paperSample()
	if got := g.String(); got != "graph{|V|=6 |E|=15}" {
		t.Fatalf("String() = %q", got)
	}
}

func TestSymmetrizedPreservesWeights(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1, 2.5}, {2, 3, 7}}, true)
	s := g.Symmetrized()
	if s.NumEdges() != 4 {
		t.Fatalf("symmetrized edges = %d", s.NumEdges())
	}
	// Both directions must carry the original weight.
	found := 0
	for _, u := range s.OutNeighbors(1) {
		if u == 0 {
			found++
			if s.OutWeights(1)[0] != 2.5 {
				t.Fatalf("reverse weight = %v", s.OutWeights(1)[0])
			}
		}
	}
	if found != 1 {
		t.Fatal("reverse edge missing")
	}
	if s.InDegree(2) != 1 || s.OutDegree(2) != 1 {
		t.Fatal("degrees must symmetrize")
	}
}

func TestSymmetrizedUnweighted(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1, 0}}, false)
	s := g.Symmetrized()
	if s.Weighted() || s.NumEdges() != 2 {
		t.Fatalf("unweighted symmetrize: %v", s)
	}
}

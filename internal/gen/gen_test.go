package gen

import (
	"sort"
	"testing"
	"testing/quick"

	"polymer/internal/graph"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	if NewRNG(42).Uint64() == c.Uint64() {
		t.Fatal("different seeds should differ")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 20; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("only %d distinct values out of 10", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	r.Intn(0)
}

func TestRMATProperties(t *testing.T) {
	n, edges := RMAT(10, 16, 1)
	if n != 1024 {
		t.Fatalf("n = %d, want 1024", n)
	}
	if len(edges) != 16*1024 {
		t.Fatalf("m = %d, want %d", len(edges), 16*1024)
	}
	g := graph.FromEdges(n, edges, false)
	// R-MAT graphs are heavily skewed: the max degree should far exceed
	// the average degree of 16.
	if g.MaxOutDegree() < 64 {
		t.Fatalf("R-MAT max degree %d suspiciously low", g.MaxOutDegree())
	}
	// Determinism.
	_, edges2 := RMAT(10, 16, 1)
	for i := range edges {
		if edges[i] != edges2[i] {
			t.Fatal("RMAT must be deterministic for a fixed seed")
		}
	}
}

func TestPowerlawDegreeDistribution(t *testing.T) {
	n, edges := Powerlaw(20000, 10, 2.0, 3)
	g := graph.FromEdges(n, edges, false)
	avg := float64(len(edges)) / float64(n)
	if avg < 7 || avg > 13 {
		t.Fatalf("average degree %.2f, want ~10", avg)
	}
	// Skew check: top 1% of vertices should hold a disproportionate share
	// of edges (>10% for alpha=2).
	degs := make([]int64, n)
	for v := 0; v < n; v++ {
		degs[v] = g.OutDegree(graph.Vertex(v))
	}
	sort.Slice(degs, func(i, j int) bool { return degs[i] > degs[j] })
	var top int64
	for _, d := range degs[:n/100] {
		top += d
	}
	if share := float64(top) / float64(len(edges)); share < 0.10 {
		t.Fatalf("top-1%% share %.3f, want >= 0.10 (distribution not skewed)", share)
	}
}

func TestPowerlawNoSelfLoops(t *testing.T) {
	_, edges := Powerlaw(500, 8, 2.0, 9)
	for _, e := range edges {
		if e.Src == e.Dst {
			t.Fatal("powerlaw generator must not emit self-loops")
		}
	}
}

func TestRoadGridDiameterAndSymmetry(t *testing.T) {
	n, edges := RoadGrid(20, 20, 5)
	if n != 400 {
		t.Fatalf("n = %d", n)
	}
	g := graph.FromEdges(n, edges, true)
	// Undirected: in-degree equals out-degree everywhere.
	for v := 0; v < n; v++ {
		if g.InDegree(graph.Vertex(v)) != g.OutDegree(graph.Vertex(v)) {
			t.Fatalf("vertex %d degree asymmetric", v)
		}
	}
	// BFS from corner 0: eccentricity must be ~rows+cols (high diameter).
	dist := bfsDist(g, 0)
	max := 0
	for _, d := range dist {
		if d > max {
			max = d
		}
	}
	if max < 20 {
		t.Fatalf("grid eccentricity %d too small for a road-network stand-in", max)
	}
	// Connected.
	for v, d := range dist {
		if d < 0 {
			t.Fatalf("vertex %d unreachable", v)
		}
	}
	// Positive weights in (0,100].
	for _, e := range edges {
		if e.Wt <= 0 || e.Wt > 100 {
			t.Fatalf("weight %v out of (0,100]", e.Wt)
		}
	}
}

func bfsDist(g *graph.Graph, src graph.Vertex) []int {
	dist := make([]int, g.NumVertices())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []graph.Vertex{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.OutNeighbors(v) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

func TestUniform(t *testing.T) {
	n, edges := Uniform(100, 1000, 11)
	if n != 100 || len(edges) != 1000 {
		t.Fatal("uniform size wrong")
	}
	for _, e := range edges {
		if int(e.Src) >= n || int(e.Dst) >= n {
			t.Fatal("edge endpoint out of range")
		}
	}
}

func TestAddRandomWeights(t *testing.T) {
	_, edges := Chain(50)
	AddRandomWeights(edges, 1)
	for _, e := range edges {
		if e.Wt <= 0 || e.Wt > 100 {
			t.Fatalf("weight %v out of (0,100]", e.Wt)
		}
	}
}

func TestFixtures(t *testing.T) {
	n, edges := Chain(5)
	if n != 5 || len(edges) != 4 {
		t.Fatal("chain wrong")
	}
	n, edges = Star(6)
	if n != 6 || len(edges) != 5 {
		t.Fatal("star wrong")
	}
	for _, e := range edges {
		if e.Src != 0 {
			t.Fatal("star edges must originate at 0")
		}
	}
	n, edges = Cycle(4)
	if n != 4 || len(edges) != 4 {
		t.Fatal("cycle wrong")
	}
	g := graph.FromEdges(n, edges, false)
	for v := 0; v < 4; v++ {
		if g.OutDegree(graph.Vertex(v)) != 1 || g.InDegree(graph.Vertex(v)) != 1 {
			t.Fatal("cycle degrees must all be 1")
		}
	}
}

func TestZipfSampleBounds(t *testing.T) {
	rng := NewRNG(2)
	for i := 0; i < 1000; i++ {
		v := zipfSample(rng, 2.0, 100)
		if v < 1 || v > 100 {
			t.Fatalf("zipf sample %v out of [1,100]", v)
		}
	}
}

func TestLoadAllDatasets(t *testing.T) {
	for _, d := range Datasets() {
		g, err := Load(d, Tiny, false)
		if err != nil {
			t.Fatalf("Load(%s): %v", d, err)
		}
		if g.NumVertices() == 0 || g.NumEdges() == 0 {
			t.Fatalf("%s: empty graph", d)
		}
		if d == RoadUS && !g.Weighted() {
			t.Fatal("roadUS must always be weighted")
		}
	}
	if _, err := Load("nope", Tiny, false); err == nil {
		t.Fatal("unknown dataset must error")
	}
}

func TestLoadWeightedRequest(t *testing.T) {
	g, err := Load(Twitter, Tiny, true)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() {
		t.Fatal("weighted load must produce weights")
	}
}

// TestLoadWeightingKeepsTopology: a weighted load differs from an
// unweighted one only in its weight arrays — what lets the serving layer
// hand unweighted algorithms graph.Unweighted of a weighted snapshot.
func TestLoadWeightingKeepsTopology(t *testing.T) {
	for _, d := range Datasets() {
		plain, _ := Load(d, Tiny, false)
		w, _ := Load(d, Tiny, true)
		if !w.Weighted() || plain.Weighted() != AlwaysWeighted(d) {
			t.Fatalf("%s: weighted load %v, plain load %v", d, w, plain)
		}
		if !graph.Equal(w.Unweighted(), plain.Unweighted()) {
			t.Fatalf("%s: weighting the dataset changed its topology", d)
		}
	}
}

func TestLoadDeterministic(t *testing.T) {
	a, _ := Load(RMat24, Tiny, false)
	b, _ := Load(RMat24, Tiny, false)
	if a.NumEdges() != b.NumEdges() || a.NumVertices() != b.NumVertices() {
		t.Fatal("Load must be deterministic")
	}
	for v := 0; v < a.NumVertices(); v++ {
		na, nb := a.OutNeighbors(graph.Vertex(v)), b.OutNeighbors(graph.Vertex(v))
		if len(na) != len(nb) {
			t.Fatal("Load must be deterministic")
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatal("Load must be deterministic")
			}
		}
	}
}

func TestDatasetScalesMonotone(t *testing.T) {
	for _, d := range []Dataset{Twitter, RoadUS} {
		tiny, _ := Load(d, Tiny, false)
		small, _ := Load(d, Small, false)
		if !(tiny.NumEdges() < small.NumEdges()) {
			t.Fatalf("%s: scales must grow (tiny %d vs small %d)", d, tiny.NumEdges(), small.NumEdges())
		}
	}
}

package gen

import (
	"math"
	"sort"

	"polymer/internal/graph"
)

// RMAT generates an R-MAT graph with 2^scale vertices and edgeFactor
// edges per vertex, using the Graph500 partition probabilities
// (a,b,c,d) = (0.57, 0.19, 0.19, 0.05) as the paper does for rMat24/rMat27.
//
// Each level draws one Uint64 and picks the quadrant by comparing
// k = Uint64()>>11 with the cumulative probabilities scaled by 2^53. The
// float draw Float64() is exactly k/2^53, and each cumulative probability
// (as a float64) lies in [0.5, 1), so scaled by 2^53 it is an exact
// integer (the constant conversions to uint64 would not compile
// otherwise) and Float64() < p exactly when k < p·2^53: the graph is the
// one a chain of float compares picks, bit for bit, without its
// mispredicted branches.
func RMAT(scale int, edgeFactor int, seed uint64) (int, []graph.Edge) {
	const a, b, c = 0.57, 0.19, 0.19
	const (
		ta   = uint64(float64(a) * (1 << 53))
		tab  = uint64(float64(a+b) * (1 << 53))
		tabc = uint64(float64(a+b+c) * (1 << 53))
	)
	n := 1 << scale
	m := n * edgeFactor
	rng := NewRNG(seed)
	edges := make([]graph.Edge, m)
	for i := range edges {
		var src, dst uint64
		for range scale {
			k := rng.Uint64() >> 11
			// (t-1-k)>>63 is 1 when k >= t, else 0 (k < 2^53 and t >= 1).
			// Quadrant a sets no bit, b dst, c src and d both.
			s := (tab - 1 - k) >> 63
			d := (ta-1-k)>>63 ^ s ^ (tabc-1-k)>>63
			src, dst = src<<1|s, dst<<1|d
		}
		edges[i] = graph.Edge{Src: graph.Vertex(src), Dst: graph.Vertex(dst)}
	}
	return n, edges
}

// Powerlaw generates a directed graph whose out-degrees follow a Zipf
// distribution with the given power-law constant alpha, as produced by the
// PowerGraph tools the paper uses ("randomly sample the degree of each
// vertex from a Zipf distribution and then add edges"). The realised edge
// count is approximately n * avgDegree.
func Powerlaw(n int, avgDegree float64, alpha float64, seed uint64) (int, []graph.Edge) {
	if n <= 1 {
		panic("gen: Powerlaw needs n > 1")
	}
	rng := NewRNG(seed)
	// Sample raw Zipf ranks, then rescale so the mean matches avgDegree.
	// The tail is capped at n/64 so the max degree stays small relative to
	// a per-socket partition, matching the ratio at the paper's scale
	// (twitter's max degree is a tiny fraction of |E|/8).
	maxDeg := n / 64
	if maxDeg < int(avgDegree)+1 {
		maxDeg = int(avgDegree) + 1
	}
	if maxDeg > n-1 {
		maxDeg = n - 1
	}
	raw := make([]float64, n)
	var sum float64
	for v := range raw {
		raw[v] = zipfSample(rng, alpha, maxDeg)
		sum += raw[v]
	}
	scale := avgDegree * float64(n) / sum
	edges := make([]graph.Edge, 0, int(avgDegree*float64(n))+n)
	for v := 0; v < n; v++ {
		deg := int(raw[v]*scale + rng.Float64()) // stochastic rounding
		if deg > maxDeg {
			deg = maxDeg
		}
		for k := 0; k < deg; k++ {
			u := rng.Intn(n - 1)
			if u >= v {
				u++ // avoid self-loop
			}
			edges = append(edges, graph.Edge{Src: graph.Vertex(v), Dst: graph.Vertex(u)})
		}
	}
	return n, edges
}

// zipfSample draws from P(k) proportional to k^-alpha on [1, max] by
// inverse-CDF approximation (continuous Pareto truncated to the range).
func zipfSample(rng *RNG, alpha float64, max int) float64 {
	// For alpha != 1: inverse of the truncated Pareto CDF.
	u := rng.Float64()
	a1 := 1 - alpha
	hi := math.Pow(float64(max), a1)
	x := math.Pow(u*(hi-1)+1, 1/a1)
	if x < 1 {
		x = 1
	}
	if x > float64(max) {
		x = float64(max)
	}
	return x
}

// TwitterLike generates a scaled stand-in for the twitter follower graph:
// follower counts (in-degrees) follow a Zipf distribution with constant
// near 2.0 and are correlated with vertex id — early accounts in the
// crawl order have the most followers, which is what makes equal-vertex
// partitions badly edge-imbalanced in the paper's Figure 11(a). Density
// matches the follower graph (|E|/|V| around 35).
func TwitterLike(n int, seed uint64) (int, []graph.Edge) {
	if n <= 1 {
		panic("gen: TwitterLike needs n > 1")
	}
	rng := NewRNG(seed)
	const avgDegree = 35.0
	maxDeg := n / 16
	if maxDeg < 64 {
		maxDeg = 64
	}
	raw := make([]float64, n)
	var sum float64
	for v := range raw {
		raw[v] = zipfSample(rng, 2.0, maxDeg)
		sum += raw[v]
	}
	// Crawl-order correlation: the largest follower counts go to the
	// smallest vertex ids.
	sort.Sort(sort.Reverse(sort.Float64Slice(raw)))
	scale := avgDegree * float64(n) / sum
	edges := make([]graph.Edge, 0, int(avgDegree*float64(n))+n)
	for v := 0; v < n; v++ {
		deg := int(raw[v]*scale + rng.Float64())
		if deg > n-1 {
			deg = n - 1
		}
		for k := 0; k < deg; k++ {
			u := rng.Intn(n - 1)
			if u >= v {
				u++
			}
			// u follows v: the edge points at the popular account.
			edges = append(edges, graph.Edge{Src: graph.Vertex(u), Dst: graph.Vertex(v)})
		}
	}
	return n, edges
}

// RoadGrid generates a high-diameter road-network stand-in: a rows x cols
// grid where each vertex connects to its right and down neighbours (both
// directions), with a small fraction of diagonal shortcuts mimicking
// highway links. Its diameter is ~(rows+cols), reproducing the extremely
// slow convergence the paper reports for roadUS (e.g. 6237 BFS
// iterations). Edge weights are uniform in (0, 100].
func RoadGrid(rows, cols int, seed uint64) (int, []graph.Edge) {
	rng := NewRNG(seed)
	n := rows * cols
	id := func(r, c int) graph.Vertex { return graph.Vertex(r*cols + c) }
	edges := make([]graph.Edge, 0, 4*n)
	addBoth := func(a, b graph.Vertex) {
		w := float32(rng.Float64()*99) + 1
		edges = append(edges, graph.Edge{Src: a, Dst: b, Wt: w}, graph.Edge{Src: b, Dst: a, Wt: w})
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				addBoth(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				addBoth(id(r, c), id(r+1, c))
			}
			if r+1 < rows && c+1 < cols && rng.Float64() < 0.05 {
				addBoth(id(r, c), id(r+1, c+1))
			}
		}
	}
	return n, edges
}

// Uniform generates m edges with independently uniform endpoints.
func Uniform(n, m int, seed uint64) (int, []graph.Edge) {
	rng := NewRNG(seed)
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.Vertex(rng.Intn(n)), Dst: graph.Vertex(rng.Intn(n))}
	}
	return n, edges
}

// AddRandomWeights assigns each edge a uniform weight in (0, 100],
// matching the paper's weighting of inputs for SpMV and SSSP.
func AddRandomWeights(edges []graph.Edge, seed uint64) {
	rng := NewRNG(seed)
	for i := range edges {
		edges[i].Wt = float32(rng.Float64()*99) + 1
	}
}

// Chain returns a directed path 0 -> 1 -> ... -> n-1.
func Chain(n int) (int, []graph.Edge) {
	edges := make([]graph.Edge, 0, n-1)
	for v := 0; v+1 < n; v++ {
		edges = append(edges, graph.Edge{Src: graph.Vertex(v), Dst: graph.Vertex(v + 1)})
	}
	return n, edges
}

// Star returns edges from vertex 0 to all others.
func Star(n int) (int, []graph.Edge) {
	edges := make([]graph.Edge, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: graph.Vertex(v)})
	}
	return n, edges
}

// Cycle returns the directed n-cycle.
func Cycle(n int) (int, []graph.Edge) {
	edges := make([]graph.Edge, n)
	for v := 0; v < n; v++ {
		edges[v] = graph.Edge{Src: graph.Vertex(v), Dst: graph.Vertex((v + 1) % n)}
	}
	return n, edges
}

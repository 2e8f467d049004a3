// The profiler: one deterministic feature vector per loaded graph,
// computed host-side from the immutable CSR. Profiling reads the graph
// and nothing else — it never mutates it, never builds a simulated
// machine and never charges a sim ledger (the property tests assert
// exactly that), so a profiled run is bit-identical to an unprofiled one.

package plan

import (
	"fmt"
	"slices"

	"polymer/internal/graph"
	"polymer/internal/partition"
)

// Features is the deterministic profile of one graph. Every field is a
// pure function of the CSR, so repeated profiles — across goroutines,
// checkpoints and rollbacks — are identical, and the struct is
// comparable, which lets the planner key its decision cache on the exact
// feature vector without allocating.
type Features struct {
	// Vertices and Edges are the graph dimensions.
	Vertices int64
	Edges    int64
	// Density is edges per vertex (0 for an empty graph).
	Density float64
	// Weighted reports whether the CSR carries edge weights.
	Weighted bool
	// MaxOutDegree, DegP50, DegP90 and DegP99 summarise the out-degree
	// distribution via the streaming log2-bucket sketch.
	MaxOutDegree int64
	DegP50       float64
	DegP90       float64
	DegP99       float64
	// Skew is MaxOutDegree over the mean degree (1 for regular graphs,
	// large for power-law hubs; 0 for an edgeless graph).
	Skew float64
	// Directedness estimates the fraction of edges without a reciprocal
	// edge, from a seeded deterministic edge sample: 0 for symmetric
	// graphs, approaching 1 for DAG-like ones.
	Directedness float64
	// DiameterEst is a seeded-sample eccentricity estimate in BFS levels
	// (the dominant superstep count for traversals). For a disconnected
	// graph it measures the sampled sources' components.
	DiameterEst int
	// Locality is the share of sampled edges within one eighth of the id
	// range, beyond the 1/8 of random endpoints: near 1 for a road grid.
	Locality float64
	// InSkew is the largest of the eight ranges that split the in-edges
	// evenly (partition.EdgeBalanced), in vertices, over n/8.
	InSkew float64
}

// String renders the profile for -plan output.
func (f Features) String() string {
	return fmt.Sprintf("n=%d m=%d density=%.2f skew=%.1f p50=%.0f p90=%.0f p99=%.0f dir=%.2f diam~%d loc=%.2f inskew=%.1f",
		f.Vertices, f.Edges, f.Density, f.Skew, f.DegP50, f.DegP90, f.DegP99, f.Directedness, f.DiameterEst, f.Locality, f.InSkew)
}

// profileSeeds is how many BFS sources the diameter estimate samples and
// profileEdgeSamples how many edges the directedness and locality
// estimates check.
// Both are fixed so the profile cost is O(seeds*(n+m)) and deterministic.
const (
	profileSeeds       = 4
	profileEdgeSamples = 256
	// hubScanCap bounds the reciprocal-edge scan: a destination with more
	// out-neighbors than this counts as non-reciprocal without scanning
	// (deterministic, and hubs on skewed graphs are overwhelmingly
	// one-directional in our corpora).
	hubScanCap = 4096
)

// splitmix64 is the repo's standard deterministic seeding finalizer.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Profile extracts the feature vector of g. It is read-only and
// deterministic: same graph, same features, on every call and under any
// scheduling.
func Profile(g *graph.Graph) Features {
	n := int64(g.NumVertices())
	m := g.NumEdges()
	f := Features{Vertices: n, Edges: m, Weighted: g.Weighted()}
	if n == 0 {
		return f
	}
	f.Density = float64(m) / float64(n)

	var sk Sketch
	for v := graph.Vertex(0); int64(v) < n; v++ {
		sk.Add(g.OutDegree(v))
	}
	f.MaxOutDegree = sk.Max()
	f.DegP50 = sk.Quantile(0.50)
	f.DegP90 = sk.Quantile(0.90)
	f.DegP99 = sk.Quantile(0.99)
	if mean := sk.Mean(); mean > 0 {
		f.Skew = float64(f.MaxOutDegree) / mean
	}
	f.Directedness, f.Locality = sampleEdges(g)
	f.DiameterEst = diameterEstimate(g)
	var most int
	for _, r := range partition.EdgeBalanced(g, 8, partition.In) {
		most = max(most, r.Len())
	}
	f.InSkew = float64(most) * 8 / float64(n)
	return f
}

// sampleEdges checks deterministically sampled edge positions for a
// reciprocal edge and for endpoints in one eighth of the id range
// (Directedness, Locality).
func sampleEdges(g *graph.Graph) (directedness, locality float64) {
	m, n := g.NumEdges(), int64(g.NumVertices())
	if m == 0 {
		return 0, 0
	}
	samples := min(int64(profileEdgeSamples), m)
	oneWay, near := 0, 0
	for i := int64(0); i < samples; i++ {
		pos := int64(splitmix64(uint64(i)) % uint64(m))
		src, dst := g.OutEdge(pos)
		if !hasEdge(g, dst, src) {
			oneWay++
		}
		if int64(src)*8/n == int64(dst)*8/n {
			near++
		}
	}
	s := float64(samples)
	return float64(oneWay) / s, max(0, (float64(near)/s-1.0/8)/(1-1.0/8))
}

// hasEdge scans from's out-neighbors for to, capped at hubScanCap.
func hasEdge(g *graph.Graph, from, to graph.Vertex) bool {
	nbrs := g.OutNeighbors(from)
	return len(nbrs) <= hubScanCap && slices.Contains(nbrs, to)
}

// diameterEstimate runs host-side BFS from profileSeeds seeded sources
// and returns the largest finite eccentricity seen, in levels. It is the
// planner's superstep-count proxy for traversals: exact diameter is
// overkill (and expensive); the max over a few sources distinguishes
// "road network, thousands of supersteps" from "power-law, a handful".
func diameterEstimate(g *graph.Graph) int {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	level := make([]int32, n)
	queue := make([]graph.Vertex, 0, 1024)
	best := 0
	for s := 0; s < profileSeeds; s++ {
		src := graph.Vertex(splitmix64(uint64(s)+0xd1a3) % uint64(n))
		for i := range level {
			level[i] = -1
		}
		level[src] = 0
		queue = append(queue[:0], src)
		ecc := 0
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			lv := level[v]
			for _, u := range g.OutNeighbors(v) {
				if level[u] < 0 {
					level[u] = lv + 1
					ecc = max(ecc, int(lv)+1)
					queue = append(queue, u)
				}
			}
		}
		best = max(best, ecc)
	}
	return max(best, 1) // edgeless or all-self-loop graphs still run one superstep
}

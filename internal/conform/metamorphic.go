package conform

import (
	"polymer/internal/gen"
	"polymer/internal/graph"
)

// Metamorphic helpers: semantics-preserving graph transformations and
// the output normalisations needed to compare results across them.

// Permutation returns a seeded uniform permutation of [0, n): perm[old]
// is the relabeled vertex id.
func Permutation(n int, seed uint64) []int {
	rng := gen.NewRNG(seed)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// Permute relabels every vertex of g through perm and rebuilds the CSR.
// The result is isomorphic to g, but vertex ids, CSR neighbour order and
// partition boundaries all move.
func Permute(g *graph.Graph, perm []int) *graph.Graph {
	edges := g.Edges()
	for i := range edges {
		edges[i].Src = graph.Vertex(perm[edges[i].Src])
		edges[i].Dst = graph.Vertex(perm[edges[i].Dst])
	}
	return graph.FromEdges(g.NumVertices(), edges, g.Weighted())
}

// Unpermute maps an output computed on the permuted graph back into the
// original vertex order: result[v] = out[perm[v]].
func Unpermute(out []float64, perm []int) []float64 {
	res := make([]float64, len(out))
	for v := range res {
		res[v] = out[perm[v]]
	}
	return res
}

// CanonicalLabels rewrites a component labeling into its canonical form:
// every vertex gets the smallest vertex index carrying the same label.
// Two labelings describe the same partition iff their canonical forms
// are identical — this is how CC outputs are compared across
// relabelings, where "smallest id in the component" itself moves.
func CanonicalLabels(out []float64) []float64 {
	first := make(map[float64]float64, len(out))
	res := make([]float64, len(out))
	for v, l := range out {
		if _, ok := first[l]; !ok {
			first[l] = float64(v)
		}
		res[v] = first[l]
	}
	return res
}

// Normalize prepares an output vector for comparison across graph
// transformations: CC labelings are canonicalised, everything else is
// returned as-is.
func Normalize(a Algo, out []float64) []float64 {
	if a == CC {
		return CanonicalLabels(out)
	}
	return out
}

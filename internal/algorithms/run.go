package algorithms

import (
	"polymer/internal/graph"
	"polymer/internal/obs"
	"polymer/internal/sg"
	"polymer/internal/state"
)

// PageRank runs iters synchronous push-based PageRank iterations on a
// scatter-gather engine (the paper's Algorithm 4.1, measured over the
// first five iterations as in Section 6.2) and returns the ranks.
func PageRank(e sg.Engine, iters int, damping float64) []float64 {
	out, err := PageRankFrom(e, iters, damping, nil, nil)
	if err != nil {
		panic(err)
	}
	return out
}

// SpMV multiplies the weighted adjacency matrix with a dense vector iters
// times (y[v] = sum over in-edges (u,v) of w * x[u]; then x <- y).
func SpMV(e sg.Engine, iters int, x0 []float64) []float64 {
	out, err := SpMVE(e, iters, x0, nil)
	if err != nil {
		panic(err)
	}
	return out
}

// BP runs iters rounds of Bayesian belief propagation along weighted
// edges and returns per-vertex beliefs in [0, 1].
func BP(e sg.Engine, iters int) []float64 {
	out, err := BPE(e, iters, nil)
	if err != nil {
		panic(err)
	}
	return out
}

// BFS runs a direction-optimizing breadth-first search from src and
// returns the level of every vertex (-1 if unreachable).
func BFS(e sg.Engine, src graph.Vertex) []int64 {
	levels, err := BFSE(e, src, nil)
	if err != nil {
		panic(err)
	}
	return levels
}

// CC computes connected components by label propagation over the
// symmetrized graph (the engine must have been built on
// g.Symmetrized()); it returns, for every vertex, the smallest vertex id
// in its component.
func CC(e sg.Engine) []graph.Vertex {
	n := e.Graph().NumVertices()
	labelsA := e.NewData32("cc/labels")
	k := ccKernel{labels: labelsA.Data}
	for v := range k.labels {
		k.labels[v] = uint32(v)
	}
	frontier := state.NewAll(e.Bounds())
	for step := 0; !frontier.IsEmpty(); step++ {
		sp := obs.BeginStep(e, step)
		frontier = edgeMap(e, frontier, k, ccHints)
		sp.End()
	}
	out := make([]graph.Vertex, n)
	copy(out, k.labels)
	return out
}

// SSSP computes single-source shortest paths from src with synchronous
// data-driven Bellman-Ford and returns the distances (+Inf when
// unreachable). Unweighted edges count as 1.
func SSSP(e sg.Engine, src graph.Vertex) []float64 {
	n := e.Graph().NumVertices()
	if n == 0 {
		return nil
	}
	distA := e.NewData("sssp/dist")
	k := ssspKernel{dist: distA.Data}
	for i := range k.dist {
		k.dist[i] = infinity
	}
	k.dist[src] = 0
	frontier := state.NewSingle(e.Bounds(), src)
	for step := 0; !frontier.IsEmpty(); step++ {
		sp := obs.BeginStep(e, step)
		frontier = edgeMap(e, frontier, k, ssspHints)
		sp.End()
	}
	out := make([]float64, n)
	copy(out, k.dist)
	return out
}

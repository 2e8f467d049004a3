package galois

import (
	"math"

	"polymer/internal/barrier"
	"polymer/internal/graph"
	"polymer/internal/par"
)

// PageRankDelta is the convergence-driven PageRank on Galois: ranks are
// pulled as in PageRank, but each round accumulates only the deltas of
// still-active in-neighbours, and a vertex leaves the active set once
// its rank change falls below eps. Each iteration runs as one charged
// round (accumulate + apply between the same barrier pair). It returns
// the ranks and the number of iterations.
func (e *Engine) PageRankDelta(eps float64, maxIter int) ([]float64, int) {
	g := e.G
	n := g.NumVertices()
	if n == 0 {
		return nil, 0
	}
	rank := make([]float64, n)
	delta := make([]float64, n)
	acc := make([]float64, n)
	active := make([]bool, n)
	e.trackData(int64(n) * 25)
	invOut := g.InvOutDegrees()
	for v := 0; v < n; v++ {
		rank[v] = 1 / float64(n)
		delta[v] = 1 / float64(n)
		active[v] = true
	}
	const d = 0.85
	base := (1 - d) / float64(n)

	ck := par.MakeStrided(int64(n), 64, e.M.Threads())
	actCounts := make([]int64, e.M.Threads())
	remaining := int64(n)
	iter := 0
	for ; iter < maxIter && remaining > 0; iter++ {
		first := iter == 0
		ep, cnt := e.beginRound()
		// Accumulate: pull active in-neighbours' scaled deltas. The pool
		// join between the two phases orders the delta reads before the
		// apply phase's writes.
		e.RunPhase(func(th int) {
			var edges, tasks int64
			ck.Do(th, func(lo, hi int64) {
				for v := lo; v < hi; v++ {
					tasks++
					var sum float64
					for _, u := range g.InNeighbors(graph.Vertex(v)) {
						if active[u] {
							edges++
							sum += delta[u] * invOut[u]
						}
					}
					acc[v] = sum
				}
			})
			cnt.add(th, edges, tasks)
		})
		if e.Err() != nil {
			break
		}
		// Apply: fold the accumulator into the rank, refresh the delta,
		// and rebuild the active set. Single writer per vertex.
		e.RunPhase(func(th int) {
			var tasks, act int64
			ck.Do(th, func(lo, hi int64) {
				for v := lo; v < hi; v++ {
					tasks++
					var nd float64
					if first {
						nd = base + d*acc[v] - delta[v]
					} else {
						nd = d * acc[v]
					}
					rank[v] += nd
					delta[v] = nd
					a := math.Abs(nd) > eps
					active[v] = a
					if a {
						act++
					}
				}
			})
			cnt.add(th, 0, tasks)
			actCounts[th] = act
		})
		if e.Err() != nil {
			break
		}
		e.chargeRound(ep, cnt, 8, barrier.H)
		remaining = 0
		for _, a := range actCounts {
			remaining += a
		}
	}
	out := make([]float64, n)
	copy(out, rank)
	return out, iter
}

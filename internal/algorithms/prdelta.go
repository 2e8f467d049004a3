package algorithms

import (
	"math"

	"polymer/internal/atomicx"
	"polymer/internal/engines/xstream"
	"polymer/internal/graph"
	"polymer/internal/sg"
	"polymer/internal/state"
)

// prDeltaKernel propagates rank deltas: acc[d] accumulates the scaled
// deltas of active in-neighbours.
type prDeltaKernel struct {
	delta, acc []float64
	invOut     []float64
}

func (k *prDeltaKernel) Update(s, d graph.Vertex, w float32) bool {
	k.acc[d] += k.delta[s] * k.invOut[s]
	return true
}

func (k *prDeltaKernel) UpdateAtomic(s, d graph.Vertex, w float32) bool {
	atomicx.AddFloat64(&k.acc[d], k.delta[s]*k.invOut[s])
	return true
}

func (k *prDeltaKernel) Cond(graph.Vertex) bool { return true }

// PageRankDelta is the convergence-driven PageRank the paper's
// Algorithm 4.1 sketches: the frontier carries only vertices whose rank
// is still changing, and a vertex drops out once its rank change falls
// below eps. Because power iteration is linear, the change itself obeys
// delta_{k+1} = d * A^T delta_k, so propagating deltas (as Ligra's
// PageRankDelta does) converges to the exact fixed point while the
// frontier — and with it the adaptive runtime state — shrinks
// geometrically. It returns the ranks and the number of iterations.
func PageRankDelta(e sg.Engine, eps float64, maxIter int) ([]float64, int) {
	return pageRankDeltaFrom(e, eps, maxIter, nil)
}

// PageRankDeltaWarm resumes the delta iteration from ranks computed on a
// previous snapshot. Power iteration contracts toward the new topology's
// fixed point from any start vector, and the first round's delta_1 =
// r_1 - r_0 algebra holds for arbitrary r_0, so warm-starting from the
// old ranks is exact — it just converges in far fewer rounds when the
// snapshots are close. Vertices beyond len(prev) (a grown vertex set)
// start at the uniform 1/n.
func PageRankDeltaWarm(e sg.Engine, eps float64, maxIter int, prev []float64) ([]float64, int) {
	return pageRankDeltaFrom(e, eps, maxIter, prev)
}

func pageRankDeltaFrom(e sg.Engine, eps float64, maxIter int, prev []float64) ([]float64, int) {
	g := e.Graph()
	n := g.NumVertices()
	if n == 0 {
		return nil, 0
	}
	rankA := e.NewData("prd/rank")
	deltaA := e.NewData("prd/delta")
	accA := e.NewData("prd/acc")
	rank, delta, acc := rankA.Data, deltaA.Data, accA.Data
	for v := 0; v < n; v++ {
		r0 := 1 / float64(n)
		if v < len(prev) {
			r0 = prev[v]
		}
		rank[v] = r0
		delta[v] = r0 // first round propagates r_0 itself
	}
	k := &prDeltaKernel{delta: delta, acc: acc, invOut: g.InvOutDegrees()}
	const d = 0.85
	base := (1 - d) / float64(n)

	active := state.NewAll(e.Bounds())
	all := state.NewAll(e.Bounds())
	iter := 0
	for ; iter < maxIter && !active.IsEmpty(); iter++ {
		e.EdgeMap(active, k, prHints)
		first := iter == 0
		active = e.VertexMap(all, func(v graph.Vertex) bool {
			var nd float64
			if first {
				// delta_1 = r_1 - r_0 with r_1 = base + d*A^T r_0.
				nd = base + d*k.acc[v] - k.delta[v]
			} else {
				nd = d * k.acc[v]
			}
			rank[v] += nd
			k.delta[v] = nd
			k.acc[v] = 0
			return math.Abs(nd) > eps
		})
	}
	out := make([]float64, n)
	copy(out, rank)
	return out, iter
}

// xsPRDelta is the edge-centric delta kernel: scatter an active source's
// scaled delta, gather into the destination's accumulator. The apply
// phase (per iteration, below) folds the accumulator into the rank and
// decides frontier membership, so Gather's verdict is irrelevant — the
// apply phase overwrites the next active set.
type xsPRDelta struct{ delta, acc, invOut []float64 }

func (k *xsPRDelta) Scatter(s graph.Vertex, w float32) (float64, bool) {
	return k.delta[s] * k.invOut[s], true
}

func (k *xsPRDelta) Gather(d graph.Vertex, val float64) bool {
	k.acc[d] += val
	return true
}

// XSPageRankDelta is PageRankDelta on X-Stream's edge-centric interface:
// the active set carries only vertices whose rank is still changing, and
// every iteration still streams all edges (scattering only from active
// sources), which is exactly the engine's cost model. It returns the
// ranks and the number of iterations.
func XSPageRankDelta(e *xstream.Engine, eps float64, maxIter int) ([]float64, int) {
	g := e.Graph()
	n := g.NumVertices()
	if n == 0 {
		return nil, 0
	}
	rankA := e.NewData("prd/rank")
	deltaA := e.NewData("prd/delta")
	accA := e.NewData("prd/acc")
	rank, delta, acc := rankA.Data, deltaA.Data, accA.Data
	for v := 0; v < n; v++ {
		rank[v] = 1 / float64(n)
		delta[v] = 1 / float64(n)
	}
	k := &xsPRDelta{delta: delta, acc: acc, invOut: g.InvOutDegrees()}
	const d = 0.85
	base := (1 - d) / float64(n)

	e.SetAllActive()
	iter := 0
	for ; iter < maxIter && e.ActiveCount() > 0; iter++ {
		first := iter == 0
		e.Iterate(k, func(v graph.Vertex) bool {
			var nd float64
			if first {
				nd = base + d*k.acc[v] - k.delta[v]
			} else {
				nd = d * k.acc[v]
			}
			rank[v] += nd
			k.delta[v] = nd
			k.acc[v] = 0
			return math.Abs(nd) > eps
		})
	}
	out := make([]float64, n)
	copy(out, rank)
	return out, iter
}

package algorithms

import (
	"math"
	"slices"

	"polymer/internal/engines/xstream"
	"polymer/internal/graph"
	"polymer/internal/sg"
)

// prDeltaKernel propagates rank deltas: acc[d] accumulates the scaled
// deltas of active in-neighbours. On X-Stream the apply phase overwrites
// the next active set, so Gather's verdict is irrelevant.
type prDeltaKernel struct {
	rank, delta, acc []float64
	invOut           []float64
}

// newPRDeltaKernel allocates delta-PageRank state on e, starting from the
// ranks in prev and from the uniform 1/n beyond them.
func newPRDeltaKernel(e dataEngine, prev []float64) *prDeltaKernel {
	g := e.Graph()
	k := &prDeltaKernel{rank: e.NewData("prd/rank").Data, delta: e.NewData("prd/delta").Data,
		acc: e.NewData("prd/acc").Data, invOut: g.InvOutDegrees()}
	for v := range k.rank {
		k.rank[v] = 1 / float64(g.NumVertices())
	}
	copy(k.rank, prev)
	copy(k.delta, k.rank) // first round propagates r_0 itself
	return k
}

func (k *prDeltaKernel) Update(s, d graph.Vertex, w float32) bool {
	k.acc[d] += k.delta[s] * k.invOut[s]
	return true
}

func (k *prDeltaKernel) Cond(graph.Vertex) bool { return true }

func (k *prDeltaKernel) Scatter(s graph.Vertex, w float32) (float64, bool) {
	return k.delta[s] * k.invOut[s], true
}

func (k *prDeltaKernel) Gather(d graph.Vertex, val float64) bool {
	k.acc[d] += val
	return true
}

// converge is the convergence-driven PageRank the paper's Algorithm 4.1
// sketches: the active set carries only vertices whose rank is still
// changing, and a vertex drops out once its rank change falls below eps.
// Because power iteration is linear, the change itself obeys
// delta_{k+1} = d * A^T delta_k, so propagating deltas (as Ligra's
// PageRankDelta does) converges to the exact fixed point while the
// active set — and with it the adaptive runtime state — shrinks
// geometrically. It returns the ranks and the number of iterations; a
// failed step ends the run early, with the failure on the engine.
func (k *prDeltaKernel) converge(st stepper, eps float64, maxIter int) ([]float64, int) {
	n := len(k.rank)
	if n == 0 {
		return nil, 0
	}
	const d = 0.85
	base := (1 - d) / float64(n)
	iter := 0
	for active := int64(n); iter < maxIter && active > 0 && st.eng.Err() == nil; iter++ {
		first := iter == 0
		active = st.step(func(v graph.Vertex) bool {
			var nd float64
			if first {
				// delta_1 = r_1 - r_0 with r_1 = base + d*A^T r_0.
				nd = base + d*k.acc[v] - k.delta[v]
			} else {
				nd = d * k.acc[v]
			}
			k.rank[v] += nd
			k.delta[v] = nd
			k.acc[v] = 0
			return math.Abs(nd) > eps
		}, true)
	}
	return slices.Clone(k.rank), iter
}

// PageRankDelta runs the delta iteration on a scatter-gather engine from
// the ranks in prev (nil: a cold start). Power iteration contracts toward
// the topology's fixed point from any start vector, and the first round's
// delta_1 = r_1 - r_0 algebra holds for arbitrary r_0, so warm-starting
// from ranks computed on a previous snapshot is exact — it just converges
// in far fewer rounds when the snapshots are close.
func PageRankDelta(e sg.Engine, eps float64, maxIter int, prev []float64) ([]float64, int) {
	k := newPRDeltaKernel(e, prev)
	return k.converge(sgStepper(e, k, prHints), eps, maxIter)
}

// XSPageRankDelta is PageRankDelta on X-Stream's edge-centric interface:
// every iteration still streams all edges (scattering only from active
// sources), which is exactly the engine's cost model.
func XSPageRankDelta(e *xstream.Engine, eps float64, maxIter int) ([]float64, int) {
	k := newPRDeltaKernel(e, nil)
	return k.converge(xsStepper(e, k), eps, maxIter)
}

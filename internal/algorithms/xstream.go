package algorithms

import (
	"polymer/internal/engines/xstream"
	"polymer/internal/graph"
)

// PR, SpMV and BP also implement xstream.BlockKernel: Iterate's per-edge
// loops with Scatter and Gather written into them (all three always emit
// and always activate), over the engine's own bitmap helpers.

// weightAt is edge i's weight, 0 on an unweighted block.
func weightAt(wts []float32, i int) float32 {
	if wts == nil {
		return 0
	}
	return wts[i]
}

// xsPR is the X-Stream PageRank kernel.
type xsPR struct {
	curr, next []float64
	invOut     []float64
}

// newXSPR allocates PageRank state on e: uniform ranks, zero sums.
func newXSPR(e *xstream.Engine) *xsPR {
	k := &xsPR{curr: e.NewData("pr/curr").Data, next: e.NewData("pr/next").Data, invOut: e.Graph().InvOutDegrees()}
	for v := range k.curr {
		k.curr[v] = 1 / float64(len(k.curr))
	}
	return k
}

func (k *xsPR) Scatter(s graph.Vertex, w float32) (float64, bool) {
	return k.curr[s] * k.invOut[s], true
}

func (k *xsPR) Gather(d graph.Vertex, val float64) bool {
	k.next[d] += val
	return true
}

func (k *xsPR) ScatterBlock(active []uint64, src, dst []graph.Vertex, _ []float32, ds []graph.Vertex, vals []float64) ([]graph.Vertex, []float64, int64) {
	at := len(ds)
	for i, s := range src {
		if xstream.IsActive(active, s) {
			ds, vals = append(ds, dst[i]), append(vals, k.curr[s]*k.invOut[s])
		}
	}
	return ds, vals, int64(len(ds) - at)
}

func (k *xsPR) GatherRun(ds []graph.Vertex, vals []float64, next []uint64) (activated, fresh int64) {
	for i, d := range ds {
		k.next[d] += vals[i]
		fresh += xstream.Activate(next, d)
	}
	return int64(len(ds)), fresh
}

// XSPageRank runs iters push-based PageRank iterations on X-Stream.
func XSPageRank(e *xstream.Engine, iters int, damping float64) []float64 {
	out, err := XSPageRankE(e, iters, damping, nil)
	if err != nil {
		panic(err)
	}
	return out
}

type xsSpMV struct{ x, y []float64 }

// newXSSpMV allocates SpMV state on e, both vectors zero.
func newXSSpMV(e *xstream.Engine) *xsSpMV {
	return &xsSpMV{x: e.NewData("spmv/x").Data, y: e.NewData("spmv/y").Data}
}

func (k *xsSpMV) Scatter(s graph.Vertex, w float32) (float64, bool) {
	return edgeWeight(w) * k.x[s], true
}

func (k *xsSpMV) Gather(d graph.Vertex, val float64) bool {
	k.y[d] += val
	return true
}

func (k *xsSpMV) ScatterBlock(active []uint64, src, dst []graph.Vertex, wts []float32, ds []graph.Vertex, vals []float64) ([]graph.Vertex, []float64, int64) {
	at := len(ds)
	for i, s := range src {
		if xstream.IsActive(active, s) {
			ds, vals = append(ds, dst[i]), append(vals, edgeWeight(weightAt(wts, i))*k.x[s])
		}
	}
	return ds, vals, int64(len(ds) - at)
}

func (k *xsSpMV) GatherRun(ds []graph.Vertex, vals []float64, next []uint64) (activated, fresh int64) {
	for i, d := range ds {
		k.y[d] += vals[i]
		fresh += xstream.Activate(next, d)
	}
	return int64(len(ds)), fresh
}

// XSSpMV runs iters sparse matrix-vector multiplications on X-Stream.
func XSSpMV(e *xstream.Engine, iters int, x0 []float64) []float64 {
	n := e.Graph().NumVertices()
	if n == 0 {
		return nil
	}
	k := newXSSpMV(e)
	copy(k.x, x0)
	for it := 0; it < iters; it++ {
		e.SetAllActive()
		e.Iterate(k, func(v graph.Vertex) bool {
			k.x[v] = 0
			return true
		})
		k.x, k.y = k.y, k.x
	}
	out := make([]float64, n)
	copy(out, k.x)
	return out
}

type xsBP struct{ curr, acc []float64 }

// newXSBP allocates belief-propagation state on e: beliefs 0.5, unit
// accumulators.
func newXSBP(e *xstream.Engine) *xsBP {
	k := &xsBP{curr: e.NewData("bp/curr").Data, acc: e.NewData("bp/acc").Data}
	for v := range k.curr {
		k.curr[v] = 0.5
		k.acc[v] = 1
	}
	return k
}

func (k *xsBP) Scatter(s graph.Vertex, w float32) (float64, bool) {
	return bpMessage(k.curr[s], w), true
}

func (k *xsBP) Gather(d graph.Vertex, val float64) bool {
	k.acc[d] *= val
	return true
}

func (k *xsBP) ScatterBlock(active []uint64, src, dst []graph.Vertex, wts []float32, ds []graph.Vertex, vals []float64) ([]graph.Vertex, []float64, int64) {
	at := len(ds)
	for i, s := range src {
		if xstream.IsActive(active, s) {
			ds, vals = append(ds, dst[i]), append(vals, bpMessage(k.curr[s], weightAt(wts, i)))
		}
	}
	return ds, vals, int64(len(ds) - at)
}

func (k *xsBP) GatherRun(ds []graph.Vertex, vals []float64, next []uint64) (activated, fresh int64) {
	for i, d := range ds {
		k.acc[d] *= vals[i]
		fresh += xstream.Activate(next, d)
	}
	return int64(len(ds)), fresh
}

// XSBP runs iters belief-propagation rounds on X-Stream.
func XSBP(e *xstream.Engine, iters int) []float64 {
	n := e.Graph().NumVertices()
	if n == 0 {
		return nil
	}
	k := newXSBP(e)
	for it := 0; it < iters; it++ {
		e.SetAllActive()
		e.Iterate(k, func(v graph.Vertex) bool {
			k.acc[v] = 1 - k.acc[v]
			k.curr[v] = 1
			return true
		})
		k.curr, k.acc = k.acc, k.curr
	}
	out := make([]float64, n)
	copy(out, k.curr)
	return out
}

// xsLevel relaxes integer levels (BFS) or weighted distances (SSSP).
type xsLevel struct {
	dist     []float64
	weighted bool
}

func (k *xsLevel) Scatter(s graph.Vertex, w float32) (float64, bool) {
	step := 1.0
	if k.weighted {
		step = edgeWeight(w)
	}
	return k.dist[s] + step, true
}

func (k *xsLevel) Gather(d graph.Vertex, val float64) bool {
	if val < k.dist[d] {
		k.dist[d] = val
		return true
	}
	return false
}

// XSBFS runs BFS on X-Stream (levels via unit-distance relaxation, the
// Bellman-Ford-style formulation edge-centric engines use) and returns
// levels (-1 when unreachable).
func XSBFS(e *xstream.Engine, src graph.Vertex) []int64 {
	n := e.Graph().NumVertices()
	if n == 0 {
		return nil
	}
	distA := e.NewData("bfs/dist")
	k := &xsLevel{dist: distA.Data}
	for i := range k.dist {
		k.dist[i] = infinity
	}
	k.dist[src] = 0
	e.SetActive([]graph.Vertex{src})
	for e.ActiveCount() > 0 {
		e.Iterate(k, nil)
	}
	out := make([]int64, n)
	for v := range out {
		if k.dist[v] == infinity {
			out[v] = -1
		} else {
			out[v] = int64(k.dist[v])
		}
	}
	return out
}

// XSSSSP runs single-source shortest paths on X-Stream.
func XSSSSP(e *xstream.Engine, src graph.Vertex) []float64 {
	n := e.Graph().NumVertices()
	if n == 0 {
		return nil
	}
	distA := e.NewData("sssp/dist")
	k := &xsLevel{dist: distA.Data, weighted: true}
	for i := range k.dist {
		k.dist[i] = infinity
	}
	k.dist[src] = 0
	e.SetActive([]graph.Vertex{src})
	for e.ActiveCount() > 0 {
		e.Iterate(k, nil)
	}
	out := make([]float64, n)
	copy(out, k.dist)
	return out
}

type xsCC struct{ labels []float64 }

func (k *xsCC) Scatter(s graph.Vertex, w float32) (float64, bool) { return k.labels[s], true }

func (k *xsCC) Gather(d graph.Vertex, val float64) bool {
	if val < k.labels[d] {
		k.labels[d] = val
		return true
	}
	return false
}

// XSCC computes connected components by label propagation on X-Stream
// (the engine must be built on the symmetrized graph).
func XSCC(e *xstream.Engine) []graph.Vertex {
	n := e.Graph().NumVertices()
	labelsA := e.NewData("cc/labels")
	k := &xsCC{labels: labelsA.Data}
	for v := range k.labels {
		k.labels[v] = float64(v)
	}
	e.SetAllActive()
	for e.ActiveCount() > 0 {
		e.Iterate(k, nil)
	}
	out := make([]graph.Vertex, n)
	for v := range out {
		out[v] = graph.Vertex(k.labels[v])
	}
	return out
}

// Package algorithms implements the paper's six evaluation algorithms —
// PageRank, SpMV, Bayesian belief propagation, BFS, connected components
// and single-source shortest paths (Section 6.1) — plus sequential
// reference implementations the test suite validates every engine with.
// A float algorithm (PageRank, SpMV, BP, PageRankDelta) is written once:
// one kernel struct holds its state and speaks both the scatter-gather
// interface (Polymer, Ligra) and X-Stream's edge-centric one, and one
// shared loop in drivers.go runs it on either family. The traversals keep
// one kernel per family, since X-Stream relaxes values where the
// scatter-gather engines claim vertices.
package algorithms

import (
	"math"

	"polymer/internal/engines/xstream"
	"polymer/internal/graph"
	"polymer/internal/mem"
	"polymer/internal/sg"
)

// dataEngine is what kernel state needs of an engine of either family.
type dataEngine interface {
	Graph() *graph.Graph
	NewData(label string) *mem.Array[float64]
}

// unvisited marks an unclaimed BFS parent slot.
const unvisited = ^uint32(0)

// prKernel is the paper's Algorithm 4.1 edge function: it accumulates the
// scaled rank of the source into the target. PR, SpMV and BP are passed to
// the engines by pointer so their segment form (sg.RowKernel) is found
// without boxing the kernel.
//
// The explicit float64 conversions round the per-source product before it
// is added: without them an architecture with fused multiply-add may fuse
// the per-edge form and not the hoisted one, and PushRows would no longer
// equal the Update loop bit for bit.
type prKernel struct {
	curr, next    []float64
	invOut        []float64
	base, damping float64 // apply's constants
}

// newPRKernel allocates PageRank state on e: zero sums, and the ranks of
// init when it is non-nil (the degradation harness continues a run on a
// rebuilt engine with it), else uniform.
func newPRKernel(e dataEngine, damping float64, init []float64) *prKernel {
	g := e.Graph()
	n := float64(g.NumVertices())
	k := &prKernel{curr: e.NewData("pr/curr").Data, next: e.NewData("pr/next").Data,
		invOut: g.InvOutDegrees(), base: (1 - damping) / n, damping: damping}
	for v := range k.curr {
		k.curr[v] = 1 / n
	}
	copy(k.curr, init)
	return k
}

// apply normalises v's sum into its rank.
func (k *prKernel) apply(v graph.Vertex) bool {
	k.next[v] = k.base + k.damping*k.next[v]
	k.curr[v] = 0 // pre-zero the array that becomes next
	return true
}

func (k *prKernel) Update(s, d graph.Vertex, w float32) bool {
	k.next[d] += float64(k.curr[s] * k.invOut[s])
	return true
}

func (k *prKernel) Cond(graph.Vertex) bool { return true }

// PushRows adds each active source's scaled rank to every target of its
// row: by edge on a segment of short rows, else by row.
func (k *prKernel) PushRows(rs *sg.Rows, lo, hi int, active []uint64, base int) (activeRows, edges int64) {
	if !sg.ShortRows(rs, lo, hi) {
		return k.pushByRow(rs, lo, hi, active, base)
	}
	k.pushByEdge(rs, lo, hi, active, base)
	return pushCounts(rs, lo, hi, active, base)
}

// pushByEdge is PushRows' data as one loop over the segment's edges. The
// scaled rank is computed an edge: the conversion rounds it exactly as the
// row's hoisted product, so the targets get the same addends in the same
// order.
func (k *prKernel) pushByEdge(rs *sg.Rows, lo, hi int, active []uint64, base int) {
	idx, ids, curr, invOut, next := rs.Idx, rs.IDs, k.curr, k.invOut, k.next
	first, c := idx[lo], rs.Cursor(lo)
	for i, t := range rs.Cols[first:idx[hi]] {
		c = c.Next(idx, first+int64(i))
		if s := rowKey(ids, c.Row); sg.InLeaf(active, base, s) {
			next[t] += float64(curr[s] * invOut[s])
		}
	}
}

// pushByRow is PushRows as a loop over rows, the scaled rank computed once
// a row.
func (k *prKernel) pushByRow(rs *sg.Rows, lo, hi int, active []uint64, base int) (activeRows, edges int64) {
	idx, cols := rs.Idx, rs.Cols
	for r := lo; r < hi; r++ {
		s := rs.ID(r)
		if !sg.InLeaf(active, base, s) {
			continue
		}
		addRow(k.next, cols[idx[r]:idx[r+1]], float64(k.curr[s]*k.invOut[s]))
		activeRows++
		edges += idx[r+1] - idx[r]
	}
	return activeRows, edges
}

// addRow adds v to dst[t] for every t in cols.
func addRow(dst []float64, cols []graph.Vertex, v float64) {
	for _, t := range cols {
		dst[t] += v
	}
}

// rowKey is row r's key in a Rows whose IDs are ids (sg.Rows.ID). An edge
// loop holds the IDs in a local: through the Rows it would reload them
// after every store to the kernel's data.
func rowKey(ids []graph.Vertex, r int) graph.Vertex {
	if ids == nil {
		return graph.Vertex(r)
	}
	return ids[r]
}

// bit is 1 for true and 0 for false, without a branch.
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// pushCounts returns the active rows of segment [lo, hi) and their edges
// as sg.PushRowsPerEdge counts them: a row is active when its key is in
// the leaf, empty or not.
func pushCounts(rs *sg.Rows, lo, hi int, active []uint64, base int) (activeRows, edges int64) {
	if active == nil {
		return int64(hi - lo), rs.Idx[hi] - rs.Idx[lo]
	}
	for r := lo; r < hi; r++ {
		if sg.InLeaf(active, base, rs.ID(r)) {
			activeRows++
			edges += rs.Idx[r+1] - rs.Idx[r]
		}
	}
	return activeRows, edges
}

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

func (k *prKernel) Scatter(s graph.Vertex, w float32) (float64, bool) {
	return k.curr[s] * k.invOut[s], true
}

func (k *prKernel) Gather(d graph.Vertex, val float64) bool {
	k.next[d] += val
	return true
}

func (k *prKernel) ScatterBlock(active []uint64, src, dst []graph.Vertex, _ []float32, ds []graph.Vertex, vals []float64) ([]graph.Vertex, []float64, int64) {
	at := len(ds)
	for i, s := range src {
		if xstream.IsActive(active, s) {
			ds, vals = append(ds, dst[i]), append(vals, k.curr[s]*k.invOut[s])
		}
	}
	return ds, vals, int64(len(ds) - at)
}

func (k *prKernel) GatherRun(ds []graph.Vertex, vals []float64, next []uint64) (activated, fresh int64) {
	for i, d := range ds {
		k.next[d] += vals[i]
		fresh += xstream.Activate(next, d)
	}
	return int64(len(ds)), fresh
}

// spmvKernel accumulates w * x[s] into y[d]. Unweighted graphs use the
// adjacency matrix itself (unit weights), the same convention as
// edgeWeight — all engines and the reference must agree on it.
type spmvKernel struct{ x, y []float64 }

// newSpMVKernel allocates SpMV state on e: x0 in, zero sums.
func newSpMVKernel(e dataEngine, x0 []float64) *spmvKernel {
	k := &spmvKernel{x: e.NewData("spmv/x").Data, y: e.NewData("spmv/y").Data}
	copy(k.x, x0)
	return k
}

func (k *spmvKernel) apply(v graph.Vertex) bool {
	k.x[v] = 0 // pre-zero the array that becomes y
	return true
}

func (k *spmvKernel) Update(s, d graph.Vertex, w float32) bool {
	k.y[d] += float64(edgeWeight(w) * k.x[s])
	return true
}

func (k *spmvKernel) Cond(graph.Vertex) bool { return true }

// PushRows adds w*x[s] to every target of each active source's row; an
// unweighted row adds x[s] itself (unit weights, and 1*x is x). A segment
// of short rows goes by edge, else by row.
func (k *spmvKernel) PushRows(rs *sg.Rows, lo, hi int, active []uint64, base int) (activeRows, edges int64) {
	if !sg.ShortRows(rs, lo, hi) {
		return k.pushByRow(rs, lo, hi, active, base)
	}
	k.pushByEdge(rs, lo, hi, active, base)
	return pushCounts(rs, lo, hi, active, base)
}

// pushByEdge is PushRows' data as one loop over the segment's edges, each
// addend the product pushByRow forms.
func (k *spmvKernel) pushByEdge(rs *sg.Rows, lo, hi int, active []uint64, base int) {
	idx, ids, wts, x, y := rs.Idx, rs.IDs, rs.Wts, k.x, k.y
	first, c := idx[lo], rs.Cursor(lo)
	for i, t := range rs.Cols[first:idx[hi]] {
		j := first + int64(i)
		c = c.Next(idx, j)
		s := rowKey(ids, c.Row)
		if !sg.InLeaf(active, base, s) {
			continue
		}
		if wts == nil {
			y[t] += x[s]
		} else {
			y[t] += float64(edgeWeight(wts[j]) * x[s])
		}
	}
}

// pushByRow is PushRows as a loop over rows.
func (k *spmvKernel) pushByRow(rs *sg.Rows, lo, hi int, active []uint64, base int) (activeRows, edges int64) {
	idx, cols, wts, y := rs.Idx, rs.Cols, rs.Wts, k.y
	for r := lo; r < hi; r++ {
		s := rs.ID(r)
		if !sg.InLeaf(active, base, s) {
			continue
		}
		x, first, end := k.x[s], idx[r], idx[r+1]
		if wts == nil {
			addRow(y, cols[first:end], x)
		} else {
			for j := first; j < end; j++ {
				y[cols[j]] += float64(edgeWeight(wts[j]) * x)
			}
		}
		activeRows++
		edges += end - first
	}
	return activeRows, edges
}

func (k *spmvKernel) Scatter(s graph.Vertex, w float32) (float64, bool) {
	return edgeWeight(w) * k.x[s], true
}

func (k *spmvKernel) Gather(d graph.Vertex, val float64) bool {
	k.y[d] += val
	return true
}

func (k *spmvKernel) ScatterBlock(active []uint64, src, dst []graph.Vertex, wts []float32, ds []graph.Vertex, vals []float64) ([]graph.Vertex, []float64, int64) {
	at := len(ds)
	for i, s := range src {
		if xstream.IsActive(active, s) {
			ds, vals = append(ds, dst[i]), append(vals, edgeWeight(weightAt(wts, i))*k.x[s])
		}
	}
	return ds, vals, int64(len(ds) - at)
}

func (k *spmvKernel) GatherRun(ds []graph.Vertex, vals []float64, next []uint64) (activated, fresh int64) {
	for i, d := range ds {
		k.y[d] += vals[i]
		fresh += xstream.Activate(next, d)
	}
	return int64(len(ds)), fresh
}

// bpKernel multiplies damped messages into the target's belief
// accumulator: acc[d] *= 1 - (w/100) * curr[s].
type bpKernel struct{ curr, acc []float64 }

// newBPKernel allocates belief-propagation state on e: beliefs 0.5, unit
// accumulators.
func newBPKernel(e dataEngine) *bpKernel {
	k := &bpKernel{curr: e.NewData("bp/curr").Data, acc: e.NewData("bp/acc").Data}
	for v := range k.curr {
		k.curr[v] = 0.5
		k.acc[v] = 1
	}
	return k
}

func (k *bpKernel) apply(v graph.Vertex) bool {
	k.acc[v] = 1 - k.acc[v] // belief from the message product
	k.curr[v] = 1           // becomes the next accumulator
	return true
}

func bpMessage(curr float64, w float32) float64 {
	weight := 0.5
	if w != 0 {
		weight = float64(w) / 100
	}
	return 1 - weight*curr
}

func (k *bpKernel) Update(s, d graph.Vertex, w float32) bool {
	k.acc[d] *= bpMessage(k.curr[s], w)
	return true
}

func (k *bpKernel) Cond(graph.Vertex) bool { return true }

// PushRows multiplies each active source's message into every target of
// its row: by edge on a segment of short rows, else by row.
func (k *bpKernel) PushRows(rs *sg.Rows, lo, hi int, active []uint64, base int) (activeRows, edges int64) {
	if !sg.ShortRows(rs, lo, hi) {
		return k.pushByRow(rs, lo, hi, active, base)
	}
	k.pushByEdge(rs, lo, hi, active, base)
	return pushCounts(rs, lo, hi, active, base)
}

// pushByEdge is PushRows' data as one loop over the segment's edges: each
// edge's message is bpMessage of its weight, 0 without weights, as Update
// forms it.
func (k *bpKernel) pushByEdge(rs *sg.Rows, lo, hi int, active []uint64, base int) {
	idx, ids, wts, curr, acc := rs.Idx, rs.IDs, rs.Wts, k.curr, k.acc
	first, c := idx[lo], rs.Cursor(lo)
	for i, t := range rs.Cols[first:idx[hi]] {
		j := first + int64(i)
		c = c.Next(idx, j)
		if s := rowKey(ids, c.Row); sg.InLeaf(active, base, s) {
			acc[t] *= bpMessage(curr[s], weightAt(wts, int(j)))
		}
	}
}

// pushByRow is PushRows as a loop over rows; without weights the message
// is the same for the whole row.
func (k *bpKernel) pushByRow(rs *sg.Rows, lo, hi int, active []uint64, base int) (activeRows, edges int64) {
	idx, cols, wts, acc := rs.Idx, rs.Cols, rs.Wts, k.acc
	for r := lo; r < hi; r++ {
		s := rs.ID(r)
		if !sg.InLeaf(active, base, s) {
			continue
		}
		curr, first, end := k.curr[s], idx[r], idx[r+1]
		unit := bpMessage(curr, 0)
		for j := first; j < end; j++ {
			m := unit
			if wts != nil {
				m = bpMessage(curr, wts[j])
			}
			acc[cols[j]] *= m
		}
		activeRows++
		edges += end - first
	}
	return activeRows, edges
}

func (k *bpKernel) Scatter(s graph.Vertex, w float32) (float64, bool) {
	return bpMessage(k.curr[s], w), true
}

func (k *bpKernel) Gather(d graph.Vertex, val float64) bool {
	k.acc[d] *= val
	return true
}

func (k *bpKernel) ScatterBlock(active []uint64, src, dst []graph.Vertex, wts []float32, ds []graph.Vertex, vals []float64) ([]graph.Vertex, []float64, int64) {
	at := len(ds)
	for i, s := range src {
		if xstream.IsActive(active, s) {
			ds, vals = append(ds, dst[i]), append(vals, bpMessage(k.curr[s], weightAt(wts, i)))
		}
	}
	return ds, vals, int64(len(ds) - at)
}

func (k *bpKernel) GatherRun(ds []graph.Vertex, vals []float64, next []uint64) (activated, fresh int64) {
	for i, d := range ds {
		k.acc[d] *= vals[i]
		fresh += xstream.Activate(next, d)
	}
	return int64(len(ds)), fresh
}

// bfsKernel claims unvisited vertices (direction-optimizing BFS). BFS, CC
// and SSSP are passed to the engines by pointer, like the float kernels, so
// their pull segment form (sg.PullRowKernel) and, for BFS and SSSP, the
// sparse push row form (sg.SparseRowKernel) are found without boxing.
type bfsKernel struct{ parent []uint32 }

func (k *bfsKernel) Update(s, d graph.Vertex, w float32) bool {
	if k.parent[d] == unvisited {
		k.parent[d] = s
		return true
	}
	return false
}

func (k *bfsKernel) Cond(d graph.Vertex) bool { return k.parent[d] == unvisited }

// PushRow claims each unvisited target for s: a target that passes Cond is
// claimed by its Update.
func (k *bfsKernel) PushRow(s graph.Vertex, cols []graph.Vertex, _ []float32, out []graph.Vertex) (condChecks int64, _ []graph.Vertex) {
	parent := k.parent
	for _, t := range cols {
		if parent[t] == unvisited {
			parent[t] = s
			out = append(out, t)
			condChecks++
		}
	}
	return condChecks, out
}

// PullRows claims each unvisited target for its first active source and
// leaves the row there: the target is visited and Cond is false from then
// on. A visited target's row scans nothing.
func (k *bfsKernel) PullRows(rs *sg.Rows, lo, hi int, active []uint64, base int, hits []int32) (edges int64, _ []int32) {
	idx, cols, parent := rs.Idx, rs.Cols, k.parent
	for r := lo; r < hi; r++ {
		t := rs.ID(r)
		if parent[t] != unvisited {
			continue
		}
		first, end := idx[r], idx[r+1]
		j := first
		for j < end && !sg.InLeaf(active, base, cols[j]) {
			j++
		}
		if j == end {
			edges += end - first
			continue
		}
		parent[t] = cols[j]
		edges += j + 1 - first
		hits = append(hits, int32(r))
	}
	return edges, hits
}

// ccKernel propagates minimum labels (label-propagation connected
// components on the symmetrized graph).
type ccKernel struct{ labels []uint32 }

func (k *ccKernel) Update(s, d graph.Vertex, w float32) bool {
	if ls := k.labels[s]; ls < k.labels[d] {
		k.labels[d] = ls
		return true
	}
	return false
}

func (k *ccKernel) Cond(graph.Vertex) bool { return true }

// PullRows lowers each target's label to the least label among its active
// sources, as one loop over the segment's edges (sg.RowCursor); every edge
// is scanned. The target's label is read from memory an edge, so a
// self-loop reads the lowered label; a row is a hit at its first lowering,
// and rows come in order, so the hits are the per-edge loop's. Every
// source's label is compared and the leaf test folded into the outcome
// with a bitwise and: on a partial frontier a branch on it goes either way
// at random.
func (k *ccKernel) PullRows(rs *sg.Rows, lo, hi int, active []uint64, base int, hits []int32) (edges int64, _ []int32) {
	idx, ids, labels := rs.Idx, rs.IDs, k.labels
	first, last := idx[lo], idx[hi]
	if first == last {
		return 0, hits
	}
	c, hit := rs.Cursor(lo), -1
	for i, s := range rs.Cols[first:last] {
		c = c.Next(idx, first+int64(i))
		t := rowKey(ids, c.Row)
		if ls := labels[s]; bit(sg.InLeaf(active, base, s))&bit(ls < labels[t]) != 0 {
			labels[t] = ls
			if c.Row != hit {
				hits, hit = append(hits, int32(c.Row)), c.Row
			}
		}
	}
	return last - first, hits
}

// ssspKernel relaxes edges by distance minimisation (Bellman-Ford with
// data-driven scheduling).
type ssspKernel struct{ dist []float64 }

func (k *ssspKernel) Update(s, d graph.Vertex, w float32) bool {
	if nd := k.dist[s] + edgeWeight(w); nd < k.dist[d] {
		k.dist[d] = nd
		return true
	}
	return false
}

func (k *ssspKernel) Cond(graph.Vertex) bool { return true }

// PushRow relaxes each target over the edge from s. The source's distance
// is read per edge: a self-loop of negative weight lowers it mid-row.
func (k *ssspKernel) PushRow(s graph.Vertex, cols []graph.Vertex, wts []float32, out []graph.Vertex) (condChecks int64, _ []graph.Vertex) {
	dist := k.dist
	for j, t := range cols {
		if nd := dist[s] + edgeWeight(weightAt(wts, j)); nd < dist[t] {
			dist[t] = nd
			out = append(out, t)
		}
	}
	return int64(len(cols)), out
}

// PullRows relaxes each target over its active sources, as one loop over
// the segment's edges, the target's distance kept and the leaf tested as
// ccKernel.PullRows keeps the label and tests the leaf.
func (k *ssspKernel) PullRows(rs *sg.Rows, lo, hi int, active []uint64, base int, hits []int32) (edges int64, _ []int32) {
	idx, ids, wts, dist := rs.Idx, rs.IDs, rs.Wts, k.dist
	first, last := idx[lo], idx[hi]
	if first == last {
		return 0, hits
	}
	c, hit := rs.Cursor(lo), -1
	for i, s := range rs.Cols[first:last] {
		j := first + int64(i)
		c = c.Next(idx, j)
		t, nd := rowKey(ids, c.Row), dist[s]+edgeWeight(weightAt(wts, int(j)))
		if bit(sg.InLeaf(active, base, s))&bit(nd < dist[t]) != 0 {
			dist[t] = nd
			if c.Row != hit {
				hits, hit = append(hits, int32(c.Row)), c.Row
			}
		}
	}
	return last - first, hits
}

// xsLevel is X-Stream's traversal kernel: it relaxes integer levels (BFS)
// or weighted distances (SSSP), the Bellman-Ford-style formulation
// edge-centric engines use.
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

// xsCC propagates minimum labels on X-Stream.
type xsCC struct{ labels []float64 }

func (k *xsCC) Scatter(s graph.Vertex, w float32) (float64, bool) { return k.labels[s], true }

func (k *xsCC) Gather(d graph.Vertex, val float64) bool {
	if val < k.labels[d] {
		k.labels[d] = val
		return true
	}
	return false
}

// edgeWeight treats unweighted edges as unit weight.
func edgeWeight(w float32) float64 {
	if w == 0 {
		return 1
	}
	return float64(w)
}

// Hints for each algorithm, as the paper configures the systems: PR, SpMV
// and BP run push-based dense phases; the traversal algorithms prefer
// pull in dense phases (direction-optimizing).
var (
	prHints   = sg.Hints{DataBytes: 8, NsPerEdge: 1.5, DensePush: true, NoOutput: true}
	spmvHints = sg.Hints{DataBytes: 8, NsPerEdge: 1.5, DensePush: true, Weighted: true, NoOutput: true}
	bpHints   = sg.Hints{DataBytes: 16, NsPerEdge: 6, DensePush: true, Weighted: true, NoOutput: true}
	bfsHints  = sg.Hints{DataBytes: 4, NsPerEdge: 1, DensePush: false}
	ccHints   = sg.Hints{DataBytes: 4, NsPerEdge: 1}                   // dense rounds pull (Ligra's convention)
	ssspHints = sg.Hints{DataBytes: 8, NsPerEdge: 1.5, Weighted: true} // dense rounds pull
)

// Hints maps an algorithm, as package bench names it, to the hints its
// scatter-gather driver passes to every EdgeMap: the one source of its
// datum width, arithmetic cost and weightedness, which the planner prices
// candidates with too.
var Hints = map[string]sg.Hints{"PR": prHints, "SpMV": spmvHints, "BP": bpHints, "BFS": bfsHints, "CC": ccHints, "SSSP": ssspHints}

var infinity = math.Inf(1)

// Package ligra implements the Ligra baseline: a vertex-centric
// scatter-gather engine with direction-optimizing push/pull switching
// (Shun & Blelloch, PPoPP'13), exactly as the paper characterises it in
// Sections 2.1 and 3.2. Its EdgeMap and VertexMap are the shared sweep's
// (sg.Sweep) with one part: the CSR, swept by every thread. What is
// Ligra's own is its placement and its charge recipes.
//
// Placement: Ligra is NUMA-oblivious. Its long-term arrays (topology and
// application data) end up interleaved across nodes by construction-stage
// first touch, and its short-term runtime state is allocated centrally by
// the main thread.
//
// Recipe: in push mode an active vertex writes its neighbours' data
// randomly across the whole machine (RAND|W|G); in pull mode it reads
// randomly across the whole machine (RAND|R|G). Both patterns are the slow
// cases of the paper's Figure 4, and the interleaved traffic saturates the
// interconnect ports, which is what caps Ligra's socket scalability in
// Figure 5.
package ligra

import (
	"polymer/internal/barrier"
	"polymer/internal/graph"
	"polymer/internal/mem"
	"polymer/internal/numa"
	"polymer/internal/sg"
)

// Options configures the baseline.
type Options struct {
	// Adaptive enables the direction-optimizing dense/sparse switch.
	Adaptive bool
	// Threshold is the switch denominator (default 20).
	Threshold float64
	// OverheadNsPerEdge is Ligra's software overhead per edge.
	OverheadNsPerEdge float64
}

// DefaultOptions returns the configuration used in the paper's evaluation.
func DefaultOptions() Options {
	return Options{Adaptive: true, Threshold: 20, OverheadNsPerEdge: 1.2}
}

// Engine is a Ligra instance. It implements sg.Engine through the embedded
// sg.Sweep.
type Engine struct {
	sg.Sweep
	opt Options

	// push and pull are the CSR by out- and by in-edges as the sweep's one
	// part: row v is vertex v, and the frontier is one flat leaf.
	push, pull sg.Layout
	closed     bool
}

var _ sg.Engine = (*Engine)(nil)

// New builds a Ligra engine for g on m. It returns an error for invalid
// configuration or a simulated allocation failure.
func New(g *graph.Graph, m *numa.Machine, opt Options) (*Engine, error) {
	if opt.Threshold <= 0 {
		opt.Threshold = 20
	}
	if opt.OverheadNsPerEdge <= 0 {
		opt.OverheadNsPerEdge = 1.2
	}
	e := &Engine{opt: opt}
	if err := e.Init("ligra", g, m, nil); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	whole := []int{0, n}
	onePart := func(idx []int64, cols []graph.Vertex, wts []float32) sg.Layout {
		return sg.NewLayout([]sg.Part{{Rows: sg.Rows{Idx: idx, Cols: cols, Wts: wts}, OwnerRows: whole}}, m.Threads())
	}
	e.push, e.pull = onePart(g.OutIndex, g.OutNbrs, g.OutWts), onePart(g.InIndex, g.InNbrs, g.InWts)
	e.InitSweep(whole, sg.SweepConfig{
		Adaptive: opt.Adaptive, Threshold: opt.Threshold,
		// Ligra's Cilk-style fork/join behaves like a tree (hierarchical)
		// barrier.
		Barrier: barrier.H,
		Layout: func(push bool) *sg.Layout {
			if push {
				return &e.push
			}
			return &e.pull
		},
		ChargeEdges:    e.chargeEdges,
		ChargeVertices: e.chargeVertices,
	})
	if err := m.Alloc().Grow("ligra/topology", g.TopologyBytes()); err != nil {
		return nil, err
	}
	// Ligra's short-term state is centrally allocated on node 0.
	e.InitTier(g.TopologyBytes(), func(fr *mem.TierClass) { fr.GrowDemand(0, 2*int64(n)) })
	return e, nil
}

// MustNew is New panicking on error, for statically valid configurations.
func MustNew(g *graph.Graph, m *numa.Machine, opt Options) *Engine {
	e, err := New(g, m, opt)
	if err != nil {
		panic(err)
	}
	return e
}

// NewData allocates an interleaved float64 per-vertex array (first-touch
// by construction threads).
func (e *Engine) NewData(label string) *mem.Array[float64] {
	return sg.NewArray[float64](&e.Base, label, mem.Interleaved, nil)
}

// NewData32 allocates an interleaved uint32 per-vertex array.
func (e *Engine) NewData32(label string) *mem.Array[uint32] {
	return sg.NewArray[uint32](&e.Base, label, mem.Interleaved, nil)
}

// Close releases simulated allocations.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.FreeArrays()
	e.M.Alloc().Release("ligra/topology", e.G.TopologyBytes())
}

// chargeEdges is Ligra's edge-phase recipe (sg.SweepConfig.ChargeEdges).
// Every thread carries the phase's totals divided by the thread count,
// modelling the Cilk work-stealing scheduler that keeps Ligra's edge work
// balanced under degree skew; rows are the vertices scanned, or the
// frontier vertices read in a sparse phase.
func (e *Engine) chargeEdges(m sg.EdgeMode, ep *numa.Epoch, th, _ int, c *sg.Counts, h sg.Hints) {
	n := int64(e.G.NumVertices())
	dataWS := n * int64(h.DataBytes)
	rows, edges, updates := c.RowsByOwner[0], c.Edges, c.Updates
	switch m {
	case sg.DensePush:
		// Current state: centralized short-term allocation (node 0).
		e.TierFrontier.Access(ep, th, numa.Seq, numa.Load, 0, rows, 1, 0)
		// Vertex metadata + source data: interleaved sequential.
		e.TierTopo.AccessInterleaved(ep, th, numa.Seq, numa.Load, rows, 16, 0)
		e.TierState.AccessInterleaved(ep, th, numa.Seq, numa.Load, c.ActiveByOwner[0], h.DataBytes, 0)
		// Out-edges: interleaved sequential stream.
		e.TierTopo.AccessInterleaved(ep, th, numa.Seq, numa.Load, edges, h.EdgeBytes(), 0)
		// Neighbour data: random global writes (RAND|W|G).
		e.TierState.AccessInterleaved(ep, th, numa.Rand, numa.Store, edges, h.DataBytes, dataWS)
		// Next state: centralized random writes.
		e.TierFrontier.Access(ep, th, numa.Rand, numa.Store, 0, updates, 1, n)
	case sg.DensePull:
		e.TierState.AccessInterleaved(ep, th, numa.Seq, numa.Load, rows, 16+h.DataBytes, 0)
		e.TierTopo.AccessInterleaved(ep, th, numa.Seq, numa.Load, edges, h.EdgeBytes(), 0)
		// Source state reads: centralized random.
		e.TierFrontier.Access(ep, th, numa.Rand, numa.Load, 0, edges, 1, n)
		// Source data reads: random global (RAND|R|G).
		e.TierState.AccessInterleaved(ep, th, numa.Rand, numa.Load, edges, h.DataBytes, dataWS)
		// Destination writes: interleaved sequential.
		e.TierState.AccessInterleaved(ep, th, numa.Seq, numa.Store, updates, h.DataBytes+1, 0)
	case sg.SparsePush:
		// Frontier list: centralized sequential read; vertex metadata and
		// source data: random interleaved (frontier order is arbitrary).
		e.TierFrontier.Access(ep, th, numa.Seq, numa.Load, 0, rows, 4, 0)
		e.TierState.AccessInterleaved(ep, th, numa.Rand, numa.Load, rows, 16+h.DataBytes, dataWS)
		e.TierTopo.AccessInterleaved(ep, th, numa.Seq, numa.Load, edges, h.EdgeBytes(), 0)
		e.TierState.AccessInterleaved(ep, th, numa.Rand, numa.Store, edges, h.DataBytes, dataWS)
		// Queue appends: centralized sequential writes.
		e.TierFrontier.Access(ep, th, numa.Seq, numa.Store, 0, updates, 4, 0)
	}
	ep.Compute(th, (float64(edges)*(h.NsPerEdge+e.opt.OverheadNsPerEdge)+float64(rows)*2)*1e-9)
}

// chargeVertices is Ligra's VertexMap recipe (sg.SweepConfig.ChargeVertices):
// the centralized state is read sequentially, the interleaved data
// sequentially over a bitmap and at random over a frontier list.
func (e *Engine) chargeVertices(ep *numa.Epoch, th, _ int, dense bool, words, visited int64) {
	if dense {
		e.TierFrontier.Access(ep, th, numa.Seq, numa.Load, 0, words, 8, 0)
		e.TierState.AccessInterleaved(ep, th, numa.Seq, numa.Load, visited, 16, 0)
	} else {
		e.TierFrontier.Access(ep, th, numa.Seq, numa.Load, 0, visited, 4, 0)
		e.TierState.AccessInterleaved(ep, th, numa.Rand, numa.Load, visited, 16, int64(e.G.NumVertices())*16)
	}
	ep.Compute(th, float64(visited)*2e-9)
}

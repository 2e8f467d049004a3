// Package ligra implements the Ligra baseline: a vertex-centric
// scatter-gather engine with direction-optimizing push/pull switching
// (Shun & Blelloch, PPoPP'13), exactly as the paper characterises it in
// Sections 2.1 and 3.2. Its EdgeMap and VertexMap are the shared sweep's
// (sg.Sweep) with one part: the CSR in the graph's own chunks, swept by
// every thread. What is Ligra's own is its placement and its charge
// recipes.
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
	"slices"
	"sync"
	"unsafe"

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

// Barrier is the barrier every Ligra phase ends with: its Cilk-style
// fork/join behaves like a tree (hierarchical) barrier.
const Barrier = barrier.H

// DefaultOptions returns the configuration used in the paper's evaluation.
func DefaultOptions() Options {
	return Options{Adaptive: true, Threshold: 20, OverheadNsPerEdge: 1.2}
}

// Engine is a Ligra instance. It implements sg.Engine through the embedded
// sg.Sweep.
type Engine struct {
	sg.Sweep

	// push and pull are the CSR by out- and by in-edges as the sweep's one
	// part, in the graph's chunks (csrParts, which rows holds), and the
	// frontier is one flat leaf.
	push, pull sg.Layout
	rows       *csrParts
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
	e := &Engine{}
	if err := e.Init("ligra", g, m, nil); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	e.InitTier(g.TopologyBytes(), FrontierDemand(n))
	r := NewRecipe(opt, n, e.Tier)
	e.rows = graph.Derived(g, "ligra/parts", buildParts, patchParts)
	e.push = sg.NewLayout(e.rows.push, nil, m.Threads())
	e.pull = sg.NewLayout(e.rows.pull, nil, m.Threads())
	e.push.Unweighted, e.pull.Unweighted = !g.Weighted(), !g.Weighted()
	e.InitSweep([]int{0, n}, sg.SweepConfig{
		Adaptive: opt.Adaptive, Threshold: opt.Threshold, Barrier: Barrier,
		Layout: func(push bool) *sg.Layout {
			if push {
				return &e.push
			}
			return &e.pull
		},
		ChargeEdges:    r.ChargeEdges,
		ChargeVertices: r.ChargeVertices,
	})
	if err := m.Alloc().Grow("ligra/topology", g.TopologyBytes()); err != nil {
		return nil, err
	}
	return e, nil
}

// csrParts are a graph's rows as Ligra's push and pull parts, one each:
// its out- and in-rows' chunks (graph.OutChunks), graph.ChunkSize rows a
// chunk, every row keyed in the one leaf. A chunk's rows carry their
// vertices (IDs), a slice of the shared identity. The parts are shared by
// every Ligra engine on the graph and its Unweighted view (graph.Derived),
// and a snapshot's parts share the arrays of every chunk its commit left
// alone.
type csrParts struct{ push, pull []sg.Part }

func buildParts(root *graph.Graph) *csrParts {
	n := root.NumVertices()
	ids := identity(n)
	chunkRows := make([]int, len(root.OutChunks())+1)
	for c := range chunkRows {
		chunkRows[c] = min(c*graph.ChunkSize, n)
	}
	part := func(chunks []graph.Chunk) []sg.Part {
		rows, backing := make([]*sg.Rows, len(chunks)), make([]sg.Rows, len(chunks))
		for c, ch := range chunks {
			backing[c] = sg.Rows{IDs: ids[chunkRows[c]:chunkRows[c+1]], Idx: ch.Idx, Cols: ch.Cols, Wts: ch.Wts}
			rows[c] = &backing[c]
		}
		return []sg.Part{{Chunks: rows, ChunkRows: chunkRows, OwnerRows: []int{0, n}}}
	}
	return &csrParts{push: part(root.OutChunks()), pull: part(root.InChunks())}
}

// patchParts carries prev, a predecessor's parts, to its successor root:
// each direction's chunk list is copied, and a chunk whose arrays
// graph.Patch replaced gets a wrapper of its own, while every other chunk
// keeps prev's. Chunks are told apart by their arrays, not by the edit
// list, because the first patch of a FromEdges graph copies every chunk.
func patchParts(prev *csrParts, root *graph.Graph, _, _ []graph.Edge) *csrParts {
	part := func(prev []sg.Part, chunks []graph.Chunk) []sg.Part {
		p := prev[0]
		p.Chunks = slices.Clone(p.Chunks)
		for c, ch := range chunks {
			if old := p.Chunks[c]; !sameArray(old.Idx, ch.Idx) || !sameArray(old.Cols, ch.Cols) || !sameArray(old.Wts, ch.Wts) {
				p.Chunks[c] = &sg.Rows{IDs: old.IDs, Idx: ch.Idx, Cols: ch.Cols, Wts: ch.Wts}
			}
		}
		return []sg.Part{p}
	}
	return &csrParts{push: part(prev.push, root.OutChunks()), pull: part(prev.pull, root.InChunks())}
}

// sameArray reports whether a and b are the same view of the same array.
func sameArray[T any](a, b []T) bool {
	return len(a) == len(b) && unsafe.SliceData(a) == unsafe.SliceData(b)
}

// ids is 0, 1, 2, …, as long as the largest graph any Ligra engine has
// run on; it is replaced, never written, when a larger one comes.
var ids struct {
	sync.Mutex
	v []graph.Vertex
}

// identity returns the vertices 0 to n−1 in order (do not modify).
func identity(n int) []graph.Vertex {
	ids.Lock()
	defer ids.Unlock()
	if len(ids.v) < n {
		ids.v = make([]graph.Vertex, n)
		for i := range ids.v {
			ids.v[i] = graph.Vertex(i)
		}
	}
	return ids.v[:n]
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

// Close releases simulated allocations and hands the engine's arrays and
// ledgers to the next engine (sg.Base.Close): nothing reads them after.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.Sweep.Close()
	e.M.Alloc().Release("ligra/topology", e.G.TopologyBytes())
}

// Recipe is Ligra's charge recipe over n vertices: the engine charges it
// on the counts the sweep takes, the planner (package plan) on counts it
// estimates.
type Recipe struct {
	opt Options
	n   int64
	sg.Tiers
}

// NewRecipe returns the recipe under opt, charging through t.
func NewRecipe(opt Options, n int, t sg.Tiers) Recipe {
	return Recipe{opt: opt, n: int64(n), Tiers: t}
}

// FrontierDemand is Ligra's runtime-state rule for sg.NewTiers: 2 bytes per
// vertex, centrally allocated on node 0.
func FrontierDemand(n int) func(fr *mem.TierClass) {
	return func(fr *mem.TierClass) { fr.GrowDemand(0, 2*int64(n)) }
}

// ChargeEdges is Ligra's edge-phase recipe (sg.SweepConfig.ChargeEdges).
// Every thread carries the phase's totals divided by the thread count,
// modelling the Cilk work-stealing scheduler that keeps Ligra's edge work
// balanced under degree skew; rows are the vertices scanned, or the
// frontier vertices read in a sparse phase.
func (r *Recipe) ChargeEdges(m sg.EdgeMode, ep *numa.Epoch, th, _ int, c *sg.Counts, h sg.Hints) {
	dataWS := r.n * int64(h.DataBytes)
	rows, edges, updates := c.RowsByOwner[0], c.Edges, c.Updates
	switch m {
	case sg.DensePush:
		// Current state: centralized short-term allocation (node 0).
		r.Frontier.Access(ep, th, numa.Seq, numa.Load, 0, rows, 1, 0)
		// Vertex metadata + source data: interleaved sequential.
		r.Topo.AccessInterleaved(ep, th, numa.Seq, numa.Load, rows, 16, 0)
		r.State.AccessInterleaved(ep, th, numa.Seq, numa.Load, c.ActiveByOwner[0], h.DataBytes, 0)
		// Out-edges: interleaved sequential stream.
		r.Topo.AccessInterleaved(ep, th, numa.Seq, numa.Load, edges, h.EdgeBytes(), 0)
		// Neighbour data: random global writes (RAND|W|G).
		r.State.AccessInterleaved(ep, th, numa.Rand, numa.Store, edges, h.DataBytes, dataWS)
		// Next state: centralized random writes.
		r.Frontier.Access(ep, th, numa.Rand, numa.Store, 0, updates, 1, r.n)
	case sg.DensePull:
		r.State.AccessInterleaved(ep, th, numa.Seq, numa.Load, rows, 16+h.DataBytes, 0)
		r.Topo.AccessInterleaved(ep, th, numa.Seq, numa.Load, edges, h.EdgeBytes(), 0)
		// Source state reads: centralized random.
		r.Frontier.Access(ep, th, numa.Rand, numa.Load, 0, edges, 1, r.n)
		// Source data reads: random global (RAND|R|G).
		r.State.AccessInterleaved(ep, th, numa.Rand, numa.Load, edges, h.DataBytes, dataWS)
		// Destination writes: interleaved sequential.
		r.State.AccessInterleaved(ep, th, numa.Seq, numa.Store, updates, h.DataBytes+1, 0)
	case sg.SparsePush:
		// Frontier list: centralized sequential read; vertex metadata and
		// source data: random interleaved (frontier order is arbitrary).
		r.Frontier.Access(ep, th, numa.Seq, numa.Load, 0, rows, 4, 0)
		r.State.AccessInterleaved(ep, th, numa.Rand, numa.Load, rows, 16+h.DataBytes, dataWS)
		r.Topo.AccessInterleaved(ep, th, numa.Seq, numa.Load, edges, h.EdgeBytes(), 0)
		r.State.AccessInterleaved(ep, th, numa.Rand, numa.Store, edges, h.DataBytes, dataWS)
		// Queue appends: centralized sequential writes.
		r.Frontier.Access(ep, th, numa.Seq, numa.Store, 0, updates, 4, 0)
	}
	ep.Compute(th, (float64(edges)*(h.NsPerEdge+r.opt.OverheadNsPerEdge)+float64(rows)*2)*1e-9)
}

// ChargeVertices is Ligra's VertexMap recipe (sg.SweepConfig.ChargeVertices):
// the centralized state is read sequentially, the interleaved data
// sequentially over a bitmap and at random over a frontier list.
func (r *Recipe) ChargeVertices(ep *numa.Epoch, th, _ int, dense bool, words, visited int64) {
	if dense {
		r.Frontier.Access(ep, th, numa.Seq, numa.Load, 0, words, 8, 0)
		r.State.AccessInterleaved(ep, th, numa.Seq, numa.Load, visited, 16, 0)
	} else {
		r.Frontier.Access(ep, th, numa.Seq, numa.Load, 0, visited, 4, 0)
		r.State.AccessInterleaved(ep, th, numa.Rand, numa.Load, visited, 16, r.n*16)
	}
	ep.Compute(th, float64(visited)*2e-9)
}

// Package sg defines the scatter-gather programming interface shared by
// the vertex-centric engines (Polymer and the Ligra baseline): the
// EdgeMap/VertexMap model of the paper's Section 4.1, inherited from
// Ligra. Algorithms are written once against these interfaces and run
// unchanged on either engine.
package sg

import (
	"polymer/internal/graph"
	"polymer/internal/mem"
	"polymer/internal/numa"
	"polymer/internal/state"
)

// EdgeKernel is the application-defined edge function F passed to EdgeMap.
// Update applies edge (s, d) and returns true if the destination should
// join the next frontier. Cond is the destination filter: once it returns
// false the destination needs no further updates (e.g. an already-visited
// BFS vertex).
//
// A kernel's methods are only ever called from one goroutine: a phase runs
// its simulated threads one after another (par.Pool.Run), in the same
// order on every host, so kernels read and write their data with plain
// loads and stores and a run's values are a function of its input alone.
type EdgeKernel interface {
	Update(s, d graph.Vertex, w float32) bool
	Cond(d graph.Vertex) bool
}

// RowKernel is an optional interface of an EdgeKernel whose Cond is
// constantly true and whose Update always reports true. PushRow(s, cols,
// wts) must leave the kernel's data exactly as
//
//	for j, t := range cols { Update(s, t, wts[j]) }
//
// does — bit for bit, targets in cols order, with weight 0 for every edge
// when wts is nil. Like Update it is called from the phase's one
// goroutine.
//
// A Go type parameter's methods are called through the generic dictionary,
// never inlined, so the per-edge path pays two indirect calls an edge; a
// row kernel pays one a row and keeps the per-source factor in a register.
// Engines look for the interface once per dense push phase and use it only
// under Hints.NoOutput, where no per-edge outcome is needed: every charged
// count is then len(cols). Kernels that claim or relax (BFS, CC, SSSP) push
// per edge, since a push reports each target; their row form is the pull
// one (PullRowKernel), where a whole row has one target and one outcome.
type RowKernel interface {
	PushRow(s graph.Vertex, cols []graph.Vertex, wts []float32)
}

// RowKernelOf returns k's row form when the phase may use it, else nil.
// Pass pointer-shaped (or interface-typed) kernels to the engines' generic
// entry points: converting a struct-valued K to an interface here would
// box it on the heap every phase.
func RowKernelOf[K EdgeKernel](k K, h Hints) RowKernel {
	if !h.NoOutput {
		return nil
	}
	rk, _ := any(k).(RowKernel)
	return rk
}

// PullRowKernel is the pull mirror of RowKernel, an optional interface of
// any EdgeKernel: one call gathers target t's whole row. PullRow must leave
// the kernel's data, and report the edges scanned and whether t was
// updated, exactly as PullRowPerEdge does. Both outcomes feed charged
// counters and the next frontier, so unlike PushRow this form is neither
// restricted to NoOutput phases nor to always-true kernels. It shares the
// single-goroutine contract of EdgeKernel: t has no other writer and the
// sources no writer at all while the call runs, unless t is its own source.
//
// cols are t's sources and wts their weights (nil: weight 0 throughout).
// active is the frontier leaf that covers every vertex of cols, bit s-base
// for source s; nil means every source is active.
type PullRowKernel interface {
	PullRow(t graph.Vertex, cols []graph.Vertex, wts []float32, active []uint64, base int) (scanned int, updated bool)
}

// PullRowKernelOf returns k's pull row form, or nil. As with RowKernelOf,
// pass pointer-shaped kernels: asserting a struct-valued K boxes it.
func PullRowKernelOf[K EdgeKernel](k K) PullRowKernel {
	pk, _ := any(k).(PullRowKernel)
	return pk
}

// PullRowPerEdge gathers target t's row edge by edge: the dense pull loop
// of both engines for a kernel without a row form, and the definition a
// PullRow is held to. The row is skipped when Cond(t) is false and left
// after the edge that makes it false (Ligra's early exit).
func PullRowPerEdge[K EdgeKernel](k K, t graph.Vertex, cols []graph.Vertex, wts []float32, active []uint64, base int) (scanned int, updated bool) {
	if !k.Cond(t) {
		return 0, false
	}
	for j, s := range cols {
		scanned++
		if !InLeaf(active, base, s) {
			continue
		}
		var w float32
		if wts != nil {
			w = wts[j]
		}
		if k.Update(s, t, w) {
			updated = true
		}
		if !k.Cond(t) {
			break
		}
	}
	return scanned, updated
}

// InLeaf reports whether vertex v is set in the frontier leaf active, whose
// bit 0 is vertex base; a nil leaf stands for the full frontier.
func InLeaf(active []uint64, base int, v graph.Vertex) bool {
	if active == nil {
		return true
	}
	i := uint(int(v) - base)
	return active[i/64]&(1<<(i%64)) != 0
}

// VertexFunc is the application-defined vertex function passed to
// VertexMap; it returns true if v should remain in the returned subset.
type VertexFunc func(v graph.Vertex) bool

// Hints carries per-algorithm cost and mode information the engines use
// for charging and mode selection.
type Hints struct {
	// DataBytes is the size of the application-defined per-vertex datum
	// touched on each endpoint access (8 for PR's float64 ranks). Zero
	// means 8.
	DataBytes int
	// NsPerEdge is the algorithm's arithmetic cost per edge in
	// nanoseconds, charged as compute time on top of the engine's own
	// software overhead. Zero means 1.
	NsPerEdge float64
	// DensePush selects push as the dense-mode direction (the paper uses
	// push-based PR); when false, dense iterations pull.
	DensePush bool
	// Weighted tells the engine to stream edge weights (SpMV, SSSP, BP).
	Weighted bool
	// NoOutput tells the engine the caller discards the returned frontier
	// (PR, SpMV, BP iterate a fixed full frontier), so it may skip
	// building one and return the empty subset. Charged traffic is
	// unchanged — only host-side frontier bookkeeping is elided.
	NoOutput bool
}

// Normalize fills in defaults.
func (h Hints) Normalize() Hints {
	if h.DataBytes == 0 {
		h.DataBytes = 8
	}
	if h.NsPerEdge == 0 {
		h.NsPerEdge = 1
	}
	return h
}

// Engine is the scatter-gather engine contract. Implementations compute
// real results, running the machine's simulated threads one after another
// on the caller's goroutine (package par), while charging their classified
// memory traffic to the simulated NUMA machine.
type Engine interface {
	// Graph returns the input graph.
	Graph() *graph.Graph
	// Machine returns the simulated machine.
	Machine() *numa.Machine
	// Bounds returns the vertex partition offsets used for state leaves.
	Bounds() []int
	// EdgeMap applies k to every edge whose source is in a, returning the
	// set of destinations for which an update returned true.
	EdgeMap(a *state.Subset, k EdgeKernel, h Hints) *state.Subset
	// VertexMap applies f to every vertex in a, returning those for which
	// f returned true.
	VertexMap(a *state.Subset, f VertexFunc) *state.Subset
	// NewData allocates a per-vertex float64 array with the engine's
	// native placement policy.
	NewData(label string) *mem.Array[float64]
	// NewData32 allocates a per-vertex uint32 array (labels, parents).
	NewData32(label string) *mem.Array[uint32]
	// SimSeconds returns the accumulated simulated runtime.
	SimSeconds() float64
	// RunStats returns the accumulated access statistics (Table 4).
	RunStats() numa.Stats
	// ThreadSeconds returns per-thread simulated busy time (Figure 11b).
	ThreadSeconds() []float64
	// Err returns the first execution failure (worker panic, offline
	// node, allocation failure), or nil. After a failure, EdgeMap and
	// VertexMap are no-ops returning empty subsets and charging nothing
	// until ClearErr.
	Err() error
	// ClearErr resets the failure so a rolled-back step can be replayed.
	ClearErr()
	// Close releases the engine's workers and simulated allocations.
	Close()
}

// ActiveDegree sums the out-degrees of the subset's vertices; engines use
// it for the adaptive dense/sparse decision.
//
// Frontiers produced by state.Builder carry the sum already (accumulated
// per thread while the frontier was built), so the common case is a cached
// field read. A full frontier needs no scan either — its degree sum is the
// edge count. Anything else pays one scan, memoized on the subset so
// repeated EdgeMaps over the same frontier (PageRank's persistent "all"
// set) stay O(1).
func ActiveDegree(g *graph.Graph, a *state.Subset) int64 {
	if d, ok := a.Degree(); ok {
		return d
	}
	var sum int64
	if a.Count() == int64(g.NumVertices()) {
		sum = g.NumEdges()
	} else {
		a.ForEach(func(v graph.Vertex) { sum += g.OutDegree(v) })
	}
	a.SetDegree(sum)
	return sum
}

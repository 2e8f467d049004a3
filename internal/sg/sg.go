// Package sg defines the scatter-gather programming interface shared by
// the vertex-centric engines (Polymer and the Ligra baseline): the
// EdgeMap/VertexMap model of the paper's Section 4.1, inherited from
// Ligra. Algorithms are written once against these interfaces and run
// unchanged on either engine.
//
// It also holds what the engines share beneath the interface: Base, the
// lifecycle all four engines embed, and Sweep, the one EdgeMap/VertexMap
// implementation Polymer and Ligra both run. Polymer's layout is P = nodes
// parts of the node's grouped rows, Ligra's one part of the CSR; each
// engine adds its placement, layout, charge recipes and phase wrapper
// (SweepConfig) and no loop of its own.
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

// Rows is a grouped-edge layout the dense sweeps walk: row r is keyed by
// vertex IDs[r] and holds the far-side vertices Cols[Idx[r]:Idx[r+1]],
// with the edge weights aligned in Wts. IDs == nil means row r is keyed by
// vertex r (a CSR); Wts == nil means weight 0 throughout. Polymer's
// per-node layouts and Ligra's CSR are both Rows.
//
// The dense sweeps hand rows to a kernel a segment at a time: rows
// [lo, hi) of one Rows whose keys (push) or columns (pull) all lie in one
// frontier leaf, active, whose bit 0 is vertex base (nil: the full
// frontier). One call per segment makes the per-row bookkeeping — row id,
// slice headers, the test of the leaf — part of the kernel's inlined loop
// instead of one indirect call a row.
type Rows struct {
	IDs  []graph.Vertex
	Idx  []int64
	Cols []graph.Vertex
	Wts  []float32
}

// ID returns row r's key vertex.
func (rs *Rows) ID(r int) graph.Vertex {
	if rs.IDs == nil {
		return graph.Vertex(r)
	}
	return rs.IDs[r]
}

// Len returns the number of rows.
func (rs *Rows) Len() int { return max(len(rs.Idx)-1, 0) }

// RowKernel is an optional interface of an EdgeKernel whose Cond is
// constantly true and whose Update always reports true: the push segment
// form. PushRows(rs, lo, hi, active, base) must leave the kernel's data
// exactly as PushRowsPerEdge does — bit for bit, rows ascending, targets in
// Cols order — and return its activeRows and edges. Like Update it is
// called from the phase's one goroutine.
//
// A Go type parameter's methods are called through the generic dictionary,
// never inlined, so the per-edge path pays two indirect calls an edge; a
// segment form pays one a segment and keeps each per-source factor in a
// register. The sweep looks for the interface once per dense push phase
// and uses it only under Hints.NoOutput, where no per-edge outcome is needed:
// every edge is then a cond check and an update. Kernels that claim or
// relax (BFS, CC, SSSP) push per edge, since a push reports each target;
// their segment form is the pull one (PullRowKernel), where each row has
// one target and one outcome.
type RowKernel interface {
	PushRows(rs *Rows, lo, hi int, active []uint64, base int) (activeRows, edges int64)
}

// RowKernelOf returns k's push segment form when the phase may use it,
// else nil. Pass pointer-shaped (or interface-typed) kernels to
// EdgeMapK: converting a struct-valued K to an
// interface here would box it on the heap every phase.
func RowKernelOf[K EdgeKernel](k K, h Hints) RowKernel {
	if !h.NoOutput {
		return nil
	}
	rk, _ := any(k).(RowKernel)
	return rk
}

// PushRowsPerEdge pushes the segment's rows edge by edge: the sweep's
// dense push loop for a kernel without a segment form or a phase that
// consumes each edge's outcome, and the definition a PushRows is held to.
// A row is active when its key is in the leaf. Each active row counts as
// activeRows and each of its edges as edges; an edge whose target passes
// Cond is a condCheck, and one whose Update reports true an update, its
// target set in leaf p of b when b is non-nil (a push target is a vertex
// of the part that holds the row).
func PushRowsPerEdge[K EdgeKernel](k K, rs *Rows, lo, hi int, active []uint64, base int, b *state.Builder, p int) (activeRows, edges, condChecks, updates int64) {
	for r := lo; r < hi; r++ {
		s := rs.ID(r)
		if !InLeaf(active, base, s) {
			continue
		}
		activeRows++
		for j := rs.Idx[r]; j < rs.Idx[r+1]; j++ {
			edges++
			t := rs.Cols[j]
			if !k.Cond(t) {
				continue
			}
			condChecks++
			var w float32
			if rs.Wts != nil {
				w = rs.Wts[j]
			}
			if k.Update(s, t, w) {
				if b != nil {
					b.SetIn(p, t)
				}
				updates++
			}
		}
	}
	return activeRows, edges, condChecks, updates
}

// PullRowKernel is the pull mirror of RowKernel, an optional interface of
// any EdgeKernel: one call gathers every row of a segment, each row's key
// a target and its columns the target's sources. PullRows must leave the
// kernel's data, return the edges scanned, and append to hits the rows
// whose target it updated, in order, exactly as PullRowsPerEdge does. Both
// outcomes feed charged counters and the next frontier, so unlike PushRows
// this form is neither restricted to NoOutput phases nor to always-true
// kernels. It shares the single-goroutine contract of EdgeKernel: a target
// has no other writer and the sources no writer at all while its row is
// gathered, unless the target is its own source.
//
// The leaf (active, base) covers every column of the segment; the caller
// sizes hits so that appending a segment's rows does not grow it.
type PullRowKernel interface {
	PullRows(rs *Rows, lo, hi int, active []uint64, base int, hits []int32) (edges int64, _ []int32)
}

// PullRowKernelOf returns k's pull segment form, or nil. As with
// RowKernelOf, pass pointer-shaped kernels: asserting a struct-valued K
// boxes it.
func PullRowKernelOf[K EdgeKernel](k K) PullRowKernel {
	pk, _ := any(k).(PullRowKernel)
	return pk
}

// PullRowsPerEdge gathers the segment's rows edge by edge: the sweep's
// dense pull loop for a kernel without a segment form, and the
// definition a PullRows is held to. A row is skipped when Cond of its
// target is false and left after the edge that makes it false (Ligra's
// early exit); skipped edges are not scanned.
func PullRowsPerEdge[K EdgeKernel](k K, rs *Rows, lo, hi int, active []uint64, base int, hits []int32) (edges int64, _ []int32) {
	for r := lo; r < hi; r++ {
		t := rs.ID(r)
		if !k.Cond(t) {
			continue
		}
		updated := false
		for j := rs.Idx[r]; j < rs.Idx[r+1]; j++ {
			edges++
			s := rs.Cols[j]
			if !InLeaf(active, base, s) {
				continue
			}
			var w float32
			if rs.Wts != nil {
				w = rs.Wts[j]
			}
			if k.Update(s, t, w) {
				updated = true
			}
			if !k.Cond(t) {
				break
			}
		}
		if updated {
			hits = append(hits, int32(r))
		}
	}
	return edges, hits
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

// EdgeBytes returns the topology bytes streamed per edge: a 4-byte column,
// and a 4-byte weight when Weighted.
func (h Hints) EdgeBytes() int {
	if h.Weighted {
		return 8
	}
	return 4
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

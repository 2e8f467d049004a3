package sg

import (
	"math/bits"
	"slices"

	"polymer/internal/barrier"
	"polymer/internal/graph"
	"polymer/internal/numa"
	"polymer/internal/par"
	"polymer/internal/state"
)

// Direction is the policy that picks a dense EdgeMap's direction.
type Direction uint8

const (
	// ByHints pushes when Hints.DensePush is set and pulls otherwise.
	ByHints Direction = iota
	// AlwaysPush scatters along out-edges in every dense phase.
	AlwaysPush
	// AlwaysPull gathers along in-edges in every dense phase.
	AlwaysPull
)

// EdgeMode is how one EdgeMap phase runs.
type EdgeMode uint8

const (
	// SparsePush pushes out of the frontier's vertex lists: each active
	// vertex's rows, one per part it has an agent in (Layout.Agents).
	SparsePush EdgeMode = iota
	// DensePush sweeps the source-keyed rows, testing each key against the
	// frontier.
	DensePush
	// DensePull sweeps the target-keyed rows, testing each column against
	// the frontier.
	DensePull
)

// A Part is the rows one part of a sweep holds, keys ascending, in
// chunks. A sweep is P parts, each swept by S = threads/P consecutive
// threads: thread th works on part th/S, in slot th%S of S. The frontier
// has one leaf per part, so part p's threads also visit leaf p in
// VertexMap.
//
// Chunk c holds the part's rows [ChunkRows[c], ChunkRows[c+1]): row r of
// the part is row r−ChunkRows[c] of its chunk. A part with an agent index
// (Layout.Agents) has one chunk per ChunkKeys keys, chunk c holding the
// rows keyed in [c·ChunkKeys, (c+1)·ChunkKeys), some of them empty: a
// commit that edits a few rows rewrites only their chunks and shares the
// rest with its predecessor (core's layoutBuild.Patch). Ligra's part is the
// graph's own chunks (graph.Chunk), graph.ChunkSize rows each, row v being
// vertex v's, which graph.Patch shares between snapshots the same way.
//
// A part is laid out one of two ways. A build lays it out flat, all its
// rows one Rows (Flat), and its chunks are ranges of those rows; a patch
// gives each chunk an ordinary Rows of its own, whose offsets index its
// own columns (Chunks). Chunk returns chunk c either way. Chunks are held
// by pointer, so a patch that shares most of a part's chunks copies a
// pointer for each, not its slice headers.
type Part struct {
	// Flat is the part's rows laid out flat, or nil.
	Flat *Rows
	// Chunks are the part's chunks when it is not flat.
	Chunks []*Rows
	// ChunkRows[c] is the part's number of chunk c's first row, and its
	// last entry the part's row count.
	ChunkRows []int

	// OwnerRows[o] is the first row keyed in leaf o's vertex range and
	// OwnerRows[P] the row count: rows ascend by key and leaves are
	// contiguous, so leaf o owns the keys of rows [OwnerRows[o],
	// OwnerRows[o+1]).
	OwnerRows []int

	// Start is the row a dense sweep begins at; the sweep wraps to row 0.
	Start int
}

// ChunkKeys is the key span of a chunk of a part with an agent index, and
// of an agent chunk: 256 keys, so a chunk holds at most 256 rows and its
// row numbers fit a byte (AgentChunk.Row). On the serving layer's
// power-law graph at small scale (63 key chunks, 8 nodes) a 32-edit commit
// touches about 6 % of the (part, chunk) pairs and moves a row in about 15
// of the 63 key chunks, whose agent chunks it rebuilds; its edits are
// 0.3 % of the columns its chunk rewrites copy.
const (
	ChunkShift = 8
	ChunkKeys  = 1 << ChunkShift
)

// Chunk returns chunk c of the part: a range of its flat rows, or its own
// Rows.
func (pt *Part) Chunk(c int) Rows {
	if f := pt.Flat; f != nil {
		lo, hi := pt.ChunkRows[c], pt.ChunkRows[c+1]
		rs := Rows{Idx: f.Idx[lo : hi+1], Cols: f.Cols, Wts: f.Wts}
		if f.IDs != nil {
			rs.IDs = f.IDs[lo:hi]
		}
		return rs
	}
	return *pt.Chunks[c]
}

// Len returns the part's row count.
func (pt *Part) Len() int { return pt.ChunkRows[len(pt.ChunkRows)-1] }

// Segments returns a cursor over the segments of the part's stretches: a
// dense sweep's schedule hands a thread stretches of consecutive sweep
// positions, and the cursor cuts each into runs of consecutive rows keyed
// in one leaf, of Flat or, without it, of one chunk. A sweep over the part
// starts at row Start and wraps to row 0, so its position i is row
// (i+Start) mod rows. The cursor steps forward from the row it was last
// at, so a thread that keeps one cursor for its stretches, which ascend,
// finds each owner and chunk boundary once a sweep. When wts is false and
// the part carries weights, the segments' rows are a view without them,
// written to *view: a phase that streams none hands its kernel none.
func (pt *Part) Segments(view *Rows, wts bool) Segments {
	s := Segments{pt: pt, view: view, wts: wts, flat: pt.Flat}
	if s.flat != nil && !wts && s.flat.Wts != nil {
		*view = *s.flat
		view.Wts = nil
		s.flat = view
	}
	return s
}

// Segments is a cursor over the segments of a part's stretches
// (Part.Segments). Stretch moves it to a stretch; then each Next that
// reports true moves it to the stretch's next segment, rows [Lo, Hi) of
// Rows, keyed in leaf Owner, as far as the stretch's end, the next owner
// boundary, the wrap, or, on a part without Flat, the next chunk
// boundary. A chunk boundary only splits a segment: the rows a sweep
// visits, and their order, are the part's.
type Segments struct {
	Owner  int
	Rows   *Rows
	Lo, Hi int

	pt      *Part
	view    *Rows
	flat    *Rows // the rows of every segment when the part is flat
	wts     bool
	left    int // positions of the stretch not yet in a segment
	r, o, c int // the row the next segment starts at, and an owner and a chunk at or before its own
}

// Stretch moves the cursor to the stretch of sweep positions [i, end),
// i < end.
func (s *Segments) Stretch(i, end int) {
	r := i + s.pt.Start
	if r >= s.pt.Len() {
		r -= s.pt.Len()
	}
	if r < s.r {
		s.o, s.c = 0, 0
	}
	s.r, s.left = r, end-i
}

// Next moves to the stretch's next segment and reports whether there was
// one.
func (s *Segments) Next() bool {
	if s.left == 0 {
		return false
	}
	pt := s.pt
	for pt.OwnerRows[s.o+1] <= s.r {
		s.o++
	}
	hi := min(s.r+s.left, pt.OwnerRows[s.o+1])
	rs, first := s.flat, 0
	if rs == nil {
		for pt.ChunkRows[s.c+1] <= s.r {
			s.c++
		}
		rs, first = pt.Chunks[s.c], pt.ChunkRows[s.c]
		hi = min(hi, pt.ChunkRows[s.c+1])
		if !s.wts && rs.Wts != nil {
			*s.view = *rs
			s.view.Wts = nil
			rs = s.view
		}
	}
	s.Owner, s.Rows, s.Lo, s.Hi = s.o, rs, s.r-first, hi-first
	s.left -= hi - s.r
	if s.r = hi; hi == pt.Len() {
		s.r, s.o, s.c = 0, 0, 0 // the wrap
	}
	return true
}

// Agents is a push layout's agent index, one AgentChunk per ChunkKeys
// keys: vertex v's agents, the rows keyed by v, at most one a part, are in
// chunk v/ChunkKeys, the agents of the same key chunk as v's rows. The
// chunks are held by pointer, so a commit rebuilds only the agent chunks
// of key chunks where some part's row appeared or vanished and shares the
// rest with its predecessor (core's layoutBuild.Patch).
type Agents struct {
	Chunks []*AgentChunk
}

// An AgentChunk is the agents of one key chunk. Key k of the chunk, vertex
// c·ChunkKeys+k, has entries [Off[k], Off[k+1]) in ascending part order,
// entry i being row Row[i] of chunk c of part Part[i]. A part and a chunk
// row are a byte each, two bytes an entry: on a graph whose vertices have
// rows in few of the parts the index is a fraction of one n-entry row
// table per part. An offset is 16 bits: a chunk holds at most ChunkKeys
// entries a part, and a layout build at most 255 parts (core refuses
// more), so at most 65,280 entries; the chunk is then 562 bytes, in the
// allocator's 576-byte class.
type AgentChunk struct {
	Off  [ChunkKeys + 1]uint16
	Part []uint8
	Row  []uint8
}

// A Layout is one direction's parts with their row schedules. Row counts
// are fixed once the parts exist, so each part's schedule is made here,
// not per phase; maxStretch is the longest stretch of any of them, the
// most rows a segment can hold.
type Layout struct {
	Parts []Part
	// Agents is the index a sparse phase finds an active vertex's rows
	// through. It is nil when the layout is one part whose row v is vertex
	// v's (IDs nil: Ligra's CSR, in the graph's chunks), and in pull
	// layouts, which sparse phases do not sweep.
	Agents *Agents
	// Unweighted hides the parts' weights: every phase reads the rows as
	// if Wts were nil (an engine on an Unweighted view of a weighted
	// build).
	Unweighted bool

	strides    []par.Strided
	maxStretch int
	// shift finds a sparse phase's rows: vertex v's are in chunk v>>shift.
	// With an agent index it is ChunkShift, the index giving the row in
	// the chunk; without one it is graph.ChunkShift, v's row being row
	// v&(graph.ChunkSize−1) of its chunk.
	shift uint
}

// NewLayout schedules each part's rows over slots threads; agents is the
// layout's agent index, or nil (Layout.Agents).
func NewLayout(parts []Part, agents *Agents, slots int) Layout {
	l := Layout{Parts: parts, Agents: agents, strides: make([]par.Strided, len(parts)), shift: graph.ChunkShift}
	if agents != nil {
		l.shift = ChunkShift
	}
	for p := range parts {
		rows := int64(parts[p].Len())
		l.strides[p] = par.MakeStrided(rows, par.ChunkSize(rows, slots), slots)
		l.maxStretch = max(l.maxStretch, int(l.strides[p].MaxChunk()))
	}
	return l
}

// Counts are one part's counted quantities of an edge phase. The part's
// threads all add to them during the phase; before the part is charged
// they are divided down to one thread's share (Sweep.balance).
type Counts struct {
	// RowsByOwner counts the rows swept, by the leaf owning their key; in
	// a sparse phase, the frontier vertices read.
	RowsByOwner []int64
	// ActiveByOwner counts, by owner leaf, the active rows of a dense push,
	// the rows a dense pull updated, and the frontier vertices with a row
	// here in a sparse phase.
	ActiveByOwner []int64

	Edges, Updates, CondChecks int64
	// Lookups and Appends are a sparse phase's agent lookups and frontier
	// queue appends (one per update). Lookups are one per frontier vertex
	// in every part, the probes the simulated machine makes (the paper's
	// per-node agent lookup, §4.2), though the host finds a vertex's agents
	// once for all parts (Layout.Agents).
	Lookups, Appends int64
}

func (c *Counts) reset() {
	clear(c.RowsByOwner)
	clear(c.ActiveByOwner)
	c.Edges, c.Updates, c.CondChecks, c.Lookups, c.Appends = 0, 0, 0, 0, 0
}

// divide floors every count to its share of slots threads.
func (c *Counts) divide(slots int64) {
	for o := range c.RowsByOwner {
		c.RowsByOwner[o] /= slots
		c.ActiveByOwner[o] /= slots
	}
	c.Edges /= slots
	c.Updates /= slots
	c.CondChecks /= slots
	c.Lookups /= slots
	c.Appends /= slots
}

// PhaseRecord describes one committed EdgeMap or VertexMap phase.
type PhaseRecord struct {
	// Kind is "edgemap" or "vertexmap".
	Kind string
	// Dense reports bitmap (dense) vs queue (sparse) execution.
	Dense bool
	// Push reports the direction of a dense edgemap phase.
	Push bool
	// ActiveIn is the input frontier size.
	ActiveIn int64
	// SimSeconds is the phase's simulated duration including the barrier.
	SimSeconds float64
}

// SweepConfig is what an engine brings to the sweep: its mode policy, its
// layouts, its charge recipes and its phase wrapper.
type SweepConfig struct {
	// Adaptive switches between sparse and dense phases by active degree
	// (state.ShouldDense over Threshold); when false, every phase is dense.
	Adaptive  bool
	Threshold float64
	Dir       Direction
	// Barrier is the barrier a phase ends with.
	Barrier barrier.Kind

	// Layout returns the layout a push phase (dense or sparse) or a pull
	// phase sweeps. It may fail the engine (Base.Fail), and the phase then
	// charges nothing.
	Layout func(push bool) *Layout
	// ChargeEdges charges an edge phase of mode m on thread th, the first
	// thread of its node, from c, the counts of the thread's part p divided
	// down to one thread's share; the node's other threads share the
	// ledger row it writes (numa.Epoch.ChargeNodes). It is not called for
	// parts without rows, whose threads sat the phase out.
	ChargeEdges func(m EdgeMode, ep *numa.Epoch, th, p int, c *Counts, h Hints)
	// ChargeVertices charges what thread th of part p visited in a
	// VertexMap: bitmap words scanned (dense) and vertices visited.
	ChargeVertices func(ep *numa.Epoch, th, p int, dense bool, words, visited int64)
	// OnPhase, when set, sees every committed phase and its barrier's share
	// of the phase's duration.
	OnPhase func(r PhaseRecord, sync float64)
}

// EdgeMode is the mode an edge phase runs in over a frontier of active
// vertices on a graph of edges edges: a sparse push when the adaptive
// policy says so, given the frontier's out-degree sum, else a dense push
// or pull by the direction policy. The planner picks a candidate's modes
// with it too.
func (c *SweepConfig) EdgeMode(active int64, degree func() int64, edges int64, h Hints) EdgeMode {
	if c.Adaptive && !state.ShouldDense(active, degree(), edges, c.Threshold) {
		return SparsePush
	}
	if c.Dir == AlwaysPush || c.Dir == ByHints && h.DensePush {
		return DensePush
	}
	return DensePull
}

// A Sweep is the Base of an engine in the EdgeMap/VertexMap model (Polymer
// and Ligra): the one implementation of dense push, dense pull, sparse
// push and dense and sparse VertexMap, over P parts of S threads each. The
// engines differ in what SweepConfig holds, not in the loops: Polymer is
// P = nodes parts of S = cores per node, each part a node's grouped rows
// with its agents; Ligra is P = 1 part of S = all threads whose rows are
// the graph's own chunks (IDs nil, no agent index, Start 0, one leaf at
// base 0).
//
// A phase runs its threads one after another on the caller's goroutine
// (par.Pool.Run), so the sweep's scratch — the phase epoch, the per-part
// counts, the frontier builder, the segment view, the hit list and the
// sparse queues — is reused between phases without synchronisation. A
// returned Subset is the caller's until the caller hands it back
// (ReleaseFrontier); only then does a later phase reuse its storage.
type Sweep struct {
	Base
	cfg    SweepConfig
	bounds []int // frontier leaves, one per part
	slots  int   // S, threads per part

	ep       *numa.Epoch
	counts   []Counts // per part
	degreeOf func(v uint32) int64

	// view is a dense segment's rows without their weights (Segments). It
	// lives in the sweep, as hits does, so handing it to a kernel
	// allocates nothing: a phase runs on one goroutine and a kernel holds
	// no segment past its call.
	view Rows
	// words[p] is dense VertexMap's schedule over leaf p's bitmap words.
	words []par.Strided

	// The scratch the sweep's phases grow; Close hands it to the next sweep
	// of the same shape.
	*scratch
}

// scratch is what a sweep's phases grow as its frontiers grow: the
// frontier builder with the subsets handed back to it, the sparse queues
// and the hit list. It depends only on the sweep's part and thread counts
// and on the sizes of its frontier leaves, so a closed sweep hands it to
// the next sweep of the same part and thread counts (the spare list,
// spareScratch), and reset makes it what a new one is: a one-shot engine
// then finds it grown instead of growing it during its only run.
type scratch struct {
	bs state.BuilderScratch
	// hits is a pull segment's list of updated rows, sized to the longest
	// stretch.
	hits []int32
	// A sparse phase's queues (scatter): queues[p] holds the frontier
	// vertices with an agent in part p, in frontier order, each followed by
	// its agent's chunk row, and starts[p*(chunks+1)+c] is where frontier
	// chunk c begins in it, in entries of two. spill is what a phase whose
	// frontier is discarded (NoOutput) appends its targets to.
	queues [][]uint32
	starts []int32
	spill  []graph.Vertex
}

// reset makes sc, new or another sweep's, the scratch of a sweep over the
// frontier leaves bounds: every queue and list empty, one queue a part,
// and of the subsets handed back to its builder only those whose leaves
// fit bounds (state.BuilderScratch.Rebind).
func (sc *scratch) reset(bounds []int) {
	sc.bs.Rebind(bounds)
	if parts := len(bounds) - 1; len(sc.queues) != parts {
		sc.queues = make([][]uint32, parts)
	}
	for p := range sc.queues {
		sc.queues[p] = sc.queues[p][:0]
	}
	sc.hits, sc.starts, sc.spill = sc.hits[:0], sc.starts[:0], sc.spill[:0]
}

// scratchShape keys the spare list of sweep scratch: the part and thread
// counts the queues and the builder's per-thread queues are sized by.
type scratchShape struct{ parts, threads int }

// spareScratch is the spare list of sweep scratch, by shape: Close puts a
// sweep's scratch there and InitSweep takes it out.
var spareScratch numa.Spares[scratchShape]

// InitSweep sets the sweep up, after Init, over the frontier leaves bounds:
// P = len(bounds)−1 parts of S = threads/P threads each.
func (s *Sweep) InitSweep(bounds []int, cfg SweepConfig) {
	parts := len(bounds) - 1
	s.cfg, s.bounds, s.slots = cfg, bounds, s.M.Threads()/parts
	s.scratch, _ = spareScratch.Get(scratchShape{parts, s.M.Threads()}).(*scratch) // a closed sweep's
	if s.scratch == nil {
		s.scratch = new(scratch)
	}
	s.scratch.reset(bounds)
	s.ep = s.NewEpoch()
	s.counts = make([]Counts, parts)
	for p := range s.counts {
		s.counts[p] = Counts{RowsByOwner: make([]int64, parts), ActiveByOwner: make([]int64, parts)}
	}
	s.words = make([]par.Strided, parts)
	for p := range s.words {
		s.words[p] = par.MakeStrided(int64(bounds[p+1]-bounds[p]+63)/64, 64, s.slots)
	}
	g := s.G
	s.degreeOf = func(v uint32) int64 { return g.OutDegree(graph.Vertex(v)) }
}

// Close is Base.Close, and hands the sweep's scratch to the spare list for
// the next sweep of its shape, reset first so that the list holds nothing
// of the closed engine's graph (the last phase's builder reads its
// degrees). An engine that embeds a Sweep calls it once from its own
// Close; no phase may run after it.
func (s *Sweep) Close() {
	s.Base.Close()
	if s.scratch != nil {
		s.scratch.reset(s.bounds)
		spareScratch.Put(scratchShape{len(s.bounds) - 1, s.M.Threads()}, s.scratch)
		s.scratch = nil
	}
}

// Bounds returns the vertex offsets of the frontier leaves, one per part.
func (s *Sweep) Bounds() []int { return s.bounds }

// sweeper is every engine that embeds a Sweep.
type sweeper interface{ sweep() *Sweep }

func (s *Sweep) sweep() *Sweep { return s }

// MakeLayouts makes e's push and pull layouts now instead of at the first
// phase that needs each (on an engine without a Sweep it does nothing). A
// run whose phases depend on where it starts calls it so that what it
// derives from its graph, and so what a mutation lineage's next snapshot
// patches rather than builds (graph.Derived), does not depend on which
// phases it happened to take.
func MakeLayouts(e Engine) {
	if sw, ok := e.(sweeper); ok {
		s := sw.sweep()
		s.cfg.Layout(true)
		s.cfg.Layout(false)
	}
}

// EdgeMapK is Engine.EdgeMap generically typed on the kernel: on an engine
// that embeds a Sweep it runs the sweep with k unboxed, and any other
// engine (a wrapper, say) gets its interface method. Instantiating at the
// concrete kernel type saves boxing the kernel into an EdgeKernel and
// nothing per edge: Go calls a type parameter's methods through the
// generic dictionary, so Cond/Update stay indirect, out-of-line calls
// either way. The loop the compiler does inline is the kernel's own
// segment form (RowKernel, PullRowKernel); pass kernels by pointer so the
// sweep finds it without an allocation.
func EdgeMapK[K EdgeKernel](e Engine, a *state.Subset, k K, h Hints) *state.Subset {
	if sw, ok := e.(sweeper); ok {
		return edgeMap(sw.sweep(), a, k, h)
	}
	return e.EdgeMap(a, k, h)
}

// ReleaseFrontier hands f, a subset e returned or one the caller made over
// e's bounds, back to e: on an engine that embeds a Sweep its storage goes
// to the frontiers later phases build, and on any other engine, or for a
// subset over other bounds, it does nothing. The caller must be done with
// f and hold no other reference to it; a driver hands a frontier back only
// once the step that read it has committed (fault.Step) and nothing will
// read it again.
func ReleaseFrontier(e Engine, f *state.Subset) {
	if sw, ok := e.(sweeper); ok {
		if s := sw.sweep(); slices.Equal(f.Bounds(), s.bounds) {
			s.bs.Release(f)
		}
	}
}

// EdgeMap applies k to every edge whose source is active in a and returns
// the set of destinations that reported an update (the paper's Section
// 4.1). A phase is sparse when the adaptive policy says so, else a dense
// push or pull by the engine's direction policy.
func (s *Sweep) EdgeMap(a *state.Subset, k EdgeKernel, h Hints) *state.Subset {
	return edgeMap(s, a, k, h)
}

func edgeMap[K EdgeKernel](s *Sweep, a *state.Subset, k K, h Hints) *state.Subset {
	h = h.Normalize()
	if a.IsEmpty() || s.Err() != nil {
		return s.bs.Empty(s.bounds)
	}
	var in, out *state.Subset
	switch s.cfg.EdgeMode(a.Count(), func() int64 { return ActiveDegree(s.G, a) }, s.G.NumEdges(), h) {
	case SparsePush:
		in = s.bs.ToSparse(a)
		out = sparsePush(s, in, k, h)
	case DensePush:
		in = s.bs.ToDense(a)
		out = densePush(s, in, k, h)
	default:
		in = s.bs.ToDense(a)
		out = densePull(s, in, k, h)
	}
	if in != a {
		s.bs.Release(in) // the view of a the phase read, built here
	}
	return out
}

// densePush sweeps each part's source-keyed rows from its Start: active
// sources push updates to the part's targets. Each stretch of the schedule
// goes to the kernel a segment at a time, tested against the leaf of the
// segment's keys, in one PushRows call when the kernel has the segment
// form (RowKernel), else edge by edge (PushRowsPerEdge); the counts are
// the same.
func densePush[K EdgeKernel](s *Sweep, a *state.Subset, k K, h Hints) *state.Subset {
	l := s.cfg.Layout(true)
	rk := RowKernelOf(k, h)
	b := s.output(h, true)
	ep := s.begin()
	full := a.Count() == int64(s.G.NumVertices())
	wts := h.Weighted && !l.Unweighted

	s.RunPhase(func(th int) {
		p := th / s.slots
		c, seg := &s.counts[p], l.Parts[p].Segments(&s.view, wts)
		l.strides[p].Do(th%s.slots, func(lo, hi int64) {
			for seg.Stretch(int(lo), int(hi)); seg.Next(); {
				o, rs, rlo, rhi := seg.Owner, seg.Rows, seg.Lo, seg.Hi
				var active []uint64 // nil: every source is active
				if !full {
					active = a.Words(o)
				}
				c.RowsByOwner[o] += int64(rhi - rlo)
				var activeRows, edges, condChecks, updates int64
				if rk != nil {
					// Every edge passes Cond and updates (RowKernel).
					activeRows, edges = rk.PushRows(rs, rlo, rhi, active, s.bounds[o])
					condChecks, updates = edges, edges
				} else {
					activeRows, edges, condChecks, updates = PushRowsPerEdge(k, rs, rlo, rhi, active, s.bounds[o], b, p)
				}
				c.ActiveByOwner[o] += activeRows
				c.Edges, c.CondChecks, c.Updates = c.Edges+edges, c.CondChecks+condChecks, c.Updates+updates
			}
		})
	})
	return s.endEdges(DensePush, ep, l, h, a, b)
}

// densePull sweeps each part's target-keyed rows from its Start: every
// target gathers from the part's sources, so the only leaf a thread tests
// is its own part's. Each stretch of the schedule goes to the kernel a
// segment at a time — rows whose targets one leaf owns — in one PullRows
// call when the kernel has the segment form (PullRowKernel), else edge by
// edge (PullRowsPerEdge); the rows it updated come back as hits, which set
// the targets in their owner's leaf. The counts are the same.
func densePull[K EdgeKernel](s *Sweep, a *state.Subset, k K, h Hints) *state.Subset {
	l := s.cfg.Layout(false)
	pk := PullRowKernelOf(k)
	b := s.output(h, true)
	ep := s.begin()
	full := a.Count() == int64(s.G.NumVertices())
	if cap(s.hits) < l.maxStretch {
		s.hits = make([]int32, 0, l.maxStretch) // once per engine: a segment is at most a stretch
	}
	wts := h.Weighted && !l.Unweighted

	s.RunPhase(func(th int) {
		p := th / s.slots
		c, seg := &s.counts[p], l.Parts[p].Segments(&s.view, wts)
		var active []uint64 // nil: every source is active
		if !full {
			active = a.Words(p)
		}
		base := s.bounds[p]
		l.strides[p].Do(th%s.slots, func(lo, hi int64) {
			for seg.Stretch(int(lo), int(hi)); seg.Next(); {
				o, rs, rlo, rhi := seg.Owner, seg.Rows, seg.Lo, seg.Hi
				var edges int64
				if pk != nil {
					edges, s.hits = pk.PullRows(rs, rlo, rhi, active, base, s.hits[:0])
				} else {
					edges, s.hits = PullRowsPerEdge(k, rs, rlo, rhi, active, base, s.hits[:0])
				}
				hits := int64(len(s.hits))
				c.RowsByOwner[o] += int64(rhi - rlo)
				c.ActiveByOwner[o] += hits
				c.Edges, c.Updates = c.Edges+edges, c.Updates+hits
				if b != nil {
					for _, r := range s.hits {
						b.SetIn(o, rs.ID(int(r)))
					}
				}
			}
		})
	})
	return s.endEdges(DensePull, ep, l, h, a, b)
}

// sparsePush pushes every active vertex's rows, each part its own, on the
// schedule of a frontier read end to end: chunks of ChunkSize(|F|, S)
// frontier positions, chunk c on slot c mod S of every part. The frontier
// is laid out once for all parts (scatter), so part p's threads read only
// the vertices with an agent in p — the vertices, in the order and on the
// threads, that probing every vertex in every part reads. Each row goes
// to the kernel in one PushRow call when it has the row form
// (SparseRowKernel), else edge by edge (PushRowPerEdge); either appends
// the updated targets to the thread's frontier queue.
func sparsePush[K EdgeKernel](s *Sweep, a *state.Subset, k K, h Hints) *state.Subset {
	l := s.cfg.Layout(true)
	sk := SparseRowKernelOf(k)
	b := s.output(h, false)
	ep := s.begin()
	chunks := s.scatter(l, a)
	wts := h.Weighted && !l.Unweighted
	shift := l.shift

	s.RunPhase(func(th int) {
		p, slot := th/s.slots, th%s.slots
		if slot >= chunks {
			return // no chunk of the frontier falls to this slot
		}
		mask := uint32(1)<<shift - 1
		c, pt := &s.counts[p], &l.Parts[p]
		flat, rows, firsts := pt.Flat, pt.Chunks, pt.ChunkRows
		// A queue entry is a vertex and its chunk row, or, without an
		// index, the frontier's vertex v alone, whose row in its chunk is
		// v's low bits. Either way the entry's last word masked is the row.
		queue, width := a.List(0), 1
		if l.Agents != nil {
			queue, width = s.queues[p], 2
		}
		starts := s.starts[p*(chunks+1) : (p+1)*(chunks+1)]
		q := s.spill[:0]
		if b != nil {
			q = b.Queue(th)
		}
		var edges, condChecks, updates int64
		for ch := slot; ch < chunks; ch += s.slots {
			for i := width * int(starts[ch]); i < width*int(starts[ch+1]); i += width {
				v, r := queue[i], int(queue[i+width-1]&mask)
				rs := flat
				if rs != nil {
					r += firsts[v>>shift]
				} else {
					rs = rows[v>>shift]
				}
				first, end := rs.Idx[r], rs.Idx[r+1]
				var w []float32
				if wts && rs.Wts != nil {
					w = rs.Wts[first:end]
				}
				at := len(q)
				var checks int64
				if sk != nil {
					checks, q = sk.PushRow(v, rs.Cols[first:end], w, q)
				} else {
					checks, q = PushRowPerEdge(k, v, rs.Cols[first:end], w, q)
				}
				edges += end - first
				condChecks += checks
				updates += int64(len(q) - at)
				if b == nil {
					q = q[:0]
				}
			}
		}
		if b != nil {
			b.Extend(th, q)
		} else {
			s.spill = q
		}
		c.Edges += edges
		c.CondChecks += condChecks
		c.Updates += updates
		c.Appends += updates // every update appends its target to the queue
	})
	return s.endEdges(SparsePush, ep, l, h, a, b)
}

// scatter lays frontier a out for sparsePush over layout l and returns its
// chunk count. With an agent index it walks the frontier once, in order,
// appending each vertex and its chunk row to the queue of every part it
// has an agent in, and notes where each frontier chunk starts in every
// queue, in entries of two; without one the queue is the frontier's one
// list. It also takes the counts the frontier alone decides: every part reads every frontier vertex (RowsByOwner) and
// probes for its agent (Lookups), and the vertices with an agent in the
// part are its ActiveByOwner.
func (s *Sweep) scatter(l *Layout, a *state.Subset) int {
	n := 0
	for o := range s.counts {
		n += len(a.List(o))
	}
	for p := range s.counts {
		c := &s.counts[p]
		for o := range c.RowsByOwner {
			c.RowsByOwner[o] = int64(len(a.List(o)))
		}
		c.Lookups = int64(n)
	}
	chunk := int(par.ChunkSize(int64(n), s.slots))
	chunks := (n + chunk - 1) / chunk
	width := chunks + 1 // one part's starts
	if cap(s.starts) < len(s.counts)*width {
		s.starts = make([]int32, len(s.counts)*width)
	}
	s.starts = s.starts[:len(s.counts)*width]

	ag := l.Agents
	if ag == nil {
		for ch := range width {
			s.starts[ch] = int32(min(ch*chunk, n))
		}
		s.counts[0].ActiveByOwner[0] = int64(n)
		return chunks
	}
	queues := s.queues
	for p := range queues {
		queues[p] = queues[p][:0]
	}
	pos, next := 0, 0 // frontier position, and where the next chunk starts
	for o := range s.counts {
		for p := range queues {
			s.counts[p].ActiveByOwner[o] = -int64(len(queues[p]) / 2)
		}
		for _, v := range a.List(o) {
			if pos == next {
				for p := range queues {
					s.starts[p*width+pos/chunk] = int32(len(queues[p]) / 2)
				}
				next += chunk
			}
			pos++
			ac, k := ag.Chunks[v>>ChunkShift], v&(ChunkKeys-1)
			for e := ac.Off[k]; e < ac.Off[k+1]; e++ {
				p := ac.Part[e]
				queues[p] = append(queues[p], v, uint32(ac.Row[e]))
			}
		}
		for p := range queues {
			s.counts[p].ActiveByOwner[o] += int64(len(queues[p]) / 2)
		}
	}
	for p := range queues {
		s.starts[p*width+chunks] = int32(len(queues[p]) / 2)
	}
	return chunks
}

// VertexMap applies f to every vertex of a and returns those for which it
// returned true. Leaf p is visited by part p's threads, in chunks of 64
// bitmap words or list entries.
func (s *Sweep) VertexMap(a *state.Subset, f VertexFunc) *state.Subset {
	if a.IsEmpty() || s.Err() != nil {
		return s.bs.Empty(s.bounds)
	}
	b := s.bs.Builder(s.bounds, s.M.Threads(), a.Dense(), s.degreeOf)
	s.vertexMap(a, f, b)
	if s.Err() != nil {
		return s.bs.Empty(s.bounds)
	}
	return b.Build()
}

// VertexMapDiscard applies f to every vertex of a, as VertexMap does, for a
// caller that discards the returned subset (PageRank, SpMV and BP apply
// over a fixed full frontier). On an engine that embeds a Sweep it builds
// no frontier, as an edge phase under Hints.NoOutput builds none; the
// phase is charged and recorded as VertexMap's. Any other engine runs its
// VertexMap.
func VertexMapDiscard(e Engine, a *state.Subset, f VertexFunc) {
	sw, ok := e.(sweeper)
	if !ok {
		e.VertexMap(a, f)
		return
	}
	if s := sw.sweep(); !a.IsEmpty() && s.Err() == nil {
		s.vertexMap(a, f, nil)
	}
}

// vertexMap runs VertexMap's phase over a, non-empty, setting the vertices
// f keeps in b when b is non-nil.
func (s *Sweep) vertexMap(a *state.Subset, f VertexFunc, b *state.Builder) {
	dense := a.Dense()
	ep := s.begin()

	s.RunPhase(func(th int) {
		p, slot := th/s.slots, th%s.slots
		var words, visited int64
		if dense {
			leaf, base := a.Words(p), s.bounds[p]
			s.words[p].Do(slot, func(lo, hi int64) {
				words += hi - lo
				for wi := lo; wi < hi; wi++ {
					for w := leaf[wi]; w != 0; w &= w - 1 {
						v := graph.Vertex(base + int(wi)*64 + bits.TrailingZeros64(w))
						visited++
						if f(v) && b != nil {
							b.SetIn(p, v) // leaf p covers part p's vertices
						}
					}
				}
			})
		} else {
			list := a.List(p)
			par.MakeStrided(int64(len(list)), 64, s.slots).Do(slot, func(lo, hi int64) {
				for _, v := range list[lo:hi] {
					visited++
					if f(v) && b != nil {
						b.Add(th, v)
					}
				}
			})
		}
		s.cfg.ChargeVertices(ep, th, p, dense, words, visited)
	})
	if s.Err() == nil {
		s.end(ep, "vertexmap", dense, false, a.Count())
	}
}

// begin resets the phase scratch and returns the phase epoch.
func (s *Sweep) begin() *numa.Epoch {
	s.ep.Reset()
	for p := range s.counts {
		s.counts[p].reset()
	}
	return s.ep
}

// output returns the phase's frontier builder, nil when the caller
// discards the frontier (NoOutput).
func (s *Sweep) output(h Hints, dense bool) *state.Builder {
	if h.NoOutput {
		return nil
	}
	return s.bs.Builder(s.bounds, s.M.Threads(), dense, s.degreeOf)
}

// balance turns each part's summed counts into one thread's share, once
// per part: floor(part total ÷ S), modelling intra-part dynamic scheduling
// (the paper's Section 5; Cilk's work stealing for Ligra) that smooths
// degree skew between a part's chunks, while imbalance between parts is
// kept. The edge counter takes the totals first. Parts without rows sat
// the phase out and are skipped.
func (s *Sweep) balance(l *Layout) {
	for p := range s.counts {
		if l.Parts[p].Len() == 0 {
			continue
		}
		s.Edges += s.counts[p].Edges
		s.counts[p].divide(int64(s.slots))
	}
}

// endEdges charges a finished edge phase of mode m and returns its
// frontier. A failed phase charges nothing and returns the empty set.
func (s *Sweep) endEdges(m EdgeMode, ep *numa.Epoch, l *Layout, h Hints, a *state.Subset, b *state.Builder) *state.Subset {
	if s.Err() != nil {
		return s.bs.Empty(s.bounds)
	}
	s.balance(l)
	ep.ChargeNodes(func(th, _ int) {
		if p := th / s.slots; l.Parts[p].Len() > 0 {
			s.cfg.ChargeEdges(m, ep, th, p, &s.counts[p], h)
		}
	})
	s.end(ep, "edgemap", m != SparsePush, m != DensePull, a.Count())
	if b == nil {
		return s.bs.Empty(s.bounds)
	}
	return b.Build()
}

// end folds a committed phase into the run ledger and clock, with a
// crossing of the engine's barrier, and reports it to the tracer under the
// engine's category and to the engine's OnPhase.
func (s *Sweep) end(ep *numa.Epoch, kind string, dense, push bool, active int64) {
	dur, sync := s.ChargePhase(ep, s.cfg.Barrier)
	if s.Tr != nil {
		s.Tr.Phase(s.cat, kind, dense, push, active, s.Clock-dur, dur)
	}
	if s.cfg.OnPhase != nil {
		s.cfg.OnPhase(PhaseRecord{Kind: kind, Dense: dense, Push: push, ActiveIn: active, SimSeconds: dur}, sync)
	}
}

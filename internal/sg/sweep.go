package sg

import (
	"math/bits"

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
	// SparsePush pushes out of the frontier's vertex lists, finding each
	// active vertex's row through Part.RowOf.
	SparsePush EdgeMode = iota
	// DensePush sweeps the source-keyed rows, testing each key against the
	// frontier.
	DensePush
	// DensePull sweeps the target-keyed rows, testing each column against
	// the frontier.
	DensePull
)

// A Part is the rows one part of a sweep holds. A sweep is P parts, each
// swept by S = threads/P consecutive threads: thread th works on part
// th/S, in slot th%S of S. The frontier has one leaf per part, so part p's
// threads also visit leaf p in VertexMap.
type Part struct {
	Rows

	// OwnerRows[o] is the first row keyed in leaf o's vertex range and
	// OwnerRows[P] the row count: rows ascend by key and leaves are
	// contiguous, so leaf o owns the keys of rows [OwnerRows[o],
	// OwnerRows[o+1]).
	OwnerRows []int

	// RowOf maps a vertex to the row it keys here, -1 for none; it is not
	// read when IDs is nil (row v is vertex v's). Only sparse phases read
	// it, and they sweep push layouts only.
	RowOf []int32

	// Start is the row a dense sweep begins at; the sweep wraps to row 0.
	Start int
}

// Segment cuts a dense sweep's chunk into segments: runs of consecutive
// rows keyed in one leaf. A sweep over the part starts at row Start and
// wraps to row 0, so its position i is row (i+Start) mod rows. Segment
// returns the segment at position i of a chunk that ends at position end:
// rows [rlo, rhi), keyed in leaf o, as far as the chunk's end, the next
// owner boundary or the wrap.
func (pt *Part) Segment(i, end int) (o, rlo, rhi int) {
	if rlo = i + pt.Start; rlo >= pt.Len() {
		rlo -= pt.Len()
	}
	for pt.OwnerRows[o+1] <= rlo {
		o++
	}
	return o, rlo, min(rlo+end-i, pt.OwnerRows[o+1])
}

// A Layout is one direction's parts with their row schedules. Row counts
// are fixed once the parts exist, so each part's schedule is made here,
// not per phase; maxChunk is the longest chunk of any of them, the most
// rows a segment can hold.
type Layout struct {
	Parts    []Part
	strides  []par.Strided
	maxChunk int
}

// NewLayout schedules each part's rows over slots threads.
func NewLayout(parts []Part, slots int) Layout {
	l := Layout{Parts: parts, strides: make([]par.Strided, len(parts))}
	for p := range parts {
		rows := int64(parts[p].Len())
		l.strides[p] = par.MakeStrided(rows, par.ChunkSize(rows, slots), slots)
		l.maxChunk = max(l.maxChunk, int(l.strides[p].MaxChunk()))
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
	// Lookups and Appends are a sparse phase's row lookups (one per
	// frontier vertex) and frontier queue appends (one per update).
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
	// down to one thread's share; the node's other threads get a copy of
	// the ledger (numa.Epoch.ChargeNodes). It is not called for parts
	// without rows, whose threads sat the phase out.
	ChargeEdges func(m EdgeMode, ep *numa.Epoch, th, p int, c *Counts, h Hints)
	// ChargeVertices charges what thread th of part p visited in a
	// VertexMap: bitmap words scanned (dense) and vertices visited.
	ChargeVertices func(ep *numa.Epoch, th, p int, dense bool, words, visited int64)
	// OnPhase, when set, sees every committed phase and its barrier's share
	// of the phase's duration.
	OnPhase func(r PhaseRecord, sync float64)
}

// A Sweep is the Base of an engine in the EdgeMap/VertexMap model (Polymer
// and Ligra): the one implementation of dense push, dense pull, sparse
// push and dense and sparse VertexMap, over P parts of S threads each. The
// engines differ in what SweepConfig holds, not in the loops: Polymer is
// P = nodes parts of S = cores per node, each part a node's grouped rows
// with its agents; Ligra is P = 1 part of S = all threads whose rows are a
// zero-copy view of the CSR (IDs nil, RowOf unused, Start 0, one leaf at
// base 0).
//
// A phase runs its threads one after another on the caller's goroutine
// (par.Pool.Run), so the sweep's scratch — the phase epoch, the per-part
// counts, the frontier builder, the rows views and the hit list — is
// reused between phases without synchronisation. What must not be reused
// are the dense bitmap leaves handed to a returned Subset.
type Sweep struct {
	Base
	cfg    SweepConfig
	bounds []int // frontier leaves, one per part
	slots  int   // S, threads per part

	ep       *numa.Epoch
	counts   []Counts // per part
	bs       state.BuilderScratch
	degreeOf func(v uint32) int64

	// rows[p] is part p's rows as a phase hands them to the kernel (see
	// phaseRows); hits is a pull segment's list of updated rows, sized
	// once to the longest chunk.
	rows []Rows
	hits []int32
	// words[p] is dense VertexMap's schedule over leaf p's bitmap words;
	// off[o] is where leaf o's list starts in a sparse frontier read end to
	// end.
	words []par.Strided
	off   []int
}

// InitSweep sets the sweep up, after Init, over the frontier leaves bounds:
// P = len(bounds)−1 parts of S = threads/P threads each.
func (s *Sweep) InitSweep(bounds []int, cfg SweepConfig) {
	parts := len(bounds) - 1
	s.cfg, s.bounds, s.slots = cfg, bounds, s.M.Threads()/parts
	s.ep = s.M.NewEpoch()
	s.counts = make([]Counts, parts)
	for p := range s.counts {
		s.counts[p] = Counts{RowsByOwner: make([]int64, parts), ActiveByOwner: make([]int64, parts)}
	}
	s.rows = make([]Rows, parts)
	s.words = make([]par.Strided, parts)
	for p := range s.words {
		s.words[p] = par.MakeStrided(int64(bounds[p+1]-bounds[p]+63)/64, 64, s.slots)
	}
	s.off = make([]int, parts+1)
	g := s.G
	s.degreeOf = func(v uint32) int64 { return g.OutDegree(graph.Vertex(v)) }
}

// Bounds returns the vertex offsets of the frontier leaves, one per part.
func (s *Sweep) Bounds() []int { return s.bounds }

// sweeper is every engine that embeds a Sweep.
type sweeper interface{ sweep() *Sweep }

func (s *Sweep) sweep() *Sweep { return s }

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
		return state.NewEmpty(s.bounds)
	}
	if s.cfg.Adaptive && !state.ShouldDense(a.Count(), ActiveDegree(s.G, a), s.G.NumEdges(), s.cfg.Threshold) {
		return sparsePush(s, a.ToSparse(), k, h)
	}
	if s.cfg.Dir == AlwaysPush || s.cfg.Dir == ByHints && h.DensePush {
		return densePush(s, a.ToDense(), k, h)
	}
	return densePull(s, a.ToDense(), k, h)
}

// densePush sweeps each part's source-keyed rows from its Start: active
// sources push updates to the part's targets. Each chunk goes to the
// kernel a segment at a time, tested against the leaf of the segment's
// keys, in one PushRows call when the kernel has the segment form
// (RowKernel), else edge by edge (PushRowsPerEdge); the counts are the
// same.
func densePush[K EdgeKernel](s *Sweep, a *state.Subset, k K, h Hints) *state.Subset {
	l := s.cfg.Layout(true)
	rk := RowKernelOf(k, h)
	b := s.output(h, true)
	ep := s.begin()
	full := a.Count() == int64(s.G.NumVertices())
	rows := s.phaseRows(l, h.Weighted)

	s.RunPhase(func(th int) {
		p := th / s.slots
		pt, c, rs := &l.Parts[p], &s.counts[p], &rows[p]
		l.strides[p].Do(th%s.slots, func(lo, hi int64) {
			for i := int(lo); i < int(hi); {
				o, rlo, rhi := pt.Segment(i, int(hi))
				i += rhi - rlo
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
// is its own part's. Each chunk goes to the kernel a segment at a time —
// rows whose targets one leaf owns — in one PullRows call when the kernel
// has the segment form (PullRowKernel), else edge by edge
// (PullRowsPerEdge); the rows it updated come back as hits, which set the
// targets in their owner's leaf. The counts are the same.
func densePull[K EdgeKernel](s *Sweep, a *state.Subset, k K, h Hints) *state.Subset {
	l := s.cfg.Layout(false)
	pk := PullRowKernelOf(k)
	b := s.output(h, true)
	ep := s.begin()
	full := a.Count() == int64(s.G.NumVertices())
	if cap(s.hits) < l.maxChunk {
		s.hits = make([]int32, 0, l.maxChunk) // once per engine: a segment is at most a chunk
	}
	rows := s.phaseRows(l, h.Weighted)

	s.RunPhase(func(th int) {
		p := th / s.slots
		pt, c, rs := &l.Parts[p], &s.counts[p], &rows[p]
		var active []uint64 // nil: every source is active
		if !full {
			active = a.Words(p)
		}
		base := s.bounds[p]
		l.strides[p].Do(th%s.slots, func(lo, hi int64) {
			for i := int(lo); i < int(hi); {
				o, rlo, rhi := pt.Segment(i, int(hi))
				i += rhi - rlo
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

// sparsePush reads the frontier's leaves end to end, striding it over each
// part's threads: every part pushes its own edges of each active vertex,
// found through RowOf (Polymer's agent lookup).
func sparsePush[K EdgeKernel](s *Sweep, a *state.Subset, k K, h Hints) *state.Subset {
	l := s.cfg.Layout(true)
	b := s.output(h, false)
	ep := s.begin()
	off := s.off
	for o := 1; o < len(off); o++ {
		off[o] = off[o-1] + len(a.List(o-1))
	}
	n := int64(off[len(off)-1])
	stride := par.MakeStrided(n, par.ChunkSize(n, s.slots), s.slots)
	rows := s.phaseRows(l, h.Weighted)

	s.RunPhase(func(th int) {
		p := th / s.slots
		c, rs := &s.counts[p], &rows[p]
		idx, cols, wts := rs.Idx, rs.Cols, rs.Wts
		rowOf := l.Parts[p].RowOf // nil when row v is vertex v's
		if rs.IDs == nil {
			rowOf = nil
		}
		stride.Do(th%s.slots, func(lo, hi int64) {
			var edges, condChecks, updates int64
			for i, o := int(lo), 0; i < int(hi); {
				for off[o+1] <= i {
					o++
				}
				list := a.List(o)[i-off[o] : min(int(hi), off[o+1])-off[o]]
				i += len(list)
				var withRows int64
				for _, v := range list {
					r := int(v)
					if rowOf != nil {
						if r = int(rowOf[v]); r < 0 {
							continue
						}
					}
					withRows++
					first := idx[r]
					row := cols[first:idx[r+1]]
					edges += int64(len(row))
					for j, t := range row {
						if !k.Cond(t) {
							continue
						}
						condChecks++
						var w float32
						if wts != nil {
							w = wts[int(first)+j]
						}
						if k.Update(v, t, w) {
							if b != nil {
								b.Add(th, t)
							}
							updates++
						}
					}
				}
				c.RowsByOwner[o] += int64(len(list))
				c.ActiveByOwner[o] += withRows
			}
			c.Lookups += hi - lo // one row lookup per frontier vertex
			c.Edges += edges
			c.CondChecks += condChecks
			c.Updates += updates
			c.Appends += updates // every update appends its target to the queue
		})
	})
	return s.endEdges(SparsePush, ep, l, h, a, b)
}

// VertexMap applies f to every vertex of a and returns those for which it
// returned true. Leaf p is visited by part p's threads, in chunks of 64
// bitmap words or list entries.
func (s *Sweep) VertexMap(a *state.Subset, f VertexFunc) *state.Subset {
	if a.IsEmpty() || s.Err() != nil {
		return state.NewEmpty(s.bounds)
	}
	dense := a.Dense()
	b := s.bs.Builder(s.bounds, s.M.Threads(), dense, s.degreeOf)
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
						if f(v) {
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
					if f(v) {
						b.Add(th, v)
					}
				}
			})
		}
		s.cfg.ChargeVertices(ep, th, p, dense, words, visited)
	})
	if s.Err() != nil {
		return state.NewEmpty(s.bounds)
	}
	s.end(ep, "vertexmap", dense, false, a.Count())
	return b.Build()
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

// phaseRows returns the rows of l's parts as a phase hands them to its
// kernel, part p's at index p: without the weights when the phase streams
// none. The views live in the sweep, so handing their addresses to a
// kernel allocates nothing.
func (s *Sweep) phaseRows(l *Layout, weighted bool) []Rows {
	for p := range s.rows {
		s.rows[p] = l.Parts[p].Rows
		if !weighted {
			s.rows[p].Wts = nil
		}
	}
	return s.rows
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
		return state.NewEmpty(s.bounds)
	}
	s.balance(l)
	ep.ChargeNodes(func(th, _ int) {
		if p := th / s.slots; l.Parts[p].Len() > 0 {
			s.cfg.ChargeEdges(m, ep, th, p, &s.counts[p], h)
		}
	})
	s.end(ep, "edgemap", m != SparsePush, m != DensePull, a.Count())
	if b == nil {
		return state.NewEmpty(s.bounds)
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

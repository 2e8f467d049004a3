// Package ligra implements the Ligra baseline: a vertex-centric
// scatter-gather engine with direction-optimizing push/pull switching
// (Shun & Blelloch, PPoPP'13), exactly as the paper characterises it in
// Sections 2.1 and 3.2.
//
// Ligra is NUMA-oblivious: its long-term arrays (topology and application
// data) end up interleaved across nodes by construction-stage first touch,
// and its short-term runtime state is allocated centrally by the main
// thread. In push mode an active vertex writes its neighbours' data
// randomly across the whole machine (RAND|W|G); in pull mode it reads
// randomly across the whole machine (RAND|R|G). Both patterns are the slow
// cases of the paper's Figure 4, and the interleaved traffic saturates the
// interconnect ports, which is what caps Ligra's socket scalability in
// Figure 5.
package ligra

import (
	"math/bits"

	"polymer/internal/barrier"
	"polymer/internal/graph"
	"polymer/internal/mem"
	"polymer/internal/numa"
	"polymer/internal/par"
	"polymer/internal/sg"
	"polymer/internal/state"
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

// Engine is a Ligra instance. It implements sg.Engine; the lifecycle
// surface is sg.Base's.
type Engine struct {
	sg.Base
	opt Options

	bounds []int // single leaf: Ligra's state is one flat structure
	closed bool

	scr      *scratch
	degreeOf func(v uint32) int64

	// Cached schedules: the dense sweeps always cover the fixed vertex
	// (or bitmap-word) range.
	vSweep  par.Strided
	vmWords par.Strided
}

var _ sg.Engine = (*Engine)(nil)

// scratch is the phase-scoped arena: the phase epoch and counters are
// reset — not reallocated — between EdgeMap/VertexMap phases, and the
// frontier builder reuses its per-thread queues. Only host allocation
// behaviour changes; charged traffic is untouched.
type scratch struct {
	ep      *numa.Epoch
	pc      *phaseCounts
	builder state.BuilderScratch

	// rows is the CSR as a dense phase hands it to the kernel (see csr);
	// hits is the pull sweep's per-chunk list of updated rows, sized once
	// to the longest chunk.
	rows sg.Rows
	hits []int32
}

// csr returns the graph's CSR as the rows a dense phase sweeps — keyed by
// source over the out-edges for push, by target over the in-edges for
// pull — with the weights only when the phase streams them. The view lives
// in the arena, so handing its address to a kernel allocates nothing.
func (e *Engine) csr(push, weighted bool) *sg.Rows {
	g, rs := e.G, &e.scr.rows
	if push {
		*rs = sg.Rows{Idx: g.OutIndex, Cols: g.OutNbrs, Wts: g.OutWts}
	} else {
		*rs = sg.Rows{Idx: g.InIndex, Cols: g.InNbrs, Wts: g.InWts}
	}
	if !weighted {
		rs.Wts = nil
	}
	return rs
}

func (s *scratch) beginPhase() (*numa.Epoch, *phaseCounts) {
	s.ep.Reset()
	s.pc.reset()
	return s.ep, s.pc
}

// New builds a Ligra engine for g on m. It returns an error for invalid
// configuration or a simulated allocation failure.
func New(g *graph.Graph, m *numa.Machine, opt Options) (*Engine, error) {
	if opt.Threshold <= 0 {
		opt.Threshold = 20
	}
	if opt.OverheadNsPerEdge <= 0 {
		opt.OverheadNsPerEdge = 1.2
	}
	e := &Engine{opt: opt, bounds: []int{0, g.NumVertices()}}
	if err := e.Init("ligra", g, m, nil); err != nil {
		return nil, err
	}
	e.scr = &scratch{ep: m.NewEpoch(), pc: newPhaseCounts(m.Threads())}
	e.degreeOf = func(v uint32) int64 { return g.OutDegree(graph.Vertex(v)) }
	n := int64(g.NumVertices())
	e.vSweep = par.MakeStrided(n, par.ChunkSize(n, m.Threads()), m.Threads())
	e.vmWords = par.MakeStrided((n+63)/64, 64, m.Threads())
	if err := m.Alloc().Grow("ligra/topology", g.TopologyBytes()); err != nil {
		return nil, err
	}
	// Ligra's short-term state is centrally allocated on node 0.
	e.InitTier(g.TopologyBytes(), func(fr *mem.TierClass) { fr.GrowDemand(0, 2*n) })
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

// Bounds returns the (single-leaf) state bounds.
func (e *Engine) Bounds() []int { return e.bounds }

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

func (e *Engine) chargePhase(ep *numa.Epoch, kind string, dense, push bool, active int64) {
	// Ligra's Cilk-style fork/join behaves like a tree (hierarchical)
	// barrier.
	dur, _ := e.ChargePhase(ep, barrier.H)
	if e.Tr != nil {
		e.Tr.Phase("ligra", kind, dense, push, active, e.Clock-dur, dur)
	}
}

// phaseCounts accumulates per-thread work; totals are charged evenly
// across threads, modelling the Cilk work-stealing scheduler that keeps
// Ligra's edge work balanced under degree skew.
// Every thread carrying the same counts, the edge phases charge once per
// node (numa.Epoch.ChargeNodes).
type phaseCounts struct {
	slots [][4]int64
}

func newPhaseCounts(threads int) *phaseCounts {
	return &phaseCounts{slots: make([][4]int64, threads)}
}

func (p *phaseCounts) reset() {
	for i := range p.slots {
		p.slots[i] = [4]int64{}
	}
}

func (p *phaseCounts) per(threads int) [4]int64 {
	var t [4]int64
	for i := range p.slots {
		for j := 0; j < 4; j++ {
			t[j] += p.slots[i][j]
		}
	}
	for j := 0; j < 4; j++ {
		t[j] /= int64(threads)
	}
	return t
}

func (p *phaseCounts) total(j int) int64 {
	var t int64
	for i := range p.slots {
		t += p.slots[i][j]
	}
	return t
}

// EdgeMap applies k to the edges of the active set, switching between
// sparse-push and a dense mode chosen by the algorithm's preference. It is
// the interface entry point; EdgeMapK is the generic implementation.
func (e *Engine) EdgeMap(a *state.Subset, k sg.EdgeKernel, h sg.Hints) *state.Subset {
	return EdgeMapK(e, a, k, h)
}

// EdgeMapK is EdgeMap generically typed on the kernel; the interface
// method above is its instantiation at sg.EdgeKernel. A concrete
// instantiation saves boxing the kernel, not the per-edge calls: those
// go through the generic dictionary and are never inlined. Kernels that
// want an inlined edge loop bring their own segment form (sg.RowKernel,
// used by edgeMapDensePush; sg.PullRowKernel, used by edgeMapDensePull).
func EdgeMapK[K sg.EdgeKernel](e *Engine, a *state.Subset, k K, h sg.Hints) *state.Subset {
	h = h.Normalize()
	if a.IsEmpty() || e.Err() != nil {
		return state.NewEmpty(e.bounds)
	}
	dense := true
	if e.opt.Adaptive {
		deg := sg.ActiveDegree(e.G, a)
		dense = state.ShouldDense(a.Count(), deg, e.G.NumEdges(), e.opt.Threshold)
	}
	if !dense {
		return edgeMapSparse(e, a.ToSparse(), k, h)
	}
	if h.DensePush {
		return edgeMapDensePush(e, a.ToDense(), k, h)
	}
	return edgeMapDensePull(e, a.ToDense(), k, h)
}

// leaf returns the dense frontier's single leaf, nil when every vertex is
// active.
func (e *Engine) leaf(a *state.Subset) []uint64 {
	if a.Count() == int64(e.G.NumVertices()) {
		return nil
	}
	return a.Words(0)
}

// edgeMapDensePush scans all vertices; active ones push along out-edges
// with random global writes (the paper's RAND|W|G pattern). The sweep is
// Polymer's over the CSR: one part, one leaf at base 0, each chunk one
// segment, handed to the kernel in one PushRows call when it has the
// segment form (sg.RowKernel), else edge by edge (sg.PushRowsPerEdge); the
// charged counts are the same.
func edgeMapDensePush[K sg.EdgeKernel](e *Engine, a *state.Subset, k K, h sg.Hints) *state.Subset {
	n := e.G.NumVertices()
	rk := sg.RowKernelOf(k, h)
	var b *state.Builder
	if !h.NoOutput {
		b = e.scr.builder.Builder(e.bounds, e.M.Threads(), true, e.degreeOf)
	}
	ep, pc := e.scr.beginPhase()
	dataWS := int64(n) * int64(h.DataBytes)
	rs, active := e.csr(true, h.Weighted), e.leaf(a)

	e.RunPhase(func(th int) {
		var scanned, activeRows, edges, updates int64
		e.vSweep.Do(th, func(lo, hi int64) {
			scanned += hi - lo
			if rk != nil {
				// Every edge passes Cond and updates (sg.RowKernel).
				ar, ed := rk.PushRows(rs, int(lo), int(hi), active, 0)
				activeRows, edges, updates = activeRows+ar, edges+ed, updates+ed
				return
			}
			ar, ed, _, up := sg.PushRowsPerEdge(k, rs, int(lo), int(hi), active, 0, b, 0)
			activeRows, edges, updates = activeRows+ar, edges+ed, updates+up
		})
		pc.slots[th] = [4]int64{scanned, activeRows, edges, updates}
	})
	if e.Err() != nil {
		return state.NewEmpty(e.bounds) // failed phase charges nothing
	}
	per := pc.per(e.M.Threads())
	ep.ChargeNodes(func(th, _ int) {
		scanned, active, edges, updates := per[0], per[1], per[2], per[3]
		// Current state: centralized short-term allocation (node 0).
		e.TierFrontier.Access(ep, th, numa.Seq, numa.Load, 0, scanned, 1, 0)
		// Vertex metadata + source data: interleaved sequential.
		e.TierTopo.AccessInterleaved(ep, th, numa.Seq, numa.Load, scanned, 16, 0)
		e.TierState.AccessInterleaved(ep, th, numa.Seq, numa.Load, active, h.DataBytes, 0)
		// Out-edges: interleaved sequential stream.
		e.TierTopo.AccessInterleaved(ep, th, numa.Seq, numa.Load, edges, edgeBytes(h), 0)
		// Neighbour data: random global writes (RAND|W|G).
		e.TierState.AccessInterleaved(ep, th, numa.Rand, numa.Store, edges, h.DataBytes, dataWS)
		// Next state: centralized random writes.
		e.TierFrontier.Access(ep, th, numa.Rand, numa.Store, 0, updates, 1, int64(n))
		ep.Compute(th, (float64(edges)*(h.NsPerEdge+e.opt.OverheadNsPerEdge)+float64(scanned)*2)*1e-9)
	})
	e.Edges.Add(pc.total(2))
	e.chargePhase(ep, "edgemap", true, true, a.Count())
	if b == nil {
		return state.NewEmpty(e.bounds)
	}
	return b.Build()
}

// edgeMapDensePull scans all destinations; each gathers from in-neighbours
// with random global reads (RAND|R|G), early-exiting once Cond fails. As
// in push, each chunk is one segment of the CSR, gathered in one PullRows
// call when the kernel has the segment form (sg.PullRowKernel), else edge
// by edge (sg.PullRowsPerEdge); the rows it updated come back as hits.
// The charged counts are the same.
func edgeMapDensePull[K sg.EdgeKernel](e *Engine, a *state.Subset, k K, h sg.Hints) *state.Subset {
	n := e.G.NumVertices()
	pk := sg.PullRowKernelOf(k)
	var b *state.Builder
	if !h.NoOutput {
		b = e.scr.builder.Builder(e.bounds, e.M.Threads(), true, e.degreeOf)
	}
	ep, pc := e.scr.beginPhase()
	dataWS := int64(n) * int64(h.DataBytes)
	rs, active, s := e.csr(false, h.Weighted), e.leaf(a), e.scr
	if chunk := int(e.vSweep.MaxChunk()); cap(s.hits) < chunk {
		s.hits = make([]int32, 0, chunk) // once per engine
	}

	e.RunPhase(func(th int) {
		var scanned, edges, updates int64
		e.vSweep.Do(th, func(lo, hi int64) {
			var ed int64
			if pk != nil {
				ed, s.hits = pk.PullRows(rs, int(lo), int(hi), active, 0, s.hits[:0])
			} else {
				ed, s.hits = sg.PullRowsPerEdge(k, rs, int(lo), int(hi), active, 0, s.hits[:0])
			}
			scanned, edges, updates = scanned+hi-lo, edges+ed, updates+int64(len(s.hits))
			if b != nil {
				for _, r := range s.hits {
					b.SetIn(0, graph.Vertex(r))
				}
			}
		})
		pc.slots[th] = [4]int64{scanned, 0, edges, updates}
	})
	if e.Err() != nil {
		return state.NewEmpty(e.bounds)
	}
	per := pc.per(e.M.Threads())
	ep.ChargeNodes(func(th, _ int) {
		scanned, edges, updates := per[0], per[2], per[3]
		e.TierState.AccessInterleaved(ep, th, numa.Seq, numa.Load, scanned, 16+h.DataBytes, 0)
		e.TierTopo.AccessInterleaved(ep, th, numa.Seq, numa.Load, edges, edgeBytes(h), 0)
		// Source state reads: centralized random.
		e.TierFrontier.Access(ep, th, numa.Rand, numa.Load, 0, edges, 1, int64(n))
		// Source data reads: random global (RAND|R|G).
		e.TierState.AccessInterleaved(ep, th, numa.Rand, numa.Load, edges, h.DataBytes, dataWS)
		// Destination writes: interleaved sequential.
		e.TierState.AccessInterleaved(ep, th, numa.Seq, numa.Store, updates, h.DataBytes+1, 0)
		ep.Compute(th, (float64(edges)*(h.NsPerEdge+e.opt.OverheadNsPerEdge)+float64(scanned)*2)*1e-9)
	})
	e.Edges.Add(pc.total(2))
	e.chargePhase(ep, "edgemap", true, false, a.Count())
	if b == nil {
		return state.NewEmpty(e.bounds)
	}
	return b.Build()
}

// edgeMapSparse iterates the frontier list; each active vertex pushes
// along its out-edges.
func edgeMapSparse[K sg.EdgeKernel](e *Engine, a *state.Subset, k K, h sg.Hints) *state.Subset {
	g := e.G
	n := g.NumVertices()
	collect := !h.NoOutput
	var b *state.Builder
	if collect {
		b = e.scr.builder.Builder(e.bounds, e.M.Threads(), false, e.degreeOf)
	}
	ep, pc := e.scr.beginPhase()
	frontier := a.List(0)
	ck := par.MakeStrided(int64(len(frontier)), par.ChunkSize(int64(len(frontier)), e.M.Threads()), e.M.Threads())
	dataWS := int64(n) * int64(h.DataBytes)

	e.RunPhase(func(th int) {
		var active, edges, updates int64
		ck.Do(th, func(lo, hi int64) {
			for i := lo; i < hi; i++ {
				s := frontier[i]
				active++
				nbrs := g.OutNeighbors(s)
				wts := g.OutWeights(s)
				for j, t := range nbrs {
					edges++
					if !k.Cond(t) {
						continue
					}
					var w float32
					if h.Weighted && wts != nil {
						w = wts[j]
					}
					if k.Update(s, t, w) {
						if collect {
							b.Add(th, t)
						}
						updates++
					}
				}
			}
		})
		pc.slots[th] = [4]int64{active, 0, edges, updates}
	})
	if e.Err() != nil {
		return state.NewEmpty(e.bounds)
	}
	per := pc.per(e.M.Threads())
	ep.ChargeNodes(func(th, _ int) {
		active, edges, updates := per[0], per[2], per[3]
		// Frontier list: centralized sequential read; vertex metadata and
		// source data: random interleaved (frontier order is arbitrary).
		e.TierFrontier.Access(ep, th, numa.Seq, numa.Load, 0, active, 4, 0)
		e.TierState.AccessInterleaved(ep, th, numa.Rand, numa.Load, active, 16+h.DataBytes, dataWS)
		e.TierTopo.AccessInterleaved(ep, th, numa.Seq, numa.Load, edges, edgeBytes(h), 0)
		e.TierState.AccessInterleaved(ep, th, numa.Rand, numa.Store, edges, h.DataBytes, dataWS)
		// Queue appends: centralized sequential writes.
		e.TierFrontier.Access(ep, th, numa.Seq, numa.Store, 0, updates, 4, 0)
		ep.Compute(th, (float64(edges)*(h.NsPerEdge+e.opt.OverheadNsPerEdge)+float64(active)*2)*1e-9)
	})
	e.Edges.Add(pc.total(2))
	e.chargePhase(ep, "edgemap", false, true, a.Count())
	if !collect {
		return state.NewEmpty(e.bounds)
	}
	return b.Build()
}

// VertexMap applies f to the active set.
func (e *Engine) VertexMap(a *state.Subset, f sg.VertexFunc) *state.Subset {
	if a.IsEmpty() || e.Err() != nil {
		return state.NewEmpty(e.bounds)
	}
	b := e.scr.builder.Builder(e.bounds, e.M.Threads(), a.Dense(), e.degreeOf)
	ep, _ := e.scr.beginPhase()

	if a.Dense() {
		words := a.Words(0)
		e.RunPhase(func(th int) {
			var visited, scanned int64
			e.vmWords.Do(th, func(lo, hi int64) {
				scanned += hi - lo
				for wi := lo; wi < hi; wi++ {
					w := words[wi]
					for w != 0 {
						bit := bits.TrailingZeros64(w)
						v := graph.Vertex(int(wi)*64 + bit)
						visited++
						if f(v) {
							b.SetIn(0, v)
						}
						w &= w - 1
					}
				}

			})
			e.TierFrontier.Access(ep, th, numa.Seq, numa.Load, 0, scanned, 8, 0)
			e.TierState.AccessInterleaved(ep, th, numa.Seq, numa.Load, visited, 16, 0)
			ep.Compute(th, float64(visited)*2e-9)
		})
	} else {
		list := a.List(0)
		ck := par.MakeStrided(int64(len(list)), 64, e.M.Threads())
		e.RunPhase(func(th int) {
			var visited int64
			ck.Do(th, func(lo, hi int64) {
				for i := lo; i < hi; i++ {
					visited++
					if f(list[i]) {
						b.Add(th, list[i])
					}
				}

			})
			e.TierFrontier.Access(ep, th, numa.Seq, numa.Load, 0, visited, 4, 0)
			e.TierState.AccessInterleaved(ep, th, numa.Rand, numa.Load, visited, 16, int64(e.G.NumVertices())*16)
			ep.Compute(th, float64(visited)*2e-9)
		})
	}
	if e.Err() != nil {
		return state.NewEmpty(e.bounds)
	}
	e.chargePhase(ep, "vertexmap", a.Dense(), false, a.Count())
	return b.Build()
}

func edgeBytes(h sg.Hints) int {
	if h.Weighted {
		return 8
	}
	return 4
}

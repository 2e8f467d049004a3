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
	"context"
	"math/bits"
	"sync/atomic"

	"polymer/internal/barrier"
	"polymer/internal/graph"
	"polymer/internal/mem"
	"polymer/internal/numa"
	"polymer/internal/obs"
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

// Engine is a Ligra instance. It implements sg.Engine.
type Engine struct {
	g   *graph.Graph
	m   *numa.Machine
	opt Options

	bounds []int // single leaf: Ligra's state is one flat structure

	pool   *par.Pool
	ledger *numa.Epoch
	clock  float64
	arrays []interface{ Free() }
	edges  atomic.Int64
	closed bool

	err  error           // first execution failure
	ctx  context.Context // optional cancellation; nil means background
	snap *simSnapshot    // SnapshotSim/RestoreSim slot
	tr   *obs.Tracer     // nil = tracing disabled

	scr      *scratch
	degreeOf func(v uint32) int64

	// Tiered-memory demand classes (nil when untiered; the wrappers'
	// nil fast path keeps charging bit-identical).
	tierPlan     *mem.TierPlan
	tierTopo     *mem.TierClass
	tierState    *mem.TierClass
	tierFrontier *mem.TierClass

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
	pool, err := par.NewNodePool(m.Nodes, m.CoresPerNode)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		g: g, m: m, opt: opt,
		bounds: []int{0, g.NumVertices()},
		pool:   pool,
		ledger: m.NewEpoch(),
	}
	e.scr = &scratch{ep: m.NewEpoch(), pc: newPhaseCounts(m.Threads())}
	e.degreeOf = func(v uint32) int64 { return g.OutDegree(graph.Vertex(v)) }
	n := int64(g.NumVertices())
	e.vSweep = par.MakeStrided(n, par.ChunkSize(n, m.Threads()), m.Threads())
	e.vmWords = par.MakeStrided((n+63)/64, 64, m.Threads())
	if err := m.Alloc().Grow("ligra/topology", g.TopologyBytes()); err != nil {
		return nil, err
	}
	e.initTier()
	return e, nil
}

// initTier registers Ligra's demand classes: interleaved topology and
// application data, centralized runtime state (pinned under the hot
// policy). Untiered machines leave every handle nil.
func (e *Engine) initTier() {
	e.tierPlan = mem.NewTierPlan(e.m)
	if e.tierPlan == nil {
		return
	}
	nodes := e.m.Nodes
	e.tierFrontier = e.tierPlan.AddClass(mem.ClassSpec{
		Label: "frontier", BytesPerNode: make([]int64, nodes), Pinned: true,
	})
	e.tierState = e.tierPlan.AddClass(mem.ClassSpec{
		Label: "state", BytesPerNode: make([]int64, nodes), Priority: 0,
	})
	e.tierTopo = e.tierPlan.AddClass(mem.ClassSpec{
		Label: "topology", BytesPerNode: make([]int64, nodes), Priority: 1,
	})
	// Ligra's short-term state is centrally allocated on node 0.
	e.tierFrontier.GrowDemand(0, 2*int64(e.g.NumVertices()))
	e.tierTopo.GrowDemandEven(e.g.TopologyBytes())
	e.tierState.SetHotMass(mem.DegreeHotMass(e.g.NumVertices(), func(i int) int64 {
		return e.g.OutDegree(graph.Vertex(i)) + 1
	}))
}

// TierPlan returns the engine's tier placement plan (nil when untiered).
func (e *Engine) TierPlan() *mem.TierPlan { return e.tierPlan }

// MustNew is New panicking on error, for statically valid configurations.
func MustNew(g *graph.Graph, m *numa.Machine, opt Options) *Engine {
	e, err := New(g, m, opt)
	if err != nil {
		panic(err)
	}
	return e
}

// Graph returns the input graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Machine returns the simulated machine.
func (e *Engine) Machine() *numa.Machine { return e.m }

// Bounds returns the (single-leaf) state bounds.
func (e *Engine) Bounds() []int { return e.bounds }

// SimSeconds returns the accumulated simulated runtime.
func (e *Engine) SimSeconds() float64 { return e.clock }

// AddSimSeconds charges extra simulated time.
func (e *Engine) AddSimSeconds(s float64) { e.clock += s }

// RunStats returns accumulated access statistics.
func (e *Engine) RunStats() numa.Stats { return e.ledger.Stats() }

// EdgesProcessed returns the total number of edge applications.
func (e *Engine) EdgesProcessed() int64 { return e.edges.Load() }

// ThreadSeconds returns per-thread simulated busy time.
func (e *Engine) ThreadSeconds() []float64 {
	out := make([]float64, e.m.Threads())
	for th := range out {
		out[th] = e.ledger.ThreadSeconds(th)
	}
	return out
}

// NewData allocates an interleaved float64 per-vertex array (first-touch
// by construction threads).
func (e *Engine) NewData(label string) *mem.Array[float64] {
	a := mem.New[float64](e.m, label, e.g.NumVertices(), mem.Interleaved, nil)
	a.BindTier(e.tierState).GrowTierDemand()
	e.arrays = append(e.arrays, a)
	return a
}

// NewData32 allocates an interleaved uint32 per-vertex array.
func (e *Engine) NewData32(label string) *mem.Array[uint32] {
	a := mem.New[uint32](e.m, label, e.g.NumVertices(), mem.Interleaved, nil)
	a.BindTier(e.tierState).GrowTierDemand()
	e.arrays = append(e.arrays, a)
	return a
}

// Close releases simulated allocations.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, a := range e.arrays {
		a.Free()
	}
	e.m.Alloc().Release("ligra/topology", e.g.TopologyBytes())
}

// simSnapshot captures the engine's simulated-time state for rollback.
type simSnapshot struct {
	clock  float64
	ledger *numa.Epoch
	edges  int64
	tier   *mem.TierSnap
}

// Err returns the first execution failure, or nil. After a failure,
// EdgeMap/VertexMap are no-ops returning empty subsets until ClearErr.
func (e *Engine) Err() error { return e.err }

// ClearErr resets the failure so a rolled-back step can be replayed.
func (e *Engine) ClearErr() { e.err = nil }

func (e *Engine) fail(err error) {
	if e.err == nil && err != nil {
		e.err = err
	}
}

// SetFaultHook installs (nil removes) the fault injector's per-dispatch
// hook on the worker pool.
func (e *Engine) SetFaultHook(h func(th int) error) { e.pool.SetHook(h) }

// SetContext installs a cancellation context consulted around each
// parallel phase; nil restores the default (never cancelled). A cancelled
// context fails the phase before any simulated charging.
func (e *Engine) SetContext(ctx context.Context) { e.ctx = ctx }

// runPhase dispatches one parallel phase; on failure it records the error
// and returns false, and the caller must skip all simulated charging.
func (e *Engine) runPhase(fn func(th int)) bool {
	if e.err != nil {
		return false
	}
	var err error
	if e.ctx != nil {
		err = e.pool.RunCtx(e.ctx, fn)
	} else {
		err = e.pool.Run(fn)
	}
	if err != nil {
		e.fail(err)
		return false
	}
	return true
}

// SnapshotSim saves the simulated clock, cumulative ledger and edge
// counter; RestoreSim rolls back to the snapshot.
func (e *Engine) SnapshotSim() {
	if e.snap == nil {
		e.snap = &simSnapshot{ledger: e.m.NewEpoch()}
	}
	e.snap.clock = e.clock
	e.snap.ledger.CopyFrom(e.ledger)
	e.snap.edges = e.edges.Load()
	e.snap.tier = e.tierPlan.Snapshot()
}

// RestoreSim rolls the simulated-time state back to the last SnapshotSim.
func (e *Engine) RestoreSim() {
	if e.snap == nil {
		return
	}
	e.clock = e.snap.clock
	e.ledger.CopyFrom(e.snap.ledger)
	e.edges.Store(e.snap.edges)
	e.tierPlan.Restore(e.snap.tier)
}

func (e *Engine) chargePhase(ep *numa.Epoch, kind string, dense, push bool, active int64) {
	e.tierPlan.Step(ep)
	// Ligra's Cilk-style fork/join behaves like a tree (hierarchical)
	// barrier.
	dur := ep.Time() + barrier.SyncCost(barrier.H, e.m.Nodes)/e.m.Topo.SyncScale
	e.clock += dur
	e.ledger.Add(ep)
	if e.tr != nil {
		e.tr.Phase("ligra", kind, dense, push, active, e.clock-dur, dur)
	}
}

// SetTracer installs (nil removes) the obs tracer; phase events are
// stamped with the simulated clock, and the worker pool emits host-lane
// dispatch spans.
func (e *Engine) SetTracer(tr *obs.Tracer) {
	e.tr = tr
	e.pool.SetTracer(tr)
}

// Tracer, TraceCat and TrafficSnapshot make the engine an obs.SimSource.
func (e *Engine) Tracer() *obs.Tracer { return e.tr }

// TraceCat returns the engine's obs event category.
func (e *Engine) TraceCat() string { return "ligra" }

// TrafficSnapshot copies the cumulative classified run traffic into dst.
func (e *Engine) TrafficSnapshot(dst *numa.TrafficMatrix) { e.ledger.Traffic(dst) }

func (e *Engine) addEdges(n int64) {
	e.edges.Add(n)
}

// phaseCounts accumulates per-thread work in padded slots; totals are
// charged evenly across threads, modelling the Cilk work-stealing
// scheduler that keeps Ligra's edge work balanced under degree skew.
type phaseCounts struct {
	slots [][8]int64
}

func newPhaseCounts(threads int) *phaseCounts {
	return &phaseCounts{slots: make([][8]int64, threads)}
}

func (p *phaseCounts) reset() {
	for i := range p.slots {
		p.slots[i] = [8]int64{}
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

// EdgeMapK is EdgeMap generically typed on the kernel so that concrete
// kernels devirtualize in the per-edge loops; the interface method above
// is the fallback instantiation.
func EdgeMapK[K sg.EdgeKernel](e *Engine, a *state.Subset, k K, h sg.Hints) *state.Subset {
	h = h.Normalize()
	if a.IsEmpty() || e.err != nil {
		return state.NewEmpty(e.bounds)
	}
	dense := true
	if e.opt.Adaptive {
		deg := sg.ActiveDegree(e.g, a)
		dense = state.ShouldDense(a.Count(), deg, e.g.NumEdges(), e.opt.Threshold)
	}
	if !dense {
		return edgeMapSparse(e, a.ToSparse(), k, h)
	}
	if h.DensePush {
		return edgeMapDensePush(e, a.ToDense(), k, h)
	}
	return edgeMapDensePull(e, a.ToDense(), k, h)
}

// edgeMapDensePush scans all vertices; active ones push along out-edges
// with random global writes (the paper's RAND|W|G pattern).
func edgeMapDensePush[K sg.EdgeKernel](e *Engine, a *state.Subset, k K, h sg.Hints) *state.Subset {
	g := e.g
	n := g.NumVertices()
	collect := !h.NoOutput
	var b *state.Builder
	if collect {
		b = state.NewBuilder(e.bounds, e.m.Threads(), true).Reuse(&e.scr.builder).WithDegrees(e.degreeOf)
	}
	ep, pc := e.scr.beginPhase()
	dataWS := int64(n) * int64(h.DataBytes)
	full := a.Count() == int64(n)

	e.runPhase(func(th int) {
		var scanned, active, edges, updates int64
		e.vSweep.Do(th, func(lo, hi int64) {
			for v := lo; v < hi; v++ {
				s := graph.Vertex(v)
				scanned++
				if !full && !a.Contains(s) {
					continue
				}
				active++
				nbrs := g.OutNeighbors(s)
				wts := g.OutWeights(s)
				if h.Weighted && wts != nil {
					for j, t := range nbrs {
						edges++
						if !k.Cond(t) {
							continue
						}
						if k.UpdateAtomic(s, t, wts[j]) {
							if collect {
								b.SetIn(0, th, t) // single leaf
							}
							updates++
						}
					}
				} else {
					for _, t := range nbrs {
						edges++
						if !k.Cond(t) {
							continue
						}
						if k.UpdateAtomic(s, t, 0) {
							if collect {
								b.SetIn(0, th, t) // single leaf
							}
							updates++
						}
					}
				}
			}
		})
		pc.slots[th] = [8]int64{scanned, active, edges, updates}
	})
	if e.err != nil {
		return state.NewEmpty(e.bounds) // failed phase charges nothing
	}
	per := pc.per(e.m.Threads())
	for th := 0; th < e.m.Threads(); th++ {
		scanned, active, edges, updates := per[0], per[1], per[2], per[3]
		// Current state: centralized short-term allocation (node 0).
		e.tierFrontier.Access(ep, th, numa.Seq, numa.Load, 0, scanned, 1, 0)
		// Vertex metadata + source data: interleaved sequential.
		e.tierTopo.AccessInterleaved(ep, th, numa.Seq, numa.Load, scanned, 16, 0)
		e.tierState.AccessInterleaved(ep, th, numa.Seq, numa.Load, active, h.DataBytes, 0)
		// Out-edges: interleaved sequential stream.
		e.tierTopo.AccessInterleaved(ep, th, numa.Seq, numa.Load, edges, edgeBytes(h), 0)
		// Neighbour data: random global writes (RAND|W|G).
		e.tierState.AccessInterleaved(ep, th, numa.Rand, numa.Store, edges, h.DataBytes, dataWS)
		// Next state: centralized random writes.
		e.tierFrontier.Access(ep, th, numa.Rand, numa.Store, 0, updates, 1, int64(n))
		ep.Compute(th, (float64(edges)*(h.NsPerEdge+e.opt.OverheadNsPerEdge)+float64(scanned)*2)*1e-9)
	}
	e.addEdges(pc.total(2))
	e.chargePhase(ep, "edgemap", true, true, a.Count())
	if !collect {
		return state.NewEmpty(e.bounds)
	}
	return b.Build()
}

// edgeMapDensePull scans all destinations; each gathers from in-neighbours
// with random global reads (RAND|R|G), early-exiting once Cond fails.
func edgeMapDensePull[K sg.EdgeKernel](e *Engine, a *state.Subset, k K, h sg.Hints) *state.Subset {
	g := e.g
	n := g.NumVertices()
	collect := !h.NoOutput
	var b *state.Builder
	if collect {
		b = state.NewBuilder(e.bounds, e.m.Threads(), true).Reuse(&e.scr.builder).WithDegrees(e.degreeOf)
	}
	ep, pc := e.scr.beginPhase()
	dataWS := int64(n) * int64(h.DataBytes)
	full := a.Count() == int64(n)

	e.runPhase(func(th int) {
		var scanned, edges, updates int64
		e.vSweep.Do(th, func(lo, hi int64) {
			for v := lo; v < hi; v++ {
				t := graph.Vertex(v)
				scanned++
				if !k.Cond(t) {
					continue
				}
				nbrs := g.InNeighbors(t)
				wts := g.InWeights(t)
				updated := false
				for j, s := range nbrs {
					edges++
					if !full && !a.Contains(s) {
						continue
					}
					var w float32
					if h.Weighted && wts != nil {
						w = wts[j]
					}
					if k.Update(s, t, w) {
						updated = true
					}
					if !k.Cond(t) {
						break
					}
				}
				if updated {
					if collect {
						b.SetIn(0, th, t)
					}
					updates++
				}
			}
		})
		pc.slots[th] = [8]int64{scanned, 0, edges, updates}
	})
	if e.err != nil {
		return state.NewEmpty(e.bounds)
	}
	per := pc.per(e.m.Threads())
	for th := 0; th < e.m.Threads(); th++ {
		scanned, edges, updates := per[0], per[2], per[3]
		e.tierState.AccessInterleaved(ep, th, numa.Seq, numa.Load, scanned, 16+h.DataBytes, 0)
		e.tierTopo.AccessInterleaved(ep, th, numa.Seq, numa.Load, edges, edgeBytes(h), 0)
		// Source state reads: centralized random.
		e.tierFrontier.Access(ep, th, numa.Rand, numa.Load, 0, edges, 1, int64(n))
		// Source data reads: random global (RAND|R|G).
		e.tierState.AccessInterleaved(ep, th, numa.Rand, numa.Load, edges, h.DataBytes, dataWS)
		// Destination writes: interleaved sequential.
		e.tierState.AccessInterleaved(ep, th, numa.Seq, numa.Store, updates, h.DataBytes+1, 0)
		ep.Compute(th, (float64(edges)*(h.NsPerEdge+e.opt.OverheadNsPerEdge)+float64(scanned)*2)*1e-9)
	}
	e.addEdges(pc.total(2))
	e.chargePhase(ep, "edgemap", true, false, a.Count())
	if !collect {
		return state.NewEmpty(e.bounds)
	}
	return b.Build()
}

// edgeMapSparse iterates the frontier list; each active vertex pushes
// along its out-edges.
func edgeMapSparse[K sg.EdgeKernel](e *Engine, a *state.Subset, k K, h sg.Hints) *state.Subset {
	g := e.g
	n := g.NumVertices()
	collect := !h.NoOutput
	var b *state.Builder
	if collect {
		b = state.NewBuilder(e.bounds, e.m.Threads(), false).Reuse(&e.scr.builder).WithDegrees(e.degreeOf)
	}
	ep, pc := e.scr.beginPhase()
	frontier := a.List(0)
	ck := par.MakeStrided(int64(len(frontier)), par.ChunkSize(int64(len(frontier)), e.m.Threads()), e.m.Threads())
	dataWS := int64(n) * int64(h.DataBytes)

	e.runPhase(func(th int) {
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
					if k.UpdateAtomic(s, t, w) {
						if collect {
							b.Add(th, t)
						}
						updates++
					}
				}
			}
		})
		pc.slots[th] = [8]int64{active, 0, edges, updates}
	})
	if e.err != nil {
		return state.NewEmpty(e.bounds)
	}
	per := pc.per(e.m.Threads())
	for th := 0; th < e.m.Threads(); th++ {
		active, edges, updates := per[0], per[2], per[3]
		// Frontier list: centralized sequential read; vertex metadata and
		// source data: random interleaved (frontier order is arbitrary).
		e.tierFrontier.Access(ep, th, numa.Seq, numa.Load, 0, active, 4, 0)
		e.tierState.AccessInterleaved(ep, th, numa.Rand, numa.Load, active, 16+h.DataBytes, dataWS)
		e.tierTopo.AccessInterleaved(ep, th, numa.Seq, numa.Load, edges, edgeBytes(h), 0)
		e.tierState.AccessInterleaved(ep, th, numa.Rand, numa.Store, edges, h.DataBytes, dataWS)
		// Queue appends: centralized sequential writes.
		e.tierFrontier.Access(ep, th, numa.Seq, numa.Store, 0, updates, 4, 0)
		ep.Compute(th, (float64(edges)*(h.NsPerEdge+e.opt.OverheadNsPerEdge)+float64(active)*2)*1e-9)
	}
	e.addEdges(pc.total(2))
	e.chargePhase(ep, "edgemap", false, true, a.Count())
	if !collect {
		return state.NewEmpty(e.bounds)
	}
	return b.Build()
}

// VertexMap applies f to the active set.
func (e *Engine) VertexMap(a *state.Subset, f sg.VertexFunc) *state.Subset {
	if a.IsEmpty() || e.err != nil {
		return state.NewEmpty(e.bounds)
	}
	b := state.NewBuilder(e.bounds, e.m.Threads(), a.Dense()).Reuse(&e.scr.builder).WithDegrees(e.degreeOf)
	ep, _ := e.scr.beginPhase()

	if a.Dense() {
		words := a.Words(0)
		e.runPhase(func(th int) {
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
							b.SetIn(0, th, v)
						}
						w &= w - 1
					}
				}

			})
			e.tierFrontier.Access(ep, th, numa.Seq, numa.Load, 0, scanned, 8, 0)
			e.tierState.AccessInterleaved(ep, th, numa.Seq, numa.Load, visited, 16, 0)
			ep.Compute(th, float64(visited)*2e-9)
		})
	} else {
		list := a.List(0)
		ck := par.MakeStrided(int64(len(list)), 64, e.m.Threads())
		e.runPhase(func(th int) {
			var visited int64
			ck.Do(th, func(lo, hi int64) {
				for i := lo; i < hi; i++ {
					visited++
					if f(list[i]) {
						b.Add(th, list[i])
					}
				}

			})
			e.tierFrontier.Access(ep, th, numa.Seq, numa.Load, 0, visited, 4, 0)
			e.tierState.AccessInterleaved(ep, th, numa.Rand, numa.Load, visited, 16, int64(e.g.NumVertices())*16)
			ep.Compute(th, float64(visited)*2e-9)
		})
	}
	if e.err != nil {
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

package sg

import (
	"context"

	"polymer/internal/barrier"
	"polymer/internal/graph"
	"polymer/internal/mem"
	"polymer/internal/numa"
	"polymer/internal/obs"
	"polymer/internal/par"
)

// Base is the lifecycle every engine embeds: the graph and machine it is
// bound to, the worker pool, the simulated clock and run ledger, the
// first-error latch, cancellation context, fault hook, rollback slot,
// tracer wiring and the three tiered-memory demand classes. An engine
// adds only what is its own (layouts, kernels, phase charging recipes);
// Polymer and Ligra embed it through Sweep, which also runs their phases.
//
// The exported fields are the engines' hot-path state; everything a
// consumer needs is a method.
type Base struct {
	G    *graph.Graph
	M    *numa.Machine
	Pool *par.Pool

	Ledger *numa.Epoch // whole-run accumulation
	Clock  float64     // simulated seconds, barrier costs included
	Edges  int64       // edge applications
	// Round counts committed supersteps on engines that own their
	// superstep loop (X-Stream, Galois) and number their own events.
	Round int

	// Tier is the engine's tiered-memory placement (see Tiers).
	Tier Tiers

	Tr  *obs.Tracer // nil = tracing disabled
	cat string      // obs event category

	// syncCost[kind] is one crossing of that barrier on this machine, in
	// simulated seconds; fixed at Init (barrier.SyncCost is a math.Pow).
	syncCost [barrier.N + 1]float64

	// arrays is every array NewArray made. The released ones are the
	// free list: NewArray reuses one before it allocates. epochs is every
	// ledger NewEpoch made. Close retires both.
	arrays []interface{ Retire() }
	epochs []*numa.Epoch
	err    error           // first execution failure (see Fail/Err)
	ctx    context.Context // optional cancellation; nil means background
	snap   *simSnapshot    // single slot for SnapshotSim/RestoreSim
	extra  SnapExtra
}

// SnapExtra is the engine-specific state saved and rolled back alongside
// the base's (Polymer's metrics and phase-trace length, X-Stream's active
// set). SnapshotExtra runs after the base saved its part, RestoreExtra
// after it restored.
type SnapExtra interface {
	SnapshotExtra()
	RestoreExtra()
}

// simSnapshot captures the simulated-time state so a superstep can be
// rolled back after an injected fault.
type simSnapshot struct {
	clock  float64
	ledger *numa.Epoch
	edges  int64
	round  int
	tier   *mem.TierSnap
}

// Init binds the base to g and m under the obs category cat and builds
// the worker pool and run ledger. extra may be nil. It returns an error
// for a machine with no threads.
func (b *Base) Init(cat string, g *graph.Graph, m *numa.Machine, extra SnapExtra) error {
	pool, err := par.NewNodePool(m.Nodes, m.CoresPerNode)
	if err != nil {
		return err
	}
	b.G, b.M, b.Pool, b.cat, b.extra = g, m, pool, cat, extra
	b.Ledger = b.NewEpoch()
	for kind := range b.syncCost {
		b.syncCost[kind] = barrier.SyncCost(barrier.Kind(kind), m.Nodes) / m.Topo.SyncScale
	}
	return nil
}

// Tiers is an engine's tier plan and the three demand classes competing
// for its DRAM: runtime state, per-vertex data and topology. All are nil on
// an untiered machine, where the charge wrappers pass through.
type Tiers struct {
	Plan                  *mem.TierPlan
	Frontier, State, Topo *mem.TierClass
}

// NewTiers registers the classes on m's tier plan, for every engine and for
// the planner's machine: runtime state pinned, placed by the engine's rule
// frontier; per-vertex data, whose access mass follows degree(i)+1 over
// the n vertices; topology streams of topoBytes.
func NewTiers(m *numa.Machine, frontier func(fr *mem.TierClass), topoBytes int64, n int, degree func(i int) int64) Tiers {
	tp := mem.NewTierPlan(m)
	if tp == nil {
		return Tiers{}
	}
	class := func(label string, priority int, pinned bool) *mem.TierClass {
		return tp.AddClass(mem.ClassSpec{Label: label, BytesPerNode: make([]int64, m.Nodes), Priority: priority, Pinned: pinned})
	}
	t := Tiers{Plan: tp, Frontier: class("frontier", 0, true), State: class("state", 0, false), Topo: class("topology", 1, false)}
	frontier(t.Frontier)
	t.Topo.GrowDemandEven(topoBytes)
	t.State.SetHotMass(mem.DegreeHotMass(n, func(i int) int64 { return degree(i) + 1 }))
	return t
}

// InitTier registers the engine's demand classes (NewTiers), ranking its
// graph's vertices by out-degree.
func (b *Base) InitTier(topoBytes int64, frontier func(fr *mem.TierClass)) {
	g := b.G
	b.Tier = NewTiers(b.M, frontier, topoBytes, g.NumVertices(), func(i int) int64 { return g.OutDegree(graph.Vertex(i)) })
}

// TierPlan returns the engine's tier placement plan (nil when untiered),
// for provenance and the conformance suite.
func (b *Base) TierPlan() *mem.TierPlan { return b.Tier.Plan }

// Graph returns the input graph.
func (b *Base) Graph() *graph.Graph { return b.G }

// Machine returns the simulated machine.
func (b *Base) Machine() *numa.Machine { return b.M }

// SimSeconds returns the accumulated simulated runtime, including barrier
// costs.
func (b *Base) SimSeconds() float64 { return b.Clock }

// AddSimSeconds charges extra simulated time (for work outside the
// engine's own phases).
func (b *Base) AddSimSeconds(s float64) { b.Clock += s }

// RunStats returns accumulated classified-access statistics (Table 4).
func (b *Base) RunStats() numa.Stats { return b.Ledger.Stats() }

// EdgesProcessed returns the total number of edge applications.
func (b *Base) EdgesProcessed() int64 { return b.Edges }

// ThreadSeconds returns the per-thread simulated busy time (Figure 11b).
func (b *Base) ThreadSeconds() []float64 {
	out := make([]float64, b.M.Threads())
	for th := range out {
		out[th] = b.Ledger.ThreadSeconds(th)
	}
	return out
}

// NewArray hands out a zeroed per-vertex array on the engine's machine,
// bound to the state demand class. A driver's arrays are run-scoped: it
// hands back (mem.Array.Release) every one it does not return or keep,
// and NewArray takes a released array of the same element type, label,
// placement and bounds back into service (mem.Array.Reuse) before it
// allocates and registers a new one for Close. Either way the tracker
// sees the same Grow under the same label and bytes, and an injected
// allocation failure panics with the *numa.AllocFailure, leaving a reused
// array released.
func NewArray[T any](b *Base, label string, place mem.Placement, bounds []int) *mem.Array[T] {
	for _, h := range b.arrays {
		if a, ok := h.(*mem.Array[T]); ok && a.Reusable(label, place, bounds) {
			if err := a.Reuse(); err != nil {
				panic(err)
			}
			return a
		}
	}
	a := mem.New[T](b.M, label, b.G.NumVertices(), place, bounds)
	a.BindTier(b.Tier.State).GrowTierDemand()
	b.arrays = append(b.arrays, a)
	return a
}

// NewEpoch returns a ledger on the engine's machine (numa.Machine.NewEpoch)
// that Close recycles: the run ledger, the snapshot slot's, and an
// engine's phase epochs.
func (b *Base) NewEpoch() *numa.Epoch {
	ep := b.M.NewEpoch()
	b.epochs = append(b.epochs, ep)
	return ep
}

// Close hands the engine's host storage to the next engine of the same
// shape: every array NewArray handed out is freed on the tracker, which
// sees the same Release a Free records, and its storage goes to the spare
// list (mem.Array.Retire); every ledger NewEpoch made goes back to the
// spare list of ledgers (numa.Epoch.Recycle). An engine's own Close calls
// it once, beside releasing what is its own.
//
// The contract: nothing reads an engine's arrays or epochs after Close. A
// driver returns copies of its arrays, never the arrays (algorithms'
// runArrays), and a caller takes every reading it wants (RunStats,
// ThreadSeconds, TrafficSnapshot) before it closes the engine; the next
// engine may already be writing the storage.
func (b *Base) Close() {
	for _, a := range b.arrays {
		a.Retire()
	}
	for _, ep := range b.epochs {
		ep.Recycle()
	}
	b.arrays, b.epochs = nil, nil
	b.Ledger, b.snap = nil, nil
}

// ChargePhase folds one phase epoch into the run ledger and clock,
// including a crossing of the given barrier; the tier migration cost
// lands in the phase it follows. It returns the phase's total simulated
// duration and the barrier's share of it.
func (b *Base) ChargePhase(ep *numa.Epoch, kind barrier.Kind) (dur, sync float64) {
	b.Tier.Plan.Step(ep)
	sync = b.syncCost[kind]
	dur = ep.Time() + sync
	b.Clock += dur
	b.Ledger.Add(ep)
	return dur, sync
}

// Err returns the first execution failure recorded during a parallel
// phase (worker panic, offline node, allocation failure, cancelled
// context, missed phase deadline), or nil. Once set, the engine's phases
// are no-ops that charge nothing, so a failed superstep leaves no residue
// in the simulated clock beyond what the resilience layer rolls back.
func (b *Base) Err() error { return b.err }

// ClearErr resets the failure so a rolled-back superstep can be replayed.
func (b *Base) ClearErr() { b.err = nil }

// Fail records the first failure.
func (b *Base) Fail(err error) {
	if b.err == nil && err != nil {
		b.err = err
	}
}

// SetContext installs a cancellation context consulted before each
// parallel phase; nil restores the default (never cancelled). A cancelled
// context fails the phase before any simulated charging.
func (b *Base) SetContext(ctx context.Context) { b.ctx = ctx }

// SetFaultHook installs (nil removes) the fault injector's per-dispatch
// hook on the engine's worker pool.
func (b *Base) SetFaultHook(h func(th int) error) { b.Pool.SetHook(h) }

// RunPhase dispatches one parallel phase, honouring the engine context.
// It returns false if the phase failed (the failure is recorded on the
// engine) — callers must then skip all simulated charging for the phase:
// a request cancelled mid-run stops charging the simulated clock at the
// superstep boundary.
func (b *Base) RunPhase(fn func(th int)) bool {
	if b.err != nil {
		return false
	}
	var err error
	if b.ctx != nil {
		err = b.Pool.RunCtx(b.ctx, fn)
	} else {
		err = b.Pool.Run(fn)
	}
	if err != nil {
		b.Fail(err)
		return false
	}
	return true
}

// SnapshotSim saves the simulated-time state (clock, cumulative ledger,
// edge counter, round, tier placement, plus the engine's extra) into the
// single snapshot slot; RestoreSim rolls back to it. The resilience layer
// wraps each superstep in a Snapshot/Restore pair so an injected fault's
// partial charges are discarded before replay.
func (b *Base) SnapshotSim() {
	if b.snap == nil {
		b.snap = &simSnapshot{ledger: b.NewEpoch()}
	}
	b.snap.clock = b.Clock
	b.snap.ledger.CopyFrom(b.Ledger)
	b.snap.edges = b.Edges
	b.snap.round = b.Round
	b.snap.tier = b.Tier.Plan.Snapshot()
	if b.extra != nil {
		b.extra.SnapshotExtra()
	}
}

// RestoreSim rolls the simulated-time state back to the last SnapshotSim.
func (b *Base) RestoreSim() {
	if b.snap == nil {
		return
	}
	b.Clock = b.snap.clock
	b.Ledger.CopyFrom(b.snap.ledger)
	b.Edges = b.snap.edges
	b.Round = b.snap.round
	b.Tier.Plan.Restore(b.snap.tier)
	if b.extra != nil {
		b.extra.RestoreExtra()
	}
}

// SetTracer installs (nil removes) the obs tracer. Phase events are
// stamped with the simulated clock; the worker pool additionally emits
// host-lane dispatch spans.
func (b *Base) SetTracer(tr *obs.Tracer) {
	b.Tr = tr
	b.Pool.SetTracer(tr)
}

// Tracer, TraceCat, SimSeconds and TrafficSnapshot make every engine an
// obs.SimSource. Drivers wrap Polymer's and Ligra's supersteps in
// obs.BeginStep/End; X-Stream's Iterate and Galois's rounds emit
// superstep events themselves, so drivers must not wrap those.
func (b *Base) Tracer() *obs.Tracer { return b.Tr }

// TraceCat returns the engine's obs event category.
func (b *Base) TraceCat() string { return b.cat }

// TrafficSnapshot copies the cumulative classified run traffic into dst.
func (b *Base) TrafficSnapshot(dst *numa.TrafficMatrix) { b.Ledger.Traffic(dst) }

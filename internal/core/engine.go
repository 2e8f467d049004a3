// Package core implements Polymer, the paper's NUMA-aware graph-analytics
// engine (Sections 4 and 5).
//
// Polymer treats the NUMA machine as a distributed system:
//
//   - the vertex space is split into per-node partitions (edge-balanced
//     for skewed graphs), and application data is co-located with its
//     owning node in one contiguous virtual array (mem.CoLocated);
//   - each node holds only the edges incident to its partition, grouped by
//     the far-side vertex through lightweight immutable replicas — agents —
//     so a vertex's computation is factored across nodes and every remote
//     read of application data happens in sequential order (the access
//     pattern Section 2.2 shows is fastest);
//   - runtime state lives in per-node leaves behind a lock-less lookup
//     table with adaptive dense/sparse representation;
//   - iterations synchronize with the hierarchical sense-reversing
//     N-Barrier, and nodes process rows in a rolling order starting from
//     their own partition to spread interconnect load.
//
// The engine computes real results, its simulated threads scheduled onto
// node-owning host workers (see package par); its memory traffic is
// charged to the simulated NUMA machine (see package numa) to produce
// simulated runtimes.
package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"polymer/internal/barrier"
	"polymer/internal/graph"
	"polymer/internal/mem"
	"polymer/internal/numa"
	"polymer/internal/obs"
	"polymer/internal/par"
	"polymer/internal/partition"
	"polymer/internal/sg"
)

// Mode selects the EdgeMap execution direction.
type Mode uint8

const (
	// Auto picks sparse-push or dense-pull adaptively per iteration
	// (direction-optimizing traversal).
	Auto Mode = iota
	// Push always scatters along out-edges (the paper's PR/SpMV/BP).
	Push
	// Pull always gathers along in-edges.
	Pull
)

// Options configures the engine; the zero value is not valid — use
// DefaultOptions and override.
type Options struct {
	// Mode is the EdgeMap direction policy.
	Mode Mode
	// Barrier selects the synchronization barrier (default N-Barrier).
	Barrier barrier.Kind
	// EdgeBalanced partitions by degree sums instead of vertex counts
	// (Section 5, "Balanced Partitioning").
	EdgeBalanced bool
	// Adaptive switches runtime-state leaves between bitmap and queues
	// (Section 5, "Adaptive Data Structures"). When false, EdgeMap always
	// runs dense.
	Adaptive bool
	// Threshold is the adaptive switch denominator: dense when
	// active+degree > |E|/Threshold (default 20, as in Ligra).
	Threshold float64
	// DisableAgents removes the per-node vertex replicas from the cost
	// model: far-side data reads are charged as random remote accesses,
	// as they would be without replication (ablation).
	DisableAgents bool
	// DisableRolling starts every node's row sweep at row 0 instead of
	// its own partition, so all nodes contend for the same remote node at
	// once; charged as interleaved traffic (ablation).
	DisableRolling bool
	// Layout overrides the application-data placement (ablation:
	// mem.Interleaved makes Polymer NUMA-oblivious).
	Layout mem.Placement
	// OverheadNsPerEdge is the engine's software overhead per edge.
	OverheadNsPerEdge float64
	// Trace records a PhaseRecord for every EdgeMap/VertexMap (small
	// overhead; off by default).
	Trace bool
	// PhaseTimeout, when positive, bounds the host wall-clock duration of
	// each parallel phase: a phase that takes longer records a deadline
	// error on the engine (workers are cooperative, so the phase still
	// joins; the error surfaces through Err after the join).
	PhaseTimeout time.Duration
}

// PhaseRecord describes one executed parallel phase when tracing is on.
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

// DefaultOptions returns the configuration the paper evaluates: push for
// dense phases unless the algorithm prefers otherwise, N-Barrier,
// edge-balanced partitioning, adaptive state, agents and rolling order on.
func DefaultOptions() Options {
	return Options{
		Mode:              Auto,
		Barrier:           barrier.N,
		EdgeBalanced:      true,
		Adaptive:          true,
		Threshold:         20,
		Layout:            mem.CoLocated,
		OverheadNsPerEdge: 1.0,
	}
}

// Metrics counts engine activity for the experiment harness.
type Metrics struct {
	EdgeMaps       int
	VertexMaps     int
	DensePhases    int
	SparsePhases   int
	EdgesProcessed int64
	BarrierSeconds float64
}

// Engine is a Polymer instance bound to one graph and one simulated
// machine. It implements sg.Engine.
type Engine struct {
	g   *graph.Graph
	m   *numa.Machine
	opt Options

	parts  []partition.Range
	bounds []int

	pool           *par.Pool
	ledger         *numa.Epoch // whole-run accumulation
	clock          float64
	met            Metrics
	edgesProcessed atomic.Int64 // workers accumulate without a lock

	scr      *scratch             // phase-scoped reusable buffers
	degreeOf func(v uint32) int64 // out-degree accessor for frontier builders

	push *layout // lazily built; keyed by source, columns are local targets
	pull *layout // lazily built; keyed by target, columns are local sources

	trace []PhaseRecord
	tr    *obs.Tracer // nil = tracing disabled

	arrays    []interface{ Free() }
	topoBytes int64
	closed    bool

	// Tiered-memory placement (all nil on untiered machines — the
	// wrappers' nil fast path keeps charging bit-identical): topology
	// streams, per-vertex application data, and pinned runtime state
	// compete for DRAM as three demand classes.
	tierPlan     *mem.TierPlan
	tierTopo     *mem.TierClass
	tierState    *mem.TierClass
	tierFrontier *mem.TierClass

	err  error           // first execution failure (see fail/Err)
	ctx  context.Context // optional cancellation; nil means background
	snap *simSnapshot    // single slot for SnapshotSim/RestoreSim
}

// simSnapshot captures the engine's simulated-time state so a superstep
// can be rolled back after an injected fault: clock, cumulative ledger,
// metrics, edge counter, and trace position.
type simSnapshot struct {
	clock  float64
	ledger *numa.Epoch
	met    Metrics
	edges  int64
	trace  int
	tier   *mem.TierSnap
}

var _ sg.Engine = (*Engine)(nil)

// New builds a Polymer engine for g on m. It returns an error for invalid
// configuration (a machine with no threads) or a simulated allocation
// failure.
func New(g *graph.Graph, m *numa.Machine, opt Options) (*Engine, error) {
	if opt.Threshold <= 0 {
		opt.Threshold = 20
	}
	if opt.OverheadNsPerEdge <= 0 {
		opt.OverheadNsPerEdge = 1.0
	}
	e := &Engine{g: g, m: m, opt: opt}
	if opt.EdgeBalanced {
		dir := partition.Out
		if opt.Mode == Push {
			dir = partition.In
		}
		e.parts = partition.EdgeBalanced(g, m.Nodes, dir)
	} else {
		e.parts = partition.VertexBalanced(g.NumVertices(), m.Nodes)
	}
	e.bounds = partition.Bounds(e.parts)
	pool, err := par.NewNodePool(m.Nodes, m.CoresPerNode)
	if err != nil {
		return nil, err
	}
	e.pool = pool
	e.ledger = m.NewEpoch()
	e.scr = newScratch(e)
	e.degreeOf = func(v uint32) int64 { return g.OutDegree(graph.Vertex(v)) }
	// The engine keeps the construction-stage graph resident alongside
	// its grouped per-node layouts (part of Table 5's footprint).
	if err := m.Alloc().Grow("polymer/graph", g.TopologyBytes()); err != nil {
		return nil, err
	}
	e.initTier()
	return e, nil
}

// initTier registers the engine's demand classes with the machine's tier
// plan. On untiered machines every handle stays nil and the charge
// wrappers pass through bit-identically.
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
	for p := 0; p < nodes; p++ {
		// Bitmaps, queues and per-vertex runtime-state bytes.
		e.tierFrontier.GrowDemand(p, 2*int64(e.bounds[p+1]-e.bounds[p]))
	}
	e.tierTopo.GrowDemandEven(e.g.TopologyBytes())
	// Hot-vertex placement: per-vertex data access mass follows degree.
	e.tierState.SetHotMass(mem.DegreeHotMass(e.g.NumVertices(), func(i int) int64 {
		return e.g.OutDegree(graph.Vertex(i)) + 1
	}))
}

// TierPlan returns the engine's tier placement plan (nil when untiered),
// for provenance and the conformance suite.
func (e *Engine) TierPlan() *mem.TierPlan { return e.tierPlan }

// MustNew is New panicking on error, for statically valid configurations
// (tests, examples, benchmarks).
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

// Bounds returns the per-node vertex partition offsets.
func (e *Engine) Bounds() []int { return e.bounds }

// Parts returns the per-node vertex ranges.
func (e *Engine) Parts() []partition.Range { return e.parts }

// Options returns the engine configuration.
func (e *Engine) Options() Options { return e.opt }

// Metrics returns activity counters.
func (e *Engine) Metrics() Metrics {
	m := e.met
	m.EdgesProcessed = e.edgesProcessed.Load()
	return m
}

// SimSeconds returns the accumulated simulated runtime, including barrier
// costs.
func (e *Engine) SimSeconds() float64 { return e.clock }

// AddSimSeconds charges extra simulated time (used by algorithm drivers
// for work outside EdgeMap/VertexMap).
func (e *Engine) AddSimSeconds(s float64) { e.clock += s }

// RunStats returns accumulated classified-access statistics (Table 4).
func (e *Engine) RunStats() numa.Stats { return e.ledger.Stats() }

// ThreadSeconds returns the per-thread simulated busy time (Figure 11b).
func (e *Engine) ThreadSeconds() []float64 {
	out := make([]float64, e.m.Threads())
	for th := range out {
		out[th] = e.ledger.ThreadSeconds(th)
	}
	return out
}

// NewData allocates a float64 per-vertex array with Polymer's co-located
// placement (or the ablation override).
func (e *Engine) NewData(label string) *mem.Array[float64] {
	a := e.newArray64(label)
	e.arrays = append(e.arrays, a)
	return a
}

// NewData32 allocates a uint32 per-vertex array (labels, parents).
func (e *Engine) NewData32(label string) *mem.Array[uint32] {
	var a *mem.Array[uint32]
	if e.opt.Layout == mem.CoLocated {
		a = mem.New[uint32](e.m, label, e.g.NumVertices(), mem.CoLocated, e.bounds)
	} else {
		a = mem.New[uint32](e.m, label, e.g.NumVertices(), e.opt.Layout, nil)
	}
	a.BindTier(e.tierState).GrowTierDemand()
	e.arrays = append(e.arrays, a)
	return a
}

func (e *Engine) newArray64(label string) *mem.Array[float64] {
	var a *mem.Array[float64]
	if e.opt.Layout == mem.CoLocated {
		a = mem.New[float64](e.m, label, e.g.NumVertices(), mem.CoLocated, e.bounds)
	} else {
		a = mem.New[float64](e.m, label, e.g.NumVertices(), e.opt.Layout, nil)
	}
	return a.BindTier(e.tierState).GrowTierDemand()
}

// Close releases simulated allocations.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.m.Alloc().Release("polymer/graph", e.g.TopologyBytes())
	for _, a := range e.arrays {
		a.Free()
	}
	if e.topoBytes > 0 {
		e.m.Alloc().Release("polymer/topology", e.topoBytes)
	}
	if e.push != nil && e.push.agentBytes > 0 {
		e.m.Alloc().Release("polymer/agents", e.push.agentBytes)
	}
	if e.pull != nil && e.pull.agentBytes > 0 {
		e.m.Alloc().Release("polymer/agents", e.pull.agentBytes)
	}
}

// chargePhase folds one phase epoch into the run ledger and clock,
// including a barrier crossing; it returns the phase's total simulated
// duration.
func (e *Engine) chargePhase(ep *numa.Epoch) float64 {
	e.tierPlan.Step(ep) // migration cost lands in the phase it follows
	t := ep.Time()
	b := barrier.SyncCost(e.opt.Barrier, e.m.Nodes) / e.m.Topo.SyncScale
	e.clock += t + b
	e.met.BarrierSeconds += b
	e.ledger.Add(ep)
	return t + b
}

// Err returns the first execution failure recorded during a parallel
// phase (worker panic, offline node, allocation failure, cancelled
// context, missed phase deadline), or nil. Once set, subsequent
// EdgeMap/VertexMap calls are no-ops returning empty frontiers and charge
// nothing, so a failed superstep leaves no residue in the simulated
// clock beyond what the resilience layer rolls back.
func (e *Engine) Err() error { return e.err }

// ClearErr resets the failure so a rolled-back superstep can be
// replayed.
func (e *Engine) ClearErr() { e.err = nil }

// fail records the first failure.
func (e *Engine) fail(err error) {
	if e.err == nil && err != nil {
		e.err = err
	}
}

// SetContext installs a cancellation context consulted before each
// parallel phase; nil restores the default (never cancelled).
func (e *Engine) SetContext(ctx context.Context) { e.ctx = ctx }

// SetFaultHook installs (nil removes) the fault injector's per-dispatch
// hook on the engine's worker pool.
func (e *Engine) SetFaultHook(h func(th int) error) { e.pool.SetHook(h) }

// runPhase dispatches one parallel phase, honouring the engine context
// and the configured phase deadline. It returns false if the phase
// failed (the failure is recorded on the engine) — callers must then skip
// all simulated charging for the phase: a request cancelled mid-run stops
// charging the simulated clock at the superstep boundary.
func (e *Engine) runPhase(fn func(th int)) bool { return e.dispatch(fn, false) }

// dispatch is runPhase with the choice of entry point: concurrent gives
// every simulated thread its own goroutine, for the one traversal whose
// thread bodies wait on each other (AsyncTraverse).
func (e *Engine) dispatch(fn func(th int), concurrent bool) bool {
	if e.err != nil {
		return false
	}
	var start time.Time
	if e.opt.PhaseTimeout > 0 {
		start = time.Now()
	}
	ctx := e.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	var err error
	if concurrent {
		err = e.pool.RunConcurrent(ctx, fn)
	} else {
		err = e.pool.RunCtx(ctx, fn)
	}
	if err != nil {
		e.fail(err)
		return false
	}
	if e.opt.PhaseTimeout > 0 {
		if d := time.Since(start); d > e.opt.PhaseTimeout {
			e.fail(fmt.Errorf("core: phase exceeded deadline: %v > %v", d, e.opt.PhaseTimeout))
			return false
		}
	}
	return true
}

// SnapshotSim saves the simulated-time state (clock, cumulative ledger,
// metrics, edge counter, trace position) into the engine's snapshot
// slot; RestoreSim rolls back to it. The resilience layer wraps each
// superstep in a Snapshot/Restore pair so an injected fault's partial
// charges are discarded before replay.
func (e *Engine) SnapshotSim() {
	if e.snap == nil {
		e.snap = &simSnapshot{ledger: e.m.NewEpoch()}
	}
	e.snap.clock = e.clock
	e.snap.ledger.CopyFrom(e.ledger)
	e.snap.met = e.met
	e.snap.edges = e.edgesProcessed.Load()
	e.snap.trace = len(e.trace)
	e.snap.tier = e.tierPlan.Snapshot()
}

// RestoreSim rolls the simulated-time state back to the last SnapshotSim.
func (e *Engine) RestoreSim() {
	if e.snap == nil {
		return
	}
	e.clock = e.snap.clock
	e.ledger.CopyFrom(e.snap.ledger)
	e.met = e.snap.met
	e.edgesProcessed.Store(e.snap.edges)
	e.trace = e.trace[:e.snap.trace]
	e.tierPlan.Restore(e.snap.tier)
}

// Trace returns the recorded phase history (empty unless Options.Trace).
func (e *Engine) Trace() []PhaseRecord { return e.trace }

// SetTracer installs (nil removes) the obs tracer. Phase events are
// stamped with the simulated clock; the worker pool additionally emits
// host-lane dispatch spans.
func (e *Engine) SetTracer(tr *obs.Tracer) {
	e.tr = tr
	e.pool.SetTracer(tr)
}

// Tracer, TraceCat and TrafficSnapshot make the engine an obs.SimSource,
// so algorithm drivers can wrap its superstep loops in obs.BeginStep/End.
func (e *Engine) Tracer() *obs.Tracer { return e.tr }

// TraceCat returns the engine's obs event category.
func (e *Engine) TraceCat() string { return "polymer" }

// TrafficSnapshot copies the cumulative classified run traffic into dst.
func (e *Engine) TrafficSnapshot(dst *numa.TrafficMatrix) { e.ledger.Traffic(dst) }

func (e *Engine) recordPhase(kind string, dense, push bool, activeIn int64, seconds float64) {
	if e.tr != nil {
		e.tr.Phase("polymer", kind, dense, push, activeIn, e.clock-seconds, seconds)
	}
	if !e.opt.Trace {
		return
	}
	e.trace = append(e.trace, PhaseRecord{
		Kind: kind, Dense: dense, Push: push, ActiveIn: activeIn, SimSeconds: seconds,
	})
}

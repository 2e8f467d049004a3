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
// The engine computes real results, its simulated threads run one after
// another on the caller's goroutine (see package par); its memory traffic
// is charged to the simulated NUMA machine (see package numa) to produce
// simulated runtimes.
package core

import (
	"polymer/internal/barrier"
	"polymer/internal/graph"
	"polymer/internal/mem"
	"polymer/internal/numa"
	"polymer/internal/partition"
	"polymer/internal/sg"
)

// Mode selects the EdgeMap execution direction.
type Mode = sg.Direction

const (
	// Auto picks sparse-push or dense-pull adaptively per iteration
	// (direction-optimizing traversal).
	Auto = sg.ByHints
	// Push always scatters along out-edges (the paper's PR/SpMV/BP).
	Push = sg.AlwaysPush
	// Pull always gathers along in-edges.
	Pull = sg.AlwaysPull
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
}

// PhaseRecord describes one executed parallel phase when tracing is on.
type PhaseRecord = sg.PhaseRecord

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

// Metrics counts engine activity — committed phases — for the experiment
// harness.
type Metrics struct {
	EdgeMaps       int
	VertexMaps     int
	DensePhases    int
	SparsePhases   int
	EdgesProcessed int64
	BarrierSeconds float64
}

// Engine is a Polymer instance bound to one graph and one simulated
// machine. It implements sg.Engine through the embedded sg.Sweep, one part
// per node; the engine adds its partition, layouts, charge recipes
// (recipe.go) and metrics.
type Engine struct {
	sg.Sweep
	opt Options

	parts []partition.Range

	met Metrics

	push *layout // lazily wrapped; keyed by source, columns are local targets
	pull *layout // lazily wrapped; keyed by target, columns are local sources

	trace []PhaseRecord

	topoBytes int64
	closed    bool

	// Rollback extension (sg.SnapExtra): the metrics and the phase-trace
	// position at the last SnapshotSim.
	snapMet   Metrics
	snapTrace int
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
	e := &Engine{opt: opt}
	if err := e.Init("polymer", g, m, e); err != nil {
		return nil, err
	}
	if opt.EdgeBalanced {
		dir := partition.Out
		if opt.Mode == Push {
			dir = partition.In
		}
		e.parts = partition.EdgeBalanced(g, m.Nodes, dir)
	} else {
		e.parts = partition.VertexBalanced(g.NumVertices(), m.Nodes)
	}
	e.InitSweep(partition.Bounds(e.parts), sg.SweepConfig{
		Adaptive: opt.Adaptive, Threshold: opt.Threshold, Dir: opt.Mode, Barrier: opt.Barrier,
		Layout:         func(push bool) *sg.Layout { return &e.layoutOf(push).Layout },
		ChargeEdges:    e.chargeEdges,
		ChargeVertices: e.chargeVertices,
		OnPhase:        e.notePhase,
	})
	// The engine keeps the construction-stage graph resident alongside
	// its grouped per-node layouts (part of Table 5's footprint).
	if err := m.Alloc().Grow("polymer/graph", g.TopologyBytes()); err != nil {
		return nil, err
	}
	e.InitTier(g.TopologyBytes(), func(fr *mem.TierClass) {
		for p := 0; p < m.Nodes; p++ {
			// Bitmaps, queues and per-vertex runtime-state bytes.
			fr.GrowDemand(p, 2*int64(e.parts[p].Len()))
		}
	})
	return e, nil
}

// MustNew is New panicking on error, for statically valid configurations
// (tests, examples, benchmarks).
func MustNew(g *graph.Graph, m *numa.Machine, opt Options) *Engine {
	e, err := New(g, m, opt)
	if err != nil {
		panic(err)
	}
	return e
}

// Parts returns the per-node vertex ranges.
func (e *Engine) Parts() []partition.Range { return e.parts }

// Options returns the engine configuration.
func (e *Engine) Options() Options { return e.opt }

// Metrics returns activity counters.
func (e *Engine) Metrics() Metrics {
	m := e.met
	m.EdgesProcessed = e.Edges
	return m
}

// NewData allocates a float64 per-vertex array with Polymer's co-located
// placement (or the ablation override).
func (e *Engine) NewData(label string) *mem.Array[float64] { return newArray[float64](e, label) }

// NewData32 allocates a uint32 per-vertex array (labels, parents).
func (e *Engine) NewData32(label string) *mem.Array[uint32] { return newArray[uint32](e, label) }

func newArray[T any](e *Engine, label string) *mem.Array[T] {
	if e.opt.Layout == mem.CoLocated {
		return sg.NewArray[T](&e.Base, label, mem.CoLocated, e.Bounds())
	}
	return sg.NewArray[T](&e.Base, label, e.opt.Layout, nil)
}

// Close releases simulated allocations.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.M.Alloc().Release("polymer/graph", e.G.TopologyBytes())
	e.FreeArrays()
	if e.topoBytes > 0 {
		e.M.Alloc().Release("polymer/topology", e.topoBytes)
	}
	for _, l := range [2]*layout{e.push, e.pull} {
		if l != nil && l.shared.agentBytes > 0 {
			e.M.Alloc().Release("polymer/agents", l.shared.agentBytes)
		}
	}
	// Drop the shared builds: they live no longer than their last engine.
	e.push, e.pull = nil, nil
}

// SnapshotExtra and RestoreExtra are the engine's sg.SnapExtra: the
// activity metrics and the phase-trace position roll back with the clock.
func (e *Engine) SnapshotExtra() { e.snapMet, e.snapTrace = e.met, len(e.trace) }

// RestoreExtra rolls the metrics and phase trace back to SnapshotExtra.
func (e *Engine) RestoreExtra() {
	e.met = e.snapMet
	e.trace = e.trace[:e.snapTrace]
}

// Trace returns the recorded phase history (empty unless Options.Trace).
func (e *Engine) Trace() []PhaseRecord { return e.trace }

// notePhase is the engine's phase wrapper (sg.SweepConfig.OnPhase): each
// committed phase counts in the metrics and, under Options.Trace, is
// recorded.
func (e *Engine) notePhase(r PhaseRecord, sync float64) {
	e.met.BarrierSeconds += sync
	switch {
	case r.Kind == "vertexmap":
		e.met.VertexMaps++
	case r.Dense:
		e.met.EdgeMaps++
		e.met.DensePhases++
	default:
		e.met.EdgeMaps++
		e.met.SparsePhases++
	}
	if e.opt.Trace {
		e.trace = append(e.trace, r)
	}
}

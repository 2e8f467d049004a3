package bench

import (
	"context"
	"errors"
	"fmt"

	"polymer/internal/fault"
	"polymer/internal/graph"
	"polymer/internal/numa"
	"polymer/internal/partition"
)

// ResilienceReport summarises how a resilient run coped with its injected
// faults: whole-run restarts (setup-time allocation failures), per-step
// rollbacks, and the injector's arm/detect/repair log.
type ResilienceReport struct {
	Restarts  int
	Rollbacks int
	Log       []fault.Record
}

// Format renders the report for the CLI.
func (r ResilienceReport) Format() string {
	s := fmt.Sprintf("faults: %d rollback(s), %d restart(s)\n", r.Rollbacks, r.Restarts)
	for _, rec := range r.Log {
		s += fmt.Sprintf("  %-8s %s\n", rec.Action, rec.Event)
	}
	return s
}

// ResilientOptions tunes one resilient execution.
type ResilientOptions struct {
	// MaxRestarts caps whole-run restarts (setup faults, steps that
	// exhausted their replay budget). 0 means fail on the first
	// unrecovered attempt.
	MaxRestarts int
	// SessionRetries caps per-step replays inside the fault session;
	// negative keeps the session default (3), 0 fails a step on its first
	// faulted attempt.
	SessionRetries int
	Options
}

// RunResilientCtx executes one system x algorithm cell under an injected
// fault schedule (nil: none) and a cancellation context, recovering
// transient faults via checkpoint/restart so the committed simulated
// result is bit-identical to a fault-free run. A fault.Session is always
// attached, so only session-capable cells run (SessionCapable); any other
// is ErrUnsupported with zero restarts and no machine built. mk builds a
// fresh machine per attempt: a setup-time allocation failure (spec
// "alloc@-1") is recovered by whole-run restart, which discards the
// partially charged machine. The context is installed on the engine so
// every parallel phase observes it, and a cancellation mid-run stops
// charging the simulated clock at the superstep boundary (the partial
// step's charges are rolled back). A context error is terminal — it is
// never retried by restart.
func RunResilientCtx(ctx context.Context, sys System, alg Algo, g *graph.Graph, mk func() *numa.Machine, inj *fault.Injector, opt ResilientOptions) (RunResult, ResilienceReport, error) {
	if inj == nil {
		inj = fault.NewInjector(nil)
	}
	var rep ResilienceReport
	s, err := newSpec(sys, alg, g, opt.Options)
	if err == nil {
		err = s.withSession(ctx, inj, opt.SessionRetries)
	}
	if err != nil {
		return RunResult{}, rep, err
	}
	for restart := 0; ; restart++ {
		m := mk()
		inj.ArmSetup(m)
		r, rollbacks, err := run(s, m)
		rep.Rollbacks += rollbacks
		if err == nil {
			rep.Log = inj.Log()
			return r, rep, nil
		}
		inj.RetireSetup()
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			rep.Log = inj.Log()
			return RunResult{}, rep, err
		}
		rep.Restarts++
		if restart >= opt.MaxRestarts {
			rep.Log = inj.Log()
			return RunResult{}, rep, fmt.Errorf("bench: resilient run failed after %d restart(s): %w", rep.Restarts, err)
		}
	}
}

// DegradedResult reports a Polymer run that lost a NUMA node permanently
// mid-run and finished on the survivors.
type DegradedResult struct {
	Result RunResult
	// FailedNode and FailStep locate the permanent failure.
	FailedNode int
	FailStep   int
	// MigratedBytes is the vertex state re-read from the checkpoint and
	// redistributed over the surviving nodes' memories.
	MigratedBytes int64
	// MigrationSeconds is the honestly charged simulated cost of that
	// redistribution.
	MigrationSeconds float64
}

// RunPolymerDegraded runs PageRank on Polymer with a permanent node
// failure after failStep iterations: the run is rebuilt on a machine with
// one node fewer (core.New re-partitions the vertex space edge-balanced
// across the survivors), the failed node's vertex state is restored from
// the superstep checkpoint and its redistribution charged as interleaved
// remote traffic, and the remaining iterations continue from the
// checkpointed ranks. The returned SimSeconds is the sum of both segments
// plus the migration cost; the checksum matches a fault-free run within
// floating-point tolerance (the re-partitioned engine schedules additions
// differently, so bit-identity is not preserved — unlike transient
// recovery).
func RunPolymerDegraded(g *graph.Graph, topo *numa.Topology, nodes, coresPerNode, failNode, failStep int) (DegradedResult, error) {
	if nodes < 2 {
		return DegradedResult{}, fmt.Errorf("bench: degraded run needs >= 2 nodes, got %d", nodes)
	}
	if failStep < 0 || failStep > defaultIters {
		return DegradedResult{}, fmt.Errorf("bench: fail step %d out of range [0,%d]", failStep, defaultIters)
	}
	failNode %= nodes
	s, err := newSpec(Polymer, PR, g, Options{})
	if err != nil {
		return DegradedResult{}, err
	}

	// Segment 1: the full machine up to the failure.
	s.iters = failStep
	seg1, _, err := run(s, numa.NewMachine(topo, nodes, coresPerNode))
	if err != nil {
		return DegradedResult{}, err
	}

	// Node failNode is now gone. The lost partition's per-vertex state
	// (curr+next ranks) is re-read from the checkpoint and written to its
	// new owners: one interleaved sequential read + write per vertex,
	// spread over the survivors.
	m2 := numa.NewMachine(topo, nodes-1, coresPerNode)
	lost := partition.EdgeBalanced(g, nodes, partition.In)[failNode]
	const bytesPerVertex = 16 // two float64 rank arrays
	ep := m2.NewEpoch()
	threads := m2.Threads()
	per := (int64(lost.Len()) + int64(threads) - 1) / int64(threads)
	for th := 0; th < threads; th++ {
		ep.AccessInterleaved(th, numa.Seq, numa.Load, per, bytesPerVertex, 0)
		ep.AccessInterleaved(th, numa.Seq, numa.Store, per, bytesPerVertex, 0)
	}
	migSecs := ep.Time()

	// Segment 2: continue from the checkpointed ranks on the survivors;
	// the engine re-partitions the vertex space edge-balanced over them.
	s.iters, s.init = defaultIters-failStep, seg1.Out.F64
	r, _, err := run(s, m2)
	if err != nil {
		return DegradedResult{}, err
	}
	r.SimSeconds += seg1.SimSeconds + migSecs
	stats := seg1.Stats
	stats.Merge(r.Stats)
	r.Stats = stats
	r.PeakBytes = max(seg1.PeakBytes, r.PeakBytes)
	return DegradedResult{
		Result:           r,
		FailedNode:       failNode,
		FailStep:         failStep,
		MigratedBytes:    int64(lost.Len()) * bytesPerVertex,
		MigrationSeconds: migSecs,
	}, nil
}

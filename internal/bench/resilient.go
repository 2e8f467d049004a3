package bench

import (
	"context"
	"errors"
	"fmt"

	"polymer/internal/fault"
	"polymer/internal/graph"
	"polymer/internal/numa"
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

// ResilientOptions tunes one resilient execution. MaxRestarts and
// SessionRetries act only on a run with an injector.
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

// RunResilientCtx is the context-aware run: one system x algorithm cell
// (or, through opt, a multi-source sweep or a warm repair) under a
// cancellation context and, when inj is non-nil, an injected fault
// schedule. Only session-capable cells run (SessionCapable), injector or
// not; any other is ErrUnsupported with zero restarts and no machine
// built. The context is installed on the engine so every parallel phase
// observes it, and a cancellation mid-run stops charging the simulated
// clock at the superstep boundary. A context error is terminal — it is
// never retried by restart.
//
// With a nil injector the run is one attempt on one machine from mk, with
// no fault session: nothing but a cancellation can fail it that would not
// fail the same way again (DESIGN.md §8). With an injector, transient
// faults are recovered via checkpoint/restart so the committed simulated
// result is bit-identical to a fault-free run, and mk builds a fresh
// machine per attempt: a setup-time allocation failure (spec "alloc@-1")
// is recovered by whole-run restart, which discards the partially charged
// machine.
func RunResilientCtx(ctx context.Context, sys System, alg Algo, g *graph.Graph, mk func() *numa.Machine, inj *fault.Injector, opt ResilientOptions) (RunResult, ResilienceReport, error) {
	var rep ResilienceReport
	s, err := newSpec(sys, alg, g, opt.Options, inj)
	if err == nil && !s.cell.session {
		err = fmt.Errorf("bench: resilient %s on %s: %w", alg, sys, ErrUnsupported)
	}
	if err != nil {
		return RunResult{}, rep, err
	}
	s.ctx, s.retries = ctx, opt.SessionRetries
	if inj == nil {
		r, _, err := run(s, mk())
		return r, rep, err
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

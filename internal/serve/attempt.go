package serve

import (
	"fmt"

	"polymer/internal/bench"
	"polymer/internal/graph"
	"polymer/internal/numa"
	"polymer/internal/obs"
	"polymer/internal/plan"
)

// attemptResult is the outcome of one task's attempt loop: how it
// resolved, the run's payload when it completed, and the recovery work
// the attempts did.
type attemptResult struct {
	kind   resKind
	status int
	err    error // nil exactly when kind is kindCompleted

	checksums []float64 // one per source, index-aligned
	sim       float64
	peak      int64
	slowRate  float64

	attempts, rollbacks, restarts int
}

// attempt runs the task's sources to an outcome through the one
// breaker-admit -> lease -> machine-factory -> retry/backoff -> classify
// sequence every run shares. A refused admission (circuit open) returns
// kindBroken having run nothing — the caller picks its fallback. The returned lease (nil for explicit requests and
// refusals) is still held so the caller can publish against it; the
// caller releases it.
func (s *Server) attempt(t *task, g *graph.Graph, srcs []graph.Vertex) (attemptResult, *plan.Lease) {
	v := t.v
	tr := s.cfg.Tracer
	br := s.breakers[v.sys]
	admit, probe := br.Allow()
	if !admit {
		err := fmt.Errorf("circuit open for %s", v.sys)
		return attemptResult{kind: kindBroken, status: 503, err: err}, nil
	}

	mk := func() *numa.Machine { return v.armTier(numa.NewMachine(v.topo, v.nodes, v.cores)) }
	var lease *plan.Lease
	if v.planned != nil {
		// Planned runs go through the multi-tenant scheduler: disjoint
		// simulated sockets while capacity lasts, honest co-location
		// charging when it doesn't. A sole tenant gets the deterministic
		// prefix, so its machine — and therefore its result — is
		// bit-identical to an explicitly configured run's. (A run's waiters
		// agreed on the plan: it is part of the key.)
		lease = s.plannerFor(v).Scheduler().Acquire(v.nodes)
		explicit := mk
		mk = func() *numa.Machine {
			m, err := lease.Machine(v.cores)
			if err != nil {
				return explicit()
			}
			return v.armTier(m)
		}
	}
	opt := bench.ResilientOptions{
		MaxRestarts:    s.cfg.RestartMax,
		SessionRetries: v.req.SessionRetries,
		Options:        bench.Options{Tracer: tr, Layout: v.layout, LayoutSet: v.layoutSet},
	}
	if v.req.Restarts >= 0 {
		opt.MaxRestarts = v.req.Restarts
	}
	maxRetries := s.cfg.RetryMax
	if v.req.Retries >= 0 {
		maxRetries = v.req.Retries
	}

	var res attemptResult
	for attempt := 0; attempt <= maxRetries; attempt++ {
		if attempt > 0 {
			s.counters.Retried.Add(1)
			tr.HostInstant("serve", "retry", obs.PidServe, obs.NowMicros(), attempt,
				fmt.Sprintf("run %d (%d sources): %v", t.id, len(srcs), res.err))
			if !sleepBackoff(t.ctx, s.cfg.RetryBase, attempt, uint64(t.id)) {
				res.err = t.ctx.Err()
				break
			}
		}
		res.attempts = attempt + 1
		if len(srcs) == 1 {
			// One source is the plain resilient run, so a shared run of one
			// is indistinguishable from a private one.
			opt.Src = srcs[0]
			r, rep, err := bench.RunResilientCtx(t.ctx, v.sys, v.alg, g, mk, v.injector(), opt)
			res.rollbacks += rep.Rollbacks
			res.restarts += rep.Restarts
			res.checksums, res.sim, res.peak, res.slowRate = []float64{r.Checksum}, r.SimSeconds, r.PeakBytes, r.Stats.SlowRate
			res.err = err
		} else {
			mr, err := bench.RunMultiSourceCtx(t.ctx, v.sys, v.alg, g, mk, srcs, tr)
			res.checksums, res.sim, res.peak = mr.PerSource, mr.SimSeconds, mr.PeakBytes
			res.err = err
		}
		if res.err == nil {
			br.Success()
			res.kind, res.status = kindCompleted, 200
			return res, lease
		}
		if ctxErr(res.err) {
			// The client's deadline, not the engine's health: release a
			// half-open probe without closing or re-opening the circuit.
			if probe {
				br.cancelProbe()
			}
			res.kind, res.status = classifyCtxErr(res.err)
			return res, lease
		}
		br.Failure()
		if probe {
			break // the failed probe re-opened the circuit; stop here
		}
	}
	res.kind, res.status = kindFailed, 500
	return res, lease
}

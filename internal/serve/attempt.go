package serve

import (
	"polymer/internal/algorithms"
	"polymer/internal/bench"
	"polymer/internal/graph"
	"polymer/internal/numa"
)

// attempt is where every run is chosen: it runs the task's live sources
// to an outcome, stamps resp with what the run produced and returns the
// outcome with one checksum per source (nil when the run did not answer)
// and, when the result cache retains answers (retains), one typed answer
// per source, which the caller then holds. An answer the cache does not
// retain is recycled here, its last holder.
//
// The run is one bench.RunResilientCtx call on the machine factory mk:
// one source warm when warmFor finds an answer to repair, else cold, and
// k on one fused multi-source sweep; a fault session only when the
// request injects faults. A failed run is not repeated (it would fail the
// same way, DESIGN.md §8). A planned run builds the machine an explicit
// request naming its pick would build.
func (s *Server) attempt(t *task, g *graph.Graph, srcs []graph.Vertex, resp *Response) (resKind, int, []float64, []bench.Output) {
	v := t.v
	tr := s.cfg.Tracer
	mk := func() *numa.Machine { return v.armTier(numa.NewMachine(v.topo, v.nodes, v.cores)) }
	warm, prior := s.warmFor(v, g, srcs)
	opt := bench.ResilientOptions{
		MaxRestarts:    restartMax,
		SessionRetries: v.req.SessionRetries,
		Options:        bench.Options{Tracer: tr, Layout: v.layout, LayoutSet: v.layoutSet, Warm: warm},
	}
	if v.req.Restarts >= 0 {
		opt.MaxRestarts = v.req.Restarts
	}
	// One source is the plain run, so a shared run of one is
	// indistinguishable from a private one; k run as one fused sweep.
	if len(srcs) == 1 {
		opt.Src = srcs[0]
	} else {
		opt.Sources = srcs
	}
	r, rep, err := bench.RunResilientCtx(t.ctx, v.sys, v.alg, g, mk, v.injector(), opt)
	if prior != nil {
		s.results.unread(prior)
	}
	resp.Rollbacks, resp.Restarts = rep.Rollbacks, rep.Restarts
	s.lineage.add(r.Lineage)
	if err != nil {
		return failure(err, resp)
	}
	resp.SimSeconds, resp.PeakBytes, resp.BoundsSeq = r.SimSeconds, r.PeakBytes, r.BoundsSeq
	if v.tier.Tiered() {
		resp.SlowRate = r.Stats.SlowRate
	}
	switch {
	case len(srcs) > 1:
		// Provenance: the accounting fields describe the fused sweep.
		resp.BatchSize = len(srcs)
	case opt.Warm != nil:
		// Provenance too: the accounting describes the repair. Its
		// cost is not a cold run's, so it teaches the learner nothing.
		resp.Warm = true
		s.counters.Warm.Add(1)
	default:
		// A cold run of one source is indistinguishable from a direct
		// run — its simulated time is exactly what the model
		// predicted, so it may teach the learner. Fused sweeps may
		// not: their cost covers k sources at once.
		s.observePlan(v, r.SimSeconds)
	}
	outs := []bench.Output{r.Out}
	if len(srcs) > 1 {
		outs = r.Out.PerSource
	}
	sums := make([]float64, len(outs))
	for i, o := range outs {
		sums[i] = o.Checksum()
	}
	if !s.retains(v) {
		r.Out.Recycle()
		outs = nil
	}
	return kindCompleted, 200, sums, outs
}

// failure stamps a run's error on resp and turns it into its outcome: a
// context error is the request's own deadline or cancellation (504/503),
// anything else a 500.
func failure(err error, resp *Response) (resKind, int, []float64, []bench.Output) {
	resp.Error = err.Error()
	if ctxErr(err) {
		kind, status := classifyCtxErr(err)
		return kind, status, nil, nil
	}
	return kindFailed, 500, nil, nil
}

// retains reports whether the result cache keeps v's typed answers: only
// a server with a mutation store can ever repair one, and only a BFS or
// SSSP answer.
func (s *Server) retains(v *resolved) bool {
	return s.mut != nil && (v.alg == bench.BFS || v.alg == bench.SSSP)
}

// warmFor returns what a warm run of v's one source on g repairs and the
// result-cache entry it reads, whose read the caller ends (unread) once
// the run is over; both are nil when the run goes cold. A run goes warm
// when it is fault-free and of one source; when it is BFS or SSSP on Polymer or Ligra; when the result cache holds an answer under its key
// from a snapshot no newer than g, and the store still has the batches in
// between; and when g can be repaired at all (no negative or NaN weight,
// algorithms.Repairable). Priors are keyed by the run identity, system
// included, so an answer never crosses engines.
func (s *Server) warmFor(v *resolved, g *graph.Graph, srcs []graph.Vertex) (*bench.Warm, *resultEntry) {
	if !s.retains(v) || len(srcs) != 1 || !v.reusable() ||
		v.sys != bench.Polymer && v.sys != bench.Ligra {
		return nil, nil
	}
	e := s.results.prior(v.id(srcs[0]))
	if e == nil {
		return nil, nil
	}
	if e.seq <= g.Seq() && algorithms.Repairable(g) {
		deleted, appended, err := s.mut.Edits(string(v.data), int(v.scale), e.seq, g.Seq())
		if err == nil { // else older than the recovered checkpoint: cold
			return &bench.Warm{Prior: e.out, Deleted: deleted, Appended: appended}, e
		}
	}
	s.results.unread(e)
	return nil, nil
}

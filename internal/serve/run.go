// Serving reuse: every admitted request is answered by a run — one queue
// slot, one execution, one publish. A fault-free request first tries to
// join the open run for its generation-qualified key (verKey): any
// request shares slot 0 of an identical run, and a traversal point query
// (bfs/sssp, keyed with the source wildcarded) may add its source to an
// open run so k point queries share one fused multi-source sweep. The
// queue wait is the join window for new sources: the worker seals the run
// when it dequeues it (or when it reaches maxRunSources), and later
// arrivals whose source it already sweeps still ride it until it
// publishes. A fault-carrying request, a hedge leg or a server with
// DisableSharing opens a private run instead, which nobody can join.
//
// A shared run's waiters each keep their own budget and detach on their
// own (504/503); the last one out cancels the run. A private run's single
// waiter has no timer of its own: the run's task context carries the
// budget and the client's cancel, so an expiry stops the engine at the
// next superstep and the worker answers it.

package serve

import (
	"context"
	"fmt"
	"time"

	"polymer/internal/graph"
	"polymer/internal/obs"
)

// maxRunSources caps the distinct sources one run sweeps (the fused
// kernels take up to algorithms.MaxMultiSources).
const maxRunSources = 16

// run is one admitted execution and everything waiting on it. srcs grows
// only while the run is open and under Server.runMu; outs and tenants are
// written once, before done is closed, and are immutable afterwards.
type run struct {
	key    string    // verKey of a shared run; "" for a private one
	v      *resolved // the opener's request: graph, engine, QoS knobs
	cancel context.CancelFunc
	srcs   []graph.Vertex // distinct sources, slot order; srcs[0] is the opener's
	refs   int            // attached waiters (shared runs)
	sealed bool           // no new sources
	done   chan struct{}
	outs   []outcome // one per source
	// tenants is the co-tenancy of the planned run's lease (0 when the
	// machine was not shared), so every waiter can stamp its own plan.
	tenants int
}

func newRun(key string, v *resolved, cancel context.CancelFunc) *run {
	r := &run{key: key, v: v, cancel: cancel, refs: 1, done: make(chan struct{})}
	if v != nil {
		r.srcs = []graph.Vertex{v.src}
	}
	return r
}

// slotOf reports src's slot in the run, or -1.
func (r *run) slotOf(src graph.Vertex) int {
	for i, s := range r.srcs {
		if s == src {
			return i
		}
	}
	return -1
}

// join attaches v to the open run for its key, or opens one. The returned
// shed/err mirror enqueue's contract.
func (s *Server) join(v *resolved, clientCtx context.Context) (r *run, slot int, shed bool, err error) {
	if !v.reusable() || v.hedge || s.cfg.DisableSharing {
		r, shed, err = s.submit(v, "", clientCtx)
		return r, 0, shed, err
	}
	key := v.key()
	if v.batchable() {
		key = v.groupKey()
	}
	key = verKey(v.ver, key)
	s.runMu.Lock()
	if r = s.runs[key]; r != nil {
		slot = r.slotOf(v.src)
		if slot < 0 && !r.sealed {
			slot = len(r.srcs)
			r.srcs = append(r.srcs, v.src)
			// Full: later new sources open a fresh run.
			r.sealed = len(r.srcs) == maxRunSources
		}
		if slot >= 0 {
			r.refs++
			s.runMu.Unlock()
			if v.batchable() {
				s.counters.Batched.Add(1)
				s.cfg.Tracer.HostInstant("serve", "batch-join", obs.PidServe, obs.NowMicros(), -1,
					fmt.Sprintf("%s src=%d (slot %d)", key, v.src, slot))
			} else {
				s.counters.Coalesced.Add(1)
				s.cfg.Tracer.HostInstant("serve", "coalesce", obs.PidServe, obs.NowMicros(), -1, key)
			}
			return r, slot, false, nil
		}
	}
	s.runMu.Unlock()
	r, shed, err = s.submit(v, key, clientCtx)
	return r, 0, shed, err
}

// submit opens a run for v and enqueues its task. With key "" the run is
// private: its task context carries v's budget and the client's cancel,
// exactly as the deadline starts at admission. Otherwise the run is
// shared: its context ends only when its last waiter leaves, and it is
// published under key only after admission succeeded, so nobody can join
// a run that was shed. If the worker already finished it, or a concurrent
// opener for the key won the publish race, it stays private in effect:
// it answers only its own waiter and never clobbers the registered run.
func (s *Server) submit(v *resolved, key string, clientCtx context.Context) (*run, bool, error) {
	var ctx context.Context
	var cancel context.CancelFunc
	if key == "" {
		ctx, cancel = s.budgetCtx(v.budget, clientCtx)
	} else {
		ctx, cancel = context.WithCancel(s.baseCtx)
	}
	r := newRun(key, v, cancel)
	t := &task{id: s.ids.Add(1), v: v, ctx: ctx, cancel: cancel, admitted: obs.NowMicros(), run: r}
	if shed, err := s.enqueue(t); err != nil {
		cancel()
		return nil, shed, err
	}
	if key != "" {
		s.runMu.Lock()
		if cur := s.runs[key]; (cur == nil || cur.sealed) && r.outs == nil {
			s.runs[key] = r
		}
		s.runMu.Unlock()
	}
	return r, false, nil
}

// budgetCtx is one request's deadline: its budget (or the server default)
// against the server base context, cancelled early if the client leaves.
func (s *Server) budgetCtx(budget time.Duration, clientCtx context.Context) (context.Context, context.CancelFunc) {
	if budget == 0 {
		budget = s.cfg.DefaultBudget
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, budget)
	if clientCtx == nil {
		return ctx, cancel
	}
	stop := context.AfterFunc(clientCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// wait parks v on its slot of r. A private run resolved its request when
// it published; a shared run's waiter records its own resolution — the
// slot's kind on delivery, or its own expiry/cancellation on detach. The
// opener takes its slot verbatim; a joiner gets its own id, wall time and
// plan, and a joiner of a non-traversal run is marked coalesced.
func (s *Server) wait(r *run, slot int, v *resolved, clientCtx context.Context) outcome {
	if r.key == "" {
		<-r.done
		return r.outs[slot]
	}
	start := time.Now()
	joined := r.v != v
	wctx, wcancel := s.budgetCtx(v.budget, clientCtx)
	defer wcancel()
	select {
	case <-r.done:
		out := r.outs[slot]
		s.recordKind(out.kind)
		if joined {
			out.resp.ID = s.ids.Add(1)
			out.resp.Coalesced = !v.batchable()
			out.resp.WallMs = float64(time.Since(start).Microseconds()) / 1000
			out.resp.Plan = v.planWith(r.tenants, out.resp.SimSeconds)
		}
		return out
	case <-wctx.Done():
		s.detach(r)
		kind, status := classifyCtxErr(wctx.Err())
		s.recordKind(kind)
		return outcome{kind: kind, status: status, resp: Response{
			ID:        s.ids.Add(1),
			System:    string(v.sys),
			Algo:      string(v.alg),
			Graph:     string(v.data),
			Scale:     v.req.Scale,
			Coalesced: joined && !v.batchable(),
			Error:     wctx.Err().Error(),
			Breaker:   string(s.breakers[v.sys].State()),
			WallMs:    float64(time.Since(start).Microseconds()) / 1000,
		}}
	}
}

// detach drops one waiter. The last one out cancels the run — nobody is
// left to consume it — and seals and retires it, so the next request for
// the key starts fresh.
func (s *Server) detach(r *run) {
	s.runMu.Lock()
	r.refs--
	last := r.refs == 0
	if last {
		r.sealed = true
		if s.runs[r.key] == r {
			delete(s.runs, r.key)
		}
	}
	s.runMu.Unlock()
	if last {
		r.cancel()
	}
}

// seal closes the run to new sources and returns its final source list.
func (s *Server) seal(r *run) []graph.Vertex {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	r.sealed = true
	return r.srcs
}

// publish retires the run and answers everything waiting on it. Removal
// happens under the registry lock before done is closed, so nobody can
// join a finished run. A private run's one request is resolved here.
func (s *Server) publish(r *run, outs []outcome, tenants int) {
	s.runMu.Lock()
	if s.runs[r.key] == r {
		delete(s.runs, r.key)
	}
	r.outs, r.tenants = outs, tenants
	s.runMu.Unlock()
	if r.key == "" {
		s.recordKind(outs[0].kind)
	}
	close(r.done)
}

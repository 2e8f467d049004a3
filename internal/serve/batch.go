// Multi-source query batching: traversal point queries (bfs/sssp) that
// agree on everything but the source share one queue slot and one fused
// MultiBFS/MultiSSSP sweep. The first arrival opens a group and submits
// its task; while that task waits in the queue, later arrivals join for
// free — the queue wait IS the batching window, so batching adds no
// latency when the server is idle. The group seals when the worker
// dequeues it (plus an optional linger) or when it reaches BatchMax
// distinct sources, and the sweep's per-source checksums are
// demultiplexed back to each waiter. The conformance suite asserts the
// per-source outputs are bit-identical to independent single-source
// runs, which is what makes the fusion invisible.

package serve

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"polymer/internal/graph"
	"polymer/internal/obs"
)

// batchSlot is the outcome of one distinct source within a group.
type batchSlot struct {
	kind   resKind
	status int
	resp   Response
}

// batchGroup is one open (then executing) multi-source group. srcs and
// slotOf grow only while the group is open and under the batcher lock;
// slots is written once by the executing worker before done is closed.
type batchGroup struct {
	key    string
	v      *resolved // representative request: graph, engine, QoS knobs
	cancel context.CancelFunc
	srcs   []graph.Vertex
	slotOf map[graph.Vertex]int
	refs   int
	sealed bool
	done   chan struct{}
	slots  []batchSlot
}

// batcher indexes open groups by the generation-qualified request key
// with the source wildcarded. The generation (verKey) keeps
// post-invalidation arrivals out of groups still sweeping the stale
// pinned snapshot, mirroring the coalescer.
type batcher struct {
	mu   sync.Mutex
	open map[string]*batchGroup
}

func newBatcher() *batcher {
	return &batcher{open: make(map[string]*batchGroup)}
}

// batchJoin answers one traversal request through its batch group:
// join the open group for the key, or open a new one and submit its
// task. Duplicate sources share a slot, so a group of k members may
// sweep fewer than k sources.
func (s *Server) batchJoin(v *resolved, clientCtx context.Context) (outcome, bool, error) {
	key := verKey(v.ver, v.groupKey())
	b := s.batches
	b.mu.Lock()
	if g, ok := b.open[key]; ok {
		slot, exists := g.slotOf[v.src]
		if !exists {
			slot = len(g.srcs)
			g.srcs = append(g.srcs, v.src)
			g.slotOf[v.src] = slot
			if len(g.srcs) >= s.cfg.BatchMax {
				// Full: seal now so later arrivals open a fresh group.
				g.sealed = true
				delete(b.open, key)
			}
		}
		g.refs++
		b.mu.Unlock()
		s.counters.Batched.Add(1)
		s.cfg.Tracer.HostInstant("serve", "batch-join", obs.PidServe, obs.NowMicros(), -1,
			fmt.Sprintf("%s src=%d (%d sources)", key, v.src, slot+1))
		return s.waitBatch(g, slot, v, clientCtx), false, nil
	}
	b.mu.Unlock()

	gctx, gcancel := context.WithCancel(s.baseCtx)
	g := &batchGroup{
		key:    key,
		v:      v,
		cancel: gcancel,
		srcs:   []graph.Vertex{v.src},
		slotOf: map[graph.Vertex]int{v.src: 0},
		refs:   1,
		done:   make(chan struct{}),
	}
	t := s.newTask(v, gctx, gcancel)
	t.grp = g
	if shed, err := s.enqueue(t); err != nil {
		gcancel()
		return outcome{}, shed, err
	}
	// Open the group only after admission succeeded, so nobody can join a
	// group that was shed. If the worker already sealed it, or a concurrent
	// opener for the same key won the publish race while we were
	// enqueueing, it stays solo rather than clobbering the registered
	// group out of the map.
	b.mu.Lock()
	if _, raced := b.open[key]; !raced && !g.sealed {
		b.open[key] = g
	}
	b.mu.Unlock()
	return s.waitBatch(g, 0, v, clientCtx), false, nil
}

// waitBatch parks one member on its group and demultiplexes its source's
// slot from the shared outcome.
func (s *Server) waitBatch(g *batchGroup, slot int, v *resolved, clientCtx context.Context) outcome {
	start := time.Now()
	wctx, wcancel, stop := s.waiterCtx(v, clientCtx)
	defer wcancel()
	defer stop()
	select {
	case <-g.done:
		sl := g.slots[slot]
		s.recordKind(sl.kind)
		resp := sl.resp
		resp.ID = s.ids.Add(1)
		// Like the coalescer, plan provenance is the member's own: the
		// fused sweep computed the payload, but each member reports the
		// decision (if any) that routed it here.
		if pi := v.planInfo(); pi != nil {
			resp.Plan = pi
		}
		return outcome{status: sl.status, resp: resp}
	case <-wctx.Done():
		s.detachBatch(g)
		kind, status := classifyCtxErr(wctx.Err())
		s.recordKind(kind)
		return outcome{status: status, resp: Response{
			ID:      s.ids.Add(1),
			System:  string(v.sys),
			Algo:    string(v.alg),
			Graph:   string(v.data),
			Scale:   v.req.Scale,
			Error:   wctx.Err().Error(),
			Breaker: string(s.breakers[v.sys].State()),
			WallMs:  float64(time.Since(start).Microseconds()) / 1000,
		}}
	}
}

// detachBatch drops one member; the last one out cancels the shared
// sweep and seals the group against further joins.
func (s *Server) detachBatch(g *batchGroup) {
	b := s.batches
	b.mu.Lock()
	g.refs--
	last := g.refs == 0
	if last && !g.sealed {
		g.sealed = true
		if b.open[g.key] == g {
			delete(b.open, g.key)
		}
	}
	b.mu.Unlock()
	if last {
		g.cancel()
	}
}

// sealGroup closes the group to new members and returns its final source
// list.
func (s *Server) sealGroup(g *batchGroup) []graph.Vertex {
	b := s.batches
	b.mu.Lock()
	defer b.mu.Unlock()
	if !g.sealed {
		g.sealed = true
		if b.open[g.key] == g {
			delete(b.open, g.key)
		}
	}
	return g.srcs
}

// executeMulti runs one batch group's task: seal, sweep all distinct
// sources in a single multi-source run, demultiplex per-source outcomes,
// and publish them to every waiter at once. A group of one runs the
// plain single-source path so a solo batched request is indistinguishable
// from a direct run.
func (s *Server) executeMulti(t *task) {
	start := time.Now()
	startMicros := obs.NowMicros()
	defer t.cancel()
	g := t.grp
	v := t.v
	tr := s.cfg.Tracer
	tr.Span("serve", "queue", obs.PidServe, t.admitted, startMicros-t.admitted, -1, t.id, "")
	if lg := s.cfg.BatchLinger; lg > 0 {
		// An explicit linger stretches the join window past dequeue.
		timer := time.NewTimer(lg)
		select {
		case <-t.ctx.Done():
		case <-timer.C:
		}
		timer.Stop()
	}
	srcs := s.sealGroup(g)
	k := len(srcs)
	slots := make([]batchSlot, k)
	base := Response{
		System: string(v.sys),
		Algo:   string(v.alg),
		Graph:  string(v.data),
		Scale:  v.req.Scale,
	}
	// fill assigns the group-wide outcome to every slot not already
	// resolved individually (invalid sources keep their own 400).
	fill := func(kind resKind, status int, errStr string) {
		for i := range slots {
			if slots[i].status == 0 {
				resp := base
				resp.Error = errStr
				slots[i] = batchSlot{kind: kind, status: status, resp: resp}
			}
		}
	}
	publish := func(status int, desc string) {
		wall := float64(time.Since(start).Microseconds()) / 1000
		brState := string(s.breakers[v.sys].State())
		for i := range slots {
			slots[i].resp.WallMs = wall
			slots[i].resp.Breaker = brState
		}
		tr.Span("serve", "request", obs.PidServe, startMicros, obs.NowMicros()-startMicros, -1, t.id,
			fmt.Sprintf("batch %s/%s on %s sources=%d status=%d %s",
				base.Algo, base.Graph, base.System, k, status, desc))
		s.log.LogAttrs(context.Background(), slog.LevelInfo, "batch",
			slog.Int64("id", t.id),
			slog.String("system", base.System),
			slog.String("algo", base.Algo),
			slog.String("graph", base.Graph),
			slog.Int("sources", k),
			slog.Int("status", status),
			slog.Float64("wall_ms", wall),
			slog.String("error", desc),
		)
		g.slots = slots
		close(g.done)
	}

	// Cancelled or all waiters gone while queued: answer without a run.
	if err := t.ctx.Err(); err != nil {
		kind, status := classifyCtxErr(err)
		fill(kind, status, err.Error())
		publish(status, err.Error())
		return
	}
	gph, release, err := s.graphFor(v)
	if err != nil {
		fill(kindFailed, 500, err.Error())
		publish(500, err.Error())
		return
	}
	defer release()
	n := gph.NumVertices()
	// Per-source validation: a bad source fails its own slot, not the
	// group.
	live := make([]graph.Vertex, 0, k)
	liveSlot := make([]int, 0, k)
	for i, src := range srcs {
		if int(src) >= n {
			resp := base
			resp.Error = fmt.Sprintf("source %d outside [0,%d)", src, n)
			slots[i] = batchSlot{kind: kindFailed, status: 400, resp: resp}
			continue
		}
		live = append(live, src)
		liveSlot = append(liveSlot, i)
	}
	if len(live) == 0 {
		publish(400, "no valid sources")
		return
	}
	res, lease := s.attempt(t, gph, live)
	defer lease.Release()
	if res.err != nil {
		// Traversals have no degraded route: a refused, cancelled or failed
		// sweep resolves the whole group.
		fill(res.kind, res.status, res.err.Error())
		publish(res.status, res.err.Error())
		return
	}
	for j, cs := range res.checksums {
		i := liveSlot[j]
		resp := base
		resp.Checksum = cs
		resp.SimSeconds = res.sim
		resp.PeakBytes = res.peak
		resp.Attempts = res.attempts
		resp.Rollbacks = res.rollbacks
		resp.Restarts = res.restarts
		if len(live) > 1 {
			resp.BatchSize = len(live)
		}
		slots[i] = batchSlot{kind: kindCompleted, status: 200, resp: resp}
		// Each demultiplexed result is cached under the key the
		// equivalent single-source request would look up — but only
		// from the canonical machine (default lease).
		if v.reusable() && (lease == nil || lease.Default()) {
			s.results.put(v, v.keyFor(srcs[i]), resp)
		}
	}
	if len(live) == 1 {
		// A solo group is indistinguishable from a direct run — its
		// simulated time is exactly what the model predicted, so it
		// may teach the learner. Fused sweeps may not: their cost
		// covers k sources at once.
		s.observePlan(v, lease, res.sim)
	}
	publish(200, "")
}

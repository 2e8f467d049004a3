// Package serve is polymerd's overload-safe serving layer: a bounded
// admission queue with load shedding in front of a fixed worker pool, and
// per-request deadlines propagated as contexts through every engine
// superstep.
//
// The serving layer reuses the repo's whole stack unchanged: requests
// execute through bench.RunResilientCtx, so an injected fault inside a
// run is first handled by superstep rollback/replay, then by whole-run
// restart, and only then surfaces as a request failure (500). A
// fault-free request's run has no session. A request runs once: a run is
// a deterministic function of its inputs, so a second run could only
// repeat a failure, and a response is a function of its body alone —
// what other clients sent never changes it.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"polymer/internal/bench"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/mutate"
	"polymer/internal/obs"
	"polymer/internal/plan"
)

// Config tunes the server; zero fields take the documented defaults.
type Config struct {
	// QueueDepth bounds the admission queue (default 64). A full queue
	// sheds new requests with 429 + Retry-After instead of queueing
	// unboundedly.
	QueueDepth int
	// Workers is the number of concurrent executions (default 4).
	Workers int
	// DefaultBudget is the per-request wall-clock budget when the client
	// sends none (default 30s). The deadline starts at admission.
	DefaultBudget time.Duration
	// DrainTimeout bounds graceful drain: in-flight work past the
	// deadline is cancelled through its context (default 5s).
	DrainTimeout time.Duration
	// GraphCacheBytes budgets the graph cache (topology bytes of resident
	// datasets). 0 means the 1 GiB default; negative disables eviction.
	// Graphs pinned by in-flight requests are never evicted, so the cache
	// can transiently exceed the budget under load.
	GraphCacheBytes int64
	// ResultCacheBytes budgets the versioned result cache (approximate
	// bytes of cached responses). 0 means the 64 MiB default; negative
	// disables result caching entirely.
	ResultCacheBytes int64
	// DisableSharing turns off run sharing: every request runs its own
	// private execution even when an identical run, or a traversal run
	// that could sweep its source too, is already admitted.
	DisableSharing bool
	// DisableLearning freezes the planner's online learner: decisions
	// still come from the analytic cost model, but observed runs no longer
	// adjust its correction factors (reproducible benchmarking).
	DisableLearning bool
	// Mutations, when non-nil, enables the streaming-mutation surface
	// (POST /mutatez): commits append to its WAL, and each committed batch
	// publishes a new graph snapshot and bumps the dataset's result-cache
	// generation. The caller owns the store's lifecycle (open before
	// NewServer, close after Shutdown).
	Mutations *mutate.Store
	// Tracer, when non-nil, receives serve-lane request spans and is
	// installed on every engine the server runs, so a flight recorder sees
	// supersteps, rollbacks and evictions alongside request lifecycles.
	Tracer *obs.Tracer
	// Recorder, when non-nil, is the in-memory flight recorder exposed at
	// GET /debugz/trace. It is the caller's job to route the Tracer's sink
	// into it (typically Tracer = obs.New(Recorder)).
	Recorder *obs.Recorder
	// Logger receives one structured record per request outcome; nil
	// discards.
	Logger *slog.Logger
	// noWorkers skips spawning the worker pool so tests can exercise
	// admission and queue mechanics in isolation.
	noWorkers bool
}

// restartMax caps an injected run's whole-run restarts (a request's
// restarts field overrides it).
const restartMax = 3

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.DefaultBudget <= 0 {
		c.DefaultBudget = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.GraphCacheBytes == 0 {
		c.GraphCacheBytes = 1 << 30
	}
	if c.ResultCacheBytes == 0 {
		c.ResultCacheBytes = 64 << 20
	}
	if c.Logger == nil {
		c.Logger = slog.New(discardHandler{})
	}
	return c
}

// discardHandler drops every record (the default logger).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// Response is the wire form of one completed request.
type Response struct {
	ID         int64   `json:"id"`
	System     string  `json:"system"`
	Algo       string  `json:"algo"`
	Graph      string  `json:"graph"`
	Scale      string  `json:"scale"`
	SimSeconds float64 `json:"sim_seconds"`
	Checksum   float64 `json:"checksum"`
	PeakBytes  int64   `json:"peak_bytes"`
	Rollbacks  int     `json:"rollbacks"`
	Restarts   int     `json:"restarts"`
	WallMs     float64 `json:"wall_ms"`
	Error      string  `json:"error,omitempty"`
	// Cached, Coalesced and BatchSize are provenance: how the serving
	// layer produced the answer (result-cache replay, attachment to an
	// in-flight identical run, or a BatchSize-source fused sweep). The
	// semantic payload (checksum and per-vertex results it summarizes) is
	// bit-identical to a cold single-request run's — the conformance
	// suite asserts exactly that. Accounting fields are provenance-like
	// too: on a response marked with BatchSize (including one replayed
	// from the cache), sim_seconds/peak_bytes describe the fused sweep
	// that computed the payload, not the solo run a direct request would
	// have made.
	Cached    bool `json:"cached,omitempty"`
	Coalesced bool `json:"coalesced,omitempty"`
	BatchSize int  `json:"batch,omitempty"`
	// Warm marks a payload a warm run computed: an earlier answer of the
	// same request, repaired for the edits committed since, bit-identical
	// to a cold run's. Like BatchSize it survives a cache replay, and
	// sim_seconds/peak_bytes describe the repair.
	Warm bool `json:"warm,omitempty"`
	// Seq and Generation are mutation-commit provenance (POST /mutatez):
	// the committed batch's sequence number — the snapshot version that
	// includes it — and the dataset's new result-cache generation.
	Seq        uint64 `json:"seq,omitempty"`
	Generation uint64 `json:"generation,omitempty"`
	// BoundsSeq is partition provenance of a Polymer run on a mutated
	// snapshot: the sequence number of the snapshot its edge-balanced
	// partition was balanced on — the run's own, or an earlier one whose
	// partition its lineage kept (partition.Sticky).
	BoundsSeq uint64 `json:"bounds_seq,omitempty"`
	// Tier/DramBytes/SlowRate are tiered-memory provenance, present when
	// the request armed a DRAM budget: the policy, the per-node DRAM
	// bytes, and the slow tier's share of all simulated accesses in the
	// run that produced the payload.
	Tier      string  `json:"tier,omitempty"`
	DramBytes int64   `json:"dram_bytes,omitempty"`
	SlowRate  float64 `json:"slow_rate,omitempty"`
	// Plan is planner provenance, present when the server chose the
	// engine, placement or schedule for this request. Like Cached and
	// Coalesced it is per-request: cache hits and joiners of a shared run
	// re-stamp it from the asking request's own decision.
	Plan *PlanInfo `json:"plan,omitempty"`
}

// outcome is one request's answer: its response, HTTP status and the
// resolution kind it is accounted as. A result-cache hit is answered by
// hit alone (the entry's rendered bytes and the request's provenance), and
// its resp stays zero.
type outcome struct {
	kind   resKind
	status int
	resp   Response
	hit    hitReply
}

// task is one admitted request travelling through the queue.
type task struct {
	id     int64
	v      *resolved
	ctx    context.Context
	cancel context.CancelFunc
	// admitted is the admission wall time (obs.NowMicros), so the request
	// span can attribute queue wait separately from execution.
	admitted float64
	// run is where the task's outcome is published.
	run *run
	// mut, when non-nil, is the mutation batch this task commits; the
	// worker routes it through executeMutate (and v is nil).
	mut *mutation
}

// Server owns the admission queue, the worker pool, the graph and result
// caches and the planners.
type Server struct {
	cfg Config
	log *slog.Logger

	queue    chan *task
	stop     chan struct{}
	workers  sync.WaitGroup
	inflight atomic.Int64 // queued + executing tasks
	draining atomic.Bool
	admitMu  sync.RWMutex // submit holds R; Shutdown holds W to flip draining
	ids      atomic.Int64

	baseCtx context.Context
	cancel  context.CancelFunc

	counters Counters

	cache   *graphCache
	results *resultCache
	mut     *mutate.Store

	// runs indexes the open shared runs (see run.go).
	runMu sync.Mutex
	runs  map[runKey]*run

	// planners holds one cost-model planner per machine shape; profiles
	// caches one feature vector per lineage (see planner.go).
	planMu   sync.RWMutex
	planners map[plannerKey]*plan.Planner
	profMu   sync.RWMutex
	profiles map[profileKey]profile
	// lineage counts, for /metricsz, what runs and profiles carried over
	// from a predecessor snapshot.
	lineage lineageCounters

	// recovering gates readiness while the mutation store replays its
	// WALs at startup.
	recovering atomic.Bool
}

// NewServer builds and starts a server (workers spawn immediately).
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		log:      cfg.Logger,
		queue:    make(chan *task, cfg.QueueDepth),
		stop:     make(chan struct{}),
		baseCtx:  base,
		cancel:   cancel,
		results:  newResultCache(cfg.ResultCacheBytes),
		runs:     make(map[runKey]*run),
		mut:      cfg.Mutations,
		planners: make(map[plannerKey]*plan.Planner),
		profiles: make(map[profileKey]profile),
	}
	s.cache = newGraphCache(cfg.GraphCacheBytes, func(id graphID, bytes int64) {
		s.counters.Evicted.Add(1)
		if tr := cfg.Tracer; tr != nil {
			tr.HostInstant("serve", "evict", obs.PidServe, obs.NowMicros(), -1,
				fmt.Sprintf("%s@%d m%d (%d bytes)", id.data, id.scale, id.seq, bytes))
		}
	})
	if !cfg.noWorkers {
		for i := 0; i < cfg.Workers; i++ {
			s.workers.Add(1)
			go s.worker()
		}
	}
	return s
}

// Counters exposes the service counters.
func (s *Server) Counters() *Counters { return &s.counters }

// enqueue places a task in the admission queue or sheds it. A shared run
// occupies exactly one queue slot no matter how many requests ride it.
func (s *Server) enqueue(t *task) (shed bool, err error) {
	// The read lock orders this admission against Shutdown's draining
	// flip: a task enqueued here is visible to the drain loop's in-flight
	// count, so no request is ever orphaned without a responder.
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining.Load() {
		return false, errors.New("serve: draining, not admitting")
	}
	s.inflight.Add(1)
	select {
	case s.queue <- t:
		s.counters.Admitted.Add(1)
		return false, nil
	default:
		s.inflight.Add(-1)
		s.counters.Shed.Add(1)
		if tr := s.cfg.Tracer; tr != nil {
			label := "mutation"
			if t.v != nil {
				label = fmt.Sprintf("%s/%s", t.v.sys, t.v.alg)
			}
			tr.HostInstant("serve", "shed", obs.PidServe, obs.NowMicros(), -1, "queue full ("+label+")")
		}
		return true, errors.New("serve: queue full")
	}
}

func (s *Server) worker() {
	defer s.workers.Done()
	for {
		select {
		case <-s.stop:
			return
		case t := <-s.queue:
			if t.mut != nil {
				s.executeMutate(t)
			} else {
				s.execute(t)
			}
			s.inflight.Add(-1)
		}
	}
}

// ctxErr reports whether err is a context cancellation or expiry.
func ctxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// resKind is the single resolution class every non-shed request ends in.
// Exactly one kind is recorded per request — by its own waiter on a
// shared run, at publish on a private one — which is what keeps the
// counter identity in metrics.go exact.
type resKind int

const (
	kindCompleted resKind = iota
	kindFailed
	kindExpired
	kindCancelled
)

// recordKind bumps the counter for one request resolution.
func (s *Server) recordKind(k resKind) {
	switch k {
	case kindCompleted:
		s.counters.Completed.Add(1)
	case kindFailed:
		s.counters.Failed.Add(1)
	case kindExpired:
		s.counters.Expired.Add(1)
	case kindCancelled:
		s.counters.Cancelled.Add(1)
	}
}

// classifyCtxErr maps a context error to its resolution kind and HTTP
// status: 504 for a spent budget, 503 for a cancellation (client gone or
// server draining). It records nothing — the resolving waiter does.
func classifyCtxErr(err error) (resKind, int) {
	if errors.Is(err, context.DeadlineExceeded) {
		return kindExpired, 504
	}
	return kindCancelled, 503
}

// execute runs one admitted run to its outcomes: seal, answer a run that
// expired in the queue, load the graph, fail each out-of-range source in
// its own slot with a 400, hand the live sources to attempt and publish.
func (s *Server) execute(t *task) {
	start := time.Now()
	startMicros := obs.NowMicros()
	defer t.cancel()
	r, v := t.run, t.v
	tr := s.cfg.Tracer
	// Queue wait is its own span: under overload it dominates the request
	// lifecycle and must not be read as execution time.
	tr.Span("serve", "queue", obs.PidServe, t.admitted, startMicros-t.admitted, -1, t.id, "")
	srcs := s.seal(r)
	outs := make([]outcome, len(srcs))
	resp := Response{
		ID:     t.id,
		System: string(v.sys),
		Algo:   string(v.alg),
		Graph:  string(v.data),
		Scale:  v.req.Scale,
	}
	if v.tier.Tiered() {
		resp.Tier = v.tier.Policy.String()
		resp.DramBytes = v.tier.DRAMPerNode
	}
	// The snapshot the run read, and the typed answer per slot when the
	// result cache retains them, for warm runs to come. An answer the cache
	// does not take is recycled here, its last holder.
	var seq uint64
	answers := make([]bench.Output, len(srcs))
	// finish gives every slot not already resolved on its own the run-wide
	// outcome, caches the full-fidelity results and publishes.
	finish := func(kind resKind, status int, out Response) {
		wall := float64(time.Since(start).Microseconds()) / 1000
		// Fault-free answers (200) feed the versioned cache, each under
		// the identity the equivalent single-source request looks up.
		cache := v.reusable()
		for i := range outs {
			if outs[i].status == 0 {
				outs[i] = outcome{kind: kind, status: status, resp: out}
			}
			o := &outs[i].resp
			o.WallMs = wall
			if !cache || outs[i].status != 200 || !s.results.put(v, v.id(srcs[i]), *o, answers[i], seq) {
				answers[i].Recycle()
			}
		}
		// Slot 0 is the opener's; joiners stamp their own plan in wait.
		outs[0].resp.Plan = v.planInfo()
		out.WallMs = wall
		if tr != nil {
			tr.Span("serve", "request", obs.PidServe, startMicros, obs.NowMicros()-startMicros, -1, t.id,
				fmt.Sprintf("%s/%s on %s sources=%d status=%d rollbacks=%d restarts=%d warm=%t err=%s",
					out.Algo, out.Graph, out.System, len(srcs), status, out.Rollbacks,
					out.Restarts, out.Warm, out.Error))
		}
		s.log.LogAttrs(context.Background(), slog.LevelInfo, "request",
			slog.Int64("id", t.id),
			slog.String("system", out.System),
			slog.String("algo", out.Algo),
			slog.String("graph", out.Graph),
			slog.Int("sources", len(srcs)),
			slog.Int("status", status),
			slog.Int("rollbacks", out.Rollbacks),
			slog.Int("restarts", out.Restarts),
			slog.Bool("warm", out.Warm),
			slog.Float64("sim_seconds", out.SimSeconds),
			slog.Float64("wall_ms", out.WallMs),
			slog.String("error", out.Error),
		)
		s.publish(r, outs)
	}

	// Expired or abandoned while queued: answer without burning a run.
	if err := t.ctx.Err(); err != nil {
		kind, status, _, _ := failure(err, &resp)
		finish(kind, status, resp)
		return
	}

	g, release, err := s.graphFor(v)
	if err != nil {
		resp.Error = err.Error()
		finish(kindFailed, 500, resp)
		return
	}
	// The pin outlives every use of g below, so eviction can never free a
	// graph out from under a running request.
	defer release()
	seq = g.Seq()
	live := make([]graph.Vertex, 0, len(srcs))
	liveSlot := make([]int, 0, len(srcs))
	for i, src := range srcs {
		if int(src) >= g.NumVertices() {
			bad := resp
			bad.Error = fmt.Sprintf("source %d outside [0,%d)", src, g.NumVertices())
			outs[i] = outcome{kind: kindFailed, status: 400, resp: bad}
			continue
		}
		live = append(live, src)
		liveSlot = append(liveSlot, i)
	}
	if len(live) == 0 {
		finish(kindFailed, 400, outs[0].resp)
		return
	}

	kind, status, sums, typed := s.attempt(t, g, live, &resp)
	for j, cs := range sums {
		resp.Checksum = cs
		outs[liveSlot[j]] = outcome{kind: kind, status: status, resp: resp}
	}
	for j, a := range typed {
		answers[liveSlot[j]] = a
	}
	finish(kind, status, resp)
}

// graphFor returns the request's dataset through the singleflight cache:
// concurrent requests for the same graph share one load without any
// request holding a lock across gen.Load, so a slow dataset build never
// blocks requests for other graphs. The returned release unpins the
// graph; graphs are immutable after construction, so concurrent runs
// share them freely.
//
// A dataset has one graph at every sequence number: the weighted one. At
// sequence 0 it is the generated base. With a mutation store attached,
// the dataset's committed sequence number is sampled here, and after a
// commit there is one entry per (dataset, scale, seq): the snapshot the
// store derives from the base, which stays resident (a commit does not
// invalidate it). An unweighted algorithm reads either through
// graph.Unweighted, the same index and neighbour arrays without the
// weights. Each commit so publishes one immutable snapshot under a
// distinct graphID, requests that sampled before the commit keep their
// pinned pre-commit snapshot (snapshot isolation), and the commit's
// invalidation dooms the old entry so the last release frees it.
func (s *Server) graphFor(v *resolved) (*graph.Graph, func(), error) {
	id := graphID{data: v.data, scale: v.scale}
	if s.mut != nil {
		var err error
		if id.seq, err = s.mut.Seq(string(v.data), int(v.scale)); err != nil {
			return nil, nil, err
		}
	}
	load := func() (*graph.Graph, error) { return gen.Load(v.data, v.scale, true) }
	if id.seq > 0 {
		base, loadBase := graphID{data: v.data, scale: v.scale}, load
		load = func() (*graph.Graph, error) {
			b, releaseBase, err := s.cache.get(base, loadBase)
			if err != nil {
				return nil, err
			}
			defer releaseBase()
			return s.mut.GraphAt(string(v.data), int(v.scale), id.seq, b)
		}
	}
	g, release, err := s.cache.get(id, load)
	if err == nil && !v.alg.Weighted() && !gen.AlwaysWeighted(v.data) {
		g = g.Unweighted()
	}
	return g, release, err
}

// Shutdown gracefully drains the server: admission stops immediately
// (readiness turns unready), queued and in-flight requests get until the
// drain timeout to finish, then their contexts are cancelled so engine
// supersteps abort and workers free up. It returns once no work is in
// flight and all workers have exited, or ctx's error if the caller gave
// up first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.admitMu.Lock()
	s.draining.Store(true)
	s.admitMu.Unlock()
	deadline := time.NewTimer(s.cfg.DrainTimeout)
	defer deadline.Stop()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	forced := false
	for s.inflight.Load() > 0 {
		select {
		case <-deadline.C:
			if !forced {
				forced = true
				s.cancel() // cancel every task context; runs abort at the next superstep
			}
		case <-ctx.Done():
			s.cancel()
			return ctx.Err()
		case <-tick.C:
		}
	}
	close(s.stop)
	s.workers.Wait()
	s.cancel()
	return nil
}

// Package serve is polymerd's overload-safe serving layer: a bounded
// admission queue with load shedding in front of a fixed worker pool,
// per-request deadlines propagated as contexts through every engine
// superstep, retry with exponential backoff and jitter layered over the
// fault session's checkpoint/rollback recovery, and a per-engine circuit
// breaker that routes PageRank-class requests to the honest degraded path
// while the circuit is open.
//
// The serving layer reuses the repo's whole stack unchanged: requests
// execute through bench.RunResilientCtx, so an injected or genuine fault
// inside a run is first handled by superstep rollback/replay, then by
// whole-run restart, and only then surfaces as a request failure that the
// breaker and the retry loop see.
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
	"polymer/internal/cluster"
	"polymer/internal/fault"
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
	// RetryMax is the default number of whole-run retries after a failed
	// execution (default 2); each retry waits RetryBase * 2^attempt
	// +/- 50% deterministic jitter (default base 10ms).
	RetryMax  int
	RetryBase time.Duration
	// RestartMax caps whole-run restarts for setup-time faults inside one
	// execution attempt (default 3).
	RestartMax int
	// BreakerThreshold trips an engine's circuit after that many
	// consecutive failed executions (default 3); BreakerCooldown is the
	// open period before a half-open probe (default 2s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
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
	// HedgeDelay tunes hedged cluster reads: how long the primary leg may
	// run before a second leg is raced from standby replicas. 0 (the
	// default) adapts to the p90 of recent primary latencies; a negative
	// value disables hedging.
	HedgeDelay time.Duration
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
	// Now overrides the clock (tests).
	Now func() time.Time
	// noWorkers skips spawning the worker pool so tests can exercise
	// admission and queue mechanics in isolation.
	noWorkers bool
}

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
	if c.RetryMax < 0 {
		c.RetryMax = 0
	} else if c.RetryMax == 0 {
		c.RetryMax = 2
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 10 * time.Millisecond
	}
	if c.RestartMax <= 0 {
		c.RestartMax = 3
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
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
	if c.Now == nil {
		c.Now = time.Now
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
	Attempts   int     `json:"attempts"`
	Degraded   bool    `json:"degraded"`
	// LostNode is the simulated node sacrificed on the degraded path.
	LostNode int     `json:"lost_node,omitempty"`
	Breaker  string  `json:"breaker,omitempty"`
	WallMs   float64 `json:"wall_ms"`
	Error    string  `json:"error,omitempty"`
	// Cached, Coalesced and BatchSize are provenance: how the serving
	// layer produced the answer (result-cache replay, attachment to an
	// in-flight identical run, or a BatchSize-source fused sweep). The
	// semantic payload (checksum and per-vertex results it summarizes) is
	// bit-identical to a cold single-request run's — the conformance
	// suite asserts exactly that. Accounting fields are provenance-like
	// too: on a response marked with BatchSize (including one replayed
	// from the cache), sim_seconds/peak_bytes/attempts describe the fused
	// sweep that computed the payload, not the solo run a direct request
	// would have made.
	Cached    bool `json:"cached,omitempty"`
	Coalesced bool `json:"coalesced,omitempty"`
	BatchSize int  `json:"batch,omitempty"`
	// Seq and Generation are mutation-commit provenance (POST /mutatez):
	// the committed batch's sequence number — the snapshot version that
	// includes it — and the dataset's new result-cache generation.
	Seq        uint64 `json:"seq,omitempty"`
	Generation uint64 `json:"generation,omitempty"`
	// Machines/Replicas/Supersteps/Failovers/NetBytes describe a cluster
	// run; Hedged marks a response produced by the hedge leg (served from
	// standby replicas) rather than the primary.
	Machines   int     `json:"machines,omitempty"`
	Replicas   int     `json:"replicas,omitempty"`
	Supersteps int     `json:"supersteps,omitempty"`
	Failovers  int     `json:"failovers,omitempty"`
	NetBytes   float64 `json:"net_bytes,omitempty"`
	Hedged     bool    `json:"hedged,omitempty"`
	// Tier/DramBytes/SlowRate are tiered-memory provenance, present when
	// the request armed a DRAM budget: the policy, the per-node DRAM
	// bytes, and the slow tier's share of all simulated accesses in the
	// run that produced the payload. A degraded fallback omits SlowRate —
	// the sacrificial rerun is untiered.
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
// resolution kind it is accounted as.
type outcome struct {
	kind   resKind
	status int
	resp   Response
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

// Server owns the admission queue, the worker pool, the per-engine
// circuit breakers and the graph cache.
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

	breakers map[bench.System]*Breaker
	counters Counters

	cache   *graphCache
	results *resultCache
	mut     *mutate.Store

	// runs indexes the open shared runs by verKey (see run.go).
	runMu sync.Mutex
	runs  map[string]*run

	// planners holds one cost-model planner per machine shape; profiles
	// caches feature vectors per dataset snapshot (see planner.go).
	planMu   sync.RWMutex
	planners map[plannerKey]*plan.Planner
	profMu   sync.RWMutex
	profiles map[profileKey]plan.Features

	// hedges tracks recent primary cluster latencies for the adaptive
	// hedge delay; lastCluster is the most recent run's health snapshot,
	// surfaced at /metricsz and /readyz. recovering gates readiness while
	// the mutation store replays its WALs at startup.
	hedges      *hedgeTracker
	lastCluster atomic.Pointer[clusterStatus]
	recovering  atomic.Bool
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
		breakers: make(map[bench.System]*Breaker),
		results:  newResultCache(cfg.ResultCacheBytes),
		runs:     make(map[string]*run),
		mut:      cfg.Mutations,
		hedges:   newHedgeTracker(64),
		planners: make(map[plannerKey]*plan.Planner),
		profiles: make(map[profileKey]plan.Features),
	}
	s.cache = newGraphCache(cfg.GraphCacheBytes, func(key string, bytes int64) {
		s.counters.Evicted.Add(1)
		cfg.Tracer.HostInstant("serve", "evict", obs.PidServe, obs.NowMicros(), -1,
			fmt.Sprintf("%s (%d bytes)", key, bytes))
	})
	for _, sys := range bench.Systems() {
		s.breakers[sys] = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Now)
	}
	if !cfg.noWorkers {
		for i := 0; i < cfg.Workers; i++ {
			s.workers.Add(1)
			go s.worker()
		}
	}
	return s
}

// Breaker exposes an engine's circuit (tests and /metricsz).
func (s *Server) Breaker(sys bench.System) *Breaker { return s.breakers[sys] }

// Counters exposes the service counters.
func (s *Server) Counters() *Counters { return &s.counters }

// Draining reports whether the server has stopped admitting.
func (s *Server) Draining() bool { return s.draining.Load() }

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
		if t.v != nil && t.v.hedge {
			// A shed hedge leg is not a refused client request — the
			// primary leg is still running and will answer — so it stays
			// out of the shed count (which mirrors client-visible 429s).
			return true, errors.New("serve: queue full")
		}
		s.counters.Shed.Add(1)
		label := "mutation"
		if t.v != nil {
			label = fmt.Sprintf("%s/%s", t.v.sys, t.v.alg)
		}
		s.cfg.Tracer.HostInstant("serve", "shed", obs.PidServe, obs.NowMicros(), -1,
			"queue full ("+label+")")
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
	kindDegraded
	kindBroken
	kindFailed
	kindExpired
	kindCancelled
)

// recordKind bumps the counter for one request resolution.
func (s *Server) recordKind(k resKind) {
	switch k {
	case kindCompleted:
		s.counters.Completed.Add(1)
	case kindDegraded:
		s.counters.Degraded.Add(1)
	case kindBroken:
		s.counters.Broken.Add(1)
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

// execute runs one admitted run to its outcomes: seal, load the graph,
// validate each source (a bad one fails its own slot with a 400), run the
// live sources — one through the resilient path, k through one fused
// multi-source sweep — and publish. Each slot resolves as a full-fidelity
// result, degraded result, breaker refusal, deadline expiry,
// cancellation, or failure after retries.
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
	// lease is the planned run's socket assignment; nil for explicit
	// requests. finish reads it, so it is declared (and later assigned)
	// before the closure is built.
	var lease *plan.Lease
	// finish gives every slot not already resolved on its own the run-wide
	// outcome, caches the full-fidelity results and publishes.
	finish := func(kind resKind, status int, out Response) {
		wall := float64(time.Since(start).Microseconds()) / 1000
		breaker := string(s.breakers[v.sys].State())
		tenants := 0
		if lease != nil && lease.Tenants() > 1 {
			// The machine was shared: every waiter reports the co-tenancy
			// and the honest wall-clock-style charge. The payload itself is
			// untouched — sharing simulated sockets never changes what was
			// computed, only what it cost.
			tenants = lease.Tenants()
		}
		// Full-fidelity fault-free results feed the versioned cache, each
		// under the key the equivalent single-source request looks up.
		// Hedge legs don't: their standby-replica placement skews the
		// timing fields, and the key carries no hedge bit. Non-default
		// leases don't either: a run on non-prefix or shared sockets is
		// not bit-identical to the canonical machine the key names.
		cache := v.reusable() && !v.hedge && (lease == nil || lease.Default())
		for i := range outs {
			if outs[i].status == 0 {
				outs[i] = outcome{kind: kind, status: status, resp: out}
			}
			o := &outs[i].resp
			o.WallMs, o.Breaker = wall, breaker
			if cache && outs[i].status == 200 && !o.Degraded {
				s.results.put(v, v.keyFor(srcs[i]), *o)
			}
		}
		// Slot 0 is the opener's; joiners stamp their own plan in wait.
		outs[0].resp.Plan = v.planWith(tenants, outs[0].resp.SimSeconds)
		out.WallMs, out.Breaker = wall, breaker
		tr.Span("serve", "request", obs.PidServe, startMicros, obs.NowMicros()-startMicros, -1, t.id,
			fmt.Sprintf("%s/%s on %s sources=%d status=%d attempts=%d rollbacks=%d restarts=%d degraded=%t breaker=%s err=%s",
				out.Algo, out.Graph, out.System, len(srcs), status, out.Attempts, out.Rollbacks,
				out.Restarts, out.Degraded, out.Breaker, out.Error))
		s.log.LogAttrs(context.Background(), slog.LevelInfo, "request",
			slog.Int64("id", t.id),
			slog.String("system", out.System),
			slog.String("algo", out.Algo),
			slog.String("graph", out.Graph),
			slog.Int("sources", len(srcs)),
			slog.Int("status", status),
			slog.Int("attempts", out.Attempts),
			slog.Int("rollbacks", out.Rollbacks),
			slog.Int("restarts", out.Restarts),
			slog.Bool("degraded", out.Degraded),
			slog.String("breaker", out.Breaker),
			slog.Float64("sim_seconds", out.SimSeconds),
			slog.Float64("wall_ms", out.WallMs),
			slog.String("error", out.Error),
		)
		s.publish(r, outs, tenants)
	}

	// Expired or abandoned while queued: answer without burning a run.
	if err := t.ctx.Err(); err != nil {
		resp.Error = err.Error()
		kind, status := classifyCtxErr(err)
		finish(kind, status, resp)
		return
	}

	g, release, err := s.graphFor(v)
	if err != nil {
		resp.Error = err.Error()
		finish(kindFailed, 500, resp)
		return
	}
	// The pin outlives every use of g below (including the degraded path),
	// so eviction can never free a graph out from under a running request.
	defer release()
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

	if v.clustered() {
		// Cluster runs bypass the per-engine breaker: the substrate has
		// its own health tracking and fails shards over to replicas
		// instead of tripping a circuit.
		s.executeCluster(t, g, resp, finish)
		return
	}

	var res attemptResult
	res, lease = s.attempt(t, g, live)
	defer lease.Release()
	if res.kind == kindBroken {
		// Only PageRank-class runs have a degraded route, and they always
		// have exactly one source; a traversal run is refused whole.
		s.degradedOrRefuse(t, g, resp, finish)
		return
	}
	resp.Attempts, resp.Rollbacks, resp.Restarts = res.attempts, res.rollbacks, res.restarts
	if res.err != nil {
		resp.Error = res.err.Error()
		finish(res.kind, res.status, resp)
		return
	}
	resp.SimSeconds, resp.PeakBytes = res.sim, res.peak
	if v.tier.Tiered() {
		resp.SlowRate = res.slowRate
	}
	if len(live) > 1 {
		// Provenance: the accounting fields describe the fused sweep.
		resp.BatchSize = len(live)
	} else {
		// A run of one source is indistinguishable from a direct run — its
		// simulated time is exactly what the model predicted, so it may
		// teach the learner. Fused sweeps may not: their cost covers k
		// sources at once.
		s.observePlan(v, lease, res.sim)
	}
	for j, cs := range res.checksums {
		resp.Checksum = cs
		outs[liveSlot[j]] = outcome{kind: kindCompleted, status: 200, resp: resp}
	}
	finish(kindCompleted, 200, resp)
}

// clusterChaosSteps is the window (in supersteps) a fault_seed chaos
// schedule lands its events in on cluster requests.
const clusterChaosSteps = 3

// clusterStatus is the /metricsz and /readyz view of the most recent
// cluster run: member health, shard placement and cumulative link bytes.
type clusterStatus struct {
	Machines  []cluster.MachineHealth `json:"machines"`
	Healthy   int                     `json:"healthy"`
	Total     int                     `json:"total"`
	Failovers int                     `json:"failovers"`
	NetBytes  float64                 `json:"net_bytes"`
	Links     [][]float64             `json:"links"`
}

// executeCluster runs one admitted request on the replicated sharded
// cluster substrate. Faults are survived inside the run (failover +
// checkpoint replay), so a returned error is terminal: no retry loop.
func (s *Server) executeCluster(t *task, g *graph.Graph, resp Response, finish func(resKind, int, Response)) {
	v := t.v
	cfg := cluster.Config{
		Machines: v.machines, Replicas: v.replicas,
		Topo: v.topo, Nodes: v.nodes, Cores: v.cores,
		// The hedge leg serves every shard from a standby replica, so a
		// primary wedged on its home machines doesn't wedge the hedge.
		PreferReplica: v.hedge,
		Tracer:        s.cfg.Tracer,
	}
	if v.req.FaultSeed != 0 {
		cfg.Events = fault.ClusterChaos(v.req.FaultSeed, clusterChaosSteps, v.machines)
	}
	c, err := cluster.New(g, cfg)
	if err != nil {
		resp.Error = err.Error()
		finish(kindFailed, 400, resp)
		return
	}
	res, err := c.Run(t.ctx, clusterAlgos[v.alg], v.src)
	if err != nil {
		resp.Error = err.Error()
		if ctxErr(err) {
			kind, status := classifyCtxErr(err)
			finish(kind, status, resp)
			return
		}
		finish(kindFailed, 500, resp)
		return
	}
	healthy := 0
	for _, m := range res.Machines {
		if m.State == "healthy" {
			healthy++
		}
	}
	s.lastCluster.Store(&clusterStatus{
		Machines: res.Machines, Healthy: healthy, Total: v.machines,
		Failovers: res.Failovers, NetBytes: res.NetBytes, Links: res.Links,
	})
	resp.Attempts = 1
	resp.SimSeconds = res.SimSeconds
	resp.Checksum = res.Checksum
	resp.Machines = v.machines
	resp.Replicas = v.replicas
	resp.Supersteps = res.Supersteps
	resp.Failovers = res.Failovers
	resp.NetBytes = res.NetBytes
	resp.Hedged = v.hedge
	finish(kindCompleted, 200, resp)
}

// degradedOrRefuse handles a request whose engine circuit is open:
// PageRank-class requests are served by the honest degraded path (the run
// is re-provisioned on a machine that permanently lost a NUMA node, with
// the migration cost charged), everything else gets 503 + Retry-After.
func (s *Server) degradedOrRefuse(t *task, g *graph.Graph, resp Response, finish func(resKind, int, Response)) {
	v := t.v
	if v.alg == bench.PR && v.nodes >= 2 {
		dr, err := bench.RunPolymerDegraded(g, v.topo, v.nodes, v.cores, 0, 0)
		if err == nil {
			resp.Degraded = true
			resp.LostNode = dr.FailedNode
			resp.Attempts = 1
			resp.SimSeconds = dr.Result.SimSeconds
			resp.Checksum = dr.Result.Checksum
			resp.PeakBytes = dr.Result.PeakBytes
			finish(kindDegraded, 200, resp)
			return
		}
		resp.Error = err.Error()
		finish(kindFailed, 500, resp)
		return
	}
	resp.Error = fmt.Sprintf("circuit open for %s", v.sys)
	finish(kindBroken, 503, resp)
}

// cancelProbe releases a half-open probe slot without judging the engine
// (the probe was cut short by the request's own deadline).
func (b *Breaker) cancelProbe() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// sleepBackoff waits RetryBase * 2^(attempt-1), capped at one second,
// +/- 50% deterministic jitter derived from (seed, attempt) so retry
// storms decorrelate without nondeterministic tests. It reports false if
// the context expired first.
func sleepBackoff(ctx context.Context, base time.Duration, attempt int, seed uint64) bool {
	d := base << uint(attempt-1)
	if d > time.Second {
		d = time.Second
	}
	// splitmix64 finalizer over (seed, attempt) for platform-stable jitter.
	z := seed + uint64(attempt)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	frac := float64(z%1024) / 1024 // [0,1)
	jittered := time.Duration(float64(d) * (0.5 + frac))
	timer := time.NewTimer(jittered)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}

// graphFor returns the request's dataset through the singleflight cache:
// concurrent requests for the same (dataset, scale, weighted) key share
// one load without any request holding a lock across gen.Load, so a slow
// dataset build never blocks requests for other graphs. The returned
// release unpins the graph; graphs are immutable after construction, so
// concurrent runs share them freely.
//
// With a mutation store attached, the dataset's committed mutation
// sequence number is sampled here. At sequence 0 nothing changes: the key
// is the generated base's. After a commit there is one entry per (dataset,
// scale, seq) — the weighted snapshot, which the store derives from the
// weighted base (resident under its sequence-0 key, which a commit does
// not invalidate) — and an unweighted algorithm reads it through
// graph.Unweighted, the same index and neighbour arrays without the
// weights; the scale's unweighted base is never read again, and the
// commit drops it. Each commit so publishes one immutable snapshot under a
// distinct key, requests that sampled before the commit keep their pinned
// pre-commit snapshot (snapshot isolation), and the commit's invalidation
// dooms the old entry so the last release frees it.
func (s *Server) graphFor(v *resolved) (*graph.Graph, func(), error) {
	weighted := v.alg.Weighted()
	var seq uint64
	if s.mut != nil {
		var err error
		if seq, err = s.mut.Seq(string(v.data), int(v.scale)); err != nil {
			return nil, nil, err
		}
	}
	base := func(w bool) (*graph.Graph, func(), error) {
		return s.cache.get(baseKey(v.data, v.scale, w),
			func() (*graph.Graph, error) { return gen.Load(v.data, v.scale, w) })
	}
	if seq == 0 {
		return base(weighted)
	}
	g, release, err := s.cache.get(fmt.Sprintf("%s|%d|m%d", v.data, v.scale, seq), func() (*graph.Graph, error) {
		b, releaseBase, err := base(true)
		if err != nil {
			return nil, err
		}
		defer releaseBase()
		return s.mut.GraphAt(string(v.data), int(v.scale), seq, b)
	})
	if err == nil && !weighted && !gen.AlwaysWeighted(v.data) {
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

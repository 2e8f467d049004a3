// HTTP surface: POST /run executes one analytics request through the
// admission queue; GET /healthz reports liveness with counters; GET
// /readyz flips to 503 the moment a drain starts (so load balancers stop
// routing before in-flight work finishes); GET /metricsz exposes the
// counters, queue, caches and planners.

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"polymer/internal/mutate"
	"polymer/internal/obs"
	"polymer/internal/plan"
)

// Handler returns the server's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /run", s.handleRun)
	mux.HandleFunc("POST /mutatez", s.handleMutate)
	mux.HandleFunc("POST /invalidatez", s.handleInvalidate)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	mux.HandleFunc("GET /debugz/trace", s.handleDebugTrace)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

// refuse answers a request that was never admitted: 429 + Retry-After: 1
// when the full queue shed it, else 503 + Retry-After: 5 (a draining
// server, or a planner that could not place the request).
func refuse(w http.ResponseWriter, err error, shed bool) {
	status, after := http.StatusServiceUnavailable, "5"
	if shed {
		// Load shedding is synchronous: the refusal costs no queue slot
		// and no worker time, so it lands well inside any budget.
		status, after = http.StatusTooManyRequests, "1"
	}
	w.Header().Set("Retry-After", after)
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// writeHit writes a result-cache hit: the entry's rendered bytes stamped
// with the request's provenance, the bytes writeJSON would write.
func writeHit(w http.ResponseWriter, status int, r *hitReply) {
	buf := hitBufs.Get().(*[]byte)
	*buf = r.appendTo((*buf)[:0])
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(*buf)
	hitBufs.Put(buf)
}

// hitBufs pools the buffers hits are rendered into.
var hitBufs = sync.Pool{New: func() any { return new([]byte) }}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var v resolved
	if err := v.decode(r.Body); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	out, shed, err := s.answer(&v, r.Context())
	if err != nil {
		refuse(w, err, shed)
		return
	}
	if out.status == http.StatusServiceUnavailable {
		// A cancelled run (the client gone or the server draining).
		w.Header().Set("Retry-After", "1")
	}
	if out.hit.body != nil {
		writeHit(w, out.status, &out.hit)
		return
	}
	writeJSON(w, out.status, out.resp)
}

// answer routes one validated request through the cheapest path that can
// satisfy it: the versioned result cache, then a run — shared when one
// for its identity is open (or opened here), private for fault-carrying
// requests or with sharing off.
func (s *Server) answer(v *resolved, clientCtx context.Context) (outcome, bool, error) {
	// A draining server refuses everything up front — even requests the
	// result cache could answer — so load balancers converge fast.
	if s.draining.Load() {
		return outcome{}, false, errors.New("serve: draining, not admitting")
	}
	// Auto engine/placement resolve before anything keys on them: the
	// result cache and the run registry must both see the concrete pick so
	// planned and explicit spellings of the same run share an identity.
	if err := s.planFor(v); err != nil {
		return outcome{}, false, err
	}
	if v.reusable() {
		v.ver = s.results.version(v.data)
		if h, ok := s.results.get(v); ok {
			// A hit is a completed request that cost nothing: it is
			// accounted both ways.
			s.counters.ResultHits.Add(1)
			s.counters.Completed.Add(1)
			if tr := s.cfg.Tracer; tr != nil {
				tr.HostInstant("serve", "result-hit", obs.PidServe, obs.NowMicros(), -1, fmt.Sprintf("%+v", v.id(v.src)))
			}
			// The payload is the entry's rendered bytes, stamped as they are
			// written with this request's provenance. Plan is per-request,
			// like ID: the cached payload carries none (put strips it),
			// and the hit is stamped with this request's own decision —
			// nil when it was explicit, even if a planned run populated
			// the entry.
			info, rendered := v.hitPlan()
			return outcome{status: http.StatusOK, hit: hitReply{
				hit:      h,
				id:       s.ids.Add(1),
				plan:     info,
				rendered: rendered,
			}}, false, nil
		}
	}
	// The run keeps the request past this call, so it gets a heap copy
	// and the caller's can stay in the caller's frame.
	kept := *v
	r, slot, shed, err := s.join(&kept, clientCtx)
	if err != nil {
		return outcome{}, shed, err
	}
	return s.wait(r, slot, &kept, clientCtx), false, nil
}

// handleInvalidate is the dataset-refresh hook: POST /invalidatez?graph=X
// bumps X's result-cache generation and purges cached state.
func (s *Server) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("graph")
	if id == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "missing ?graph= parameter"})
		return
	}
	ver, purged := s.InvalidateGraph(id)
	writeJSON(w, http.StatusOK, map[string]any{
		"graph": id, "generation": ver, "purged": purged,
	})
}

type healthBody struct {
	Status   string          `json:"status"`
	Counters CounterSnapshot `json:"counters"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, healthBody{Status: "ok", Counters: s.counters.Snapshot()})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "draining"})
		return
	}
	if s.recovering.Load() {
		// WAL replay in progress: refuse readiness so load balancers hold
		// traffic instead of racing recovery; liveness (healthz) stays up.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "recovering: mutation store replaying WAL"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// RecoverInBackground marks the server not-ready and replays the
// mutation store's WALs off the request path; /readyz returns 503 +
// Retry-After until the replay finishes. Without a mutation store it is
// a no-op.
func (s *Server) RecoverInBackground() {
	if s.mut == nil {
		return
	}
	s.recovering.Store(true)
	go func() {
		if err := s.mut.RecoverAll(); err != nil {
			s.log.Error("mutation store recovery", "error", err)
		}
		s.recovering.Store(false)
	}()
}

type metricsBody struct {
	Counters CounterSnapshot  `json:"counters"`
	Queue    map[string]int64 `json:"queue"`
	Cache    cacheStats       `json:"graph_cache"`
	Results  cacheStats       `json:"result_cache"`
	// Mutations and Lineage are present only when the mutation store is
	// attached.
	Mutations *mutate.StoreStats `json:"mutations,omitempty"`
	Lineage   *LineageStats      `json:"lineage,omitempty"`
	// Planner holds per-machine-shape planner counters (decisions and
	// cache hits) and learner regret stats, present once an auto request
	// has been planned.
	Planner map[string]plan.Stats `json:"planner,omitempty"`
}

func (s *Server) handleMetricsz(w http.ResponseWriter, _ *http.Request) {
	body := metricsBody{
		Counters: s.counters.Snapshot(),
		Queue: map[string]int64{
			"depth":    int64(cap(s.queue)),
			"length":   int64(len(s.queue)),
			"inflight": s.inflight.Load(),
		},
		Cache:   s.cache.stats(),
		Results: s.results.stats(),
	}
	if s.mut != nil {
		st := s.mut.Stats()
		body.Mutations = &st
		body.Lineage = s.lineage.stats()
	}
	body.Planner = s.plannerStats()
	writeJSON(w, http.StatusOK, body)
}

// traceBody is the flight-recorder dump: the most recent request spans and
// engine/fault events still resident in the rings, oldest first.
type traceBody struct {
	Requests []obs.Event `json:"requests"`
	Steps    []obs.Event `json:"steps"`
	// Dropped counts events that aged out of each ring.
	DroppedRequests int64 `json:"dropped_requests"`
	DroppedSteps    int64 `json:"dropped_steps"`
}

func (s *Server) handleDebugTrace(w http.ResponseWriter, _ *http.Request) {
	rec := s.cfg.Recorder
	if rec == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "flight recorder disabled (start polymerd with -trace-requests/-trace-steps > 0)"})
		return
	}
	reqs := rec.Requests.Snapshot()
	steps := rec.Steps.Snapshot()
	writeJSON(w, http.StatusOK, traceBody{
		Requests:        reqs,
		Steps:           steps,
		DroppedRequests: rec.Requests.Total() - int64(len(reqs)),
		DroppedSteps:    rec.Steps.Total() - int64(len(steps)),
	})
}

// String renders the config for startup logs.
func (c Config) String() string {
	return fmt.Sprintf("queue=%d workers=%d budget=%v drain=%v",
		c.QueueDepth, c.Workers, c.DefaultBudget, c.DrainTimeout)
}

// HTTP surface: POST /run executes one analytics request through the
// admission queue; GET /healthz reports liveness with counters; GET
// /readyz flips to 503 the moment a drain starts (so load balancers stop
// routing before in-flight work finishes); GET /metricsz exposes the
// counters and breaker states.

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"polymer/internal/bench"
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

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	v, err := DecodeRequest(r.Body)
	if err != nil {
		var bad *BadRequest
		if errors.As(err, &bad) {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: bad.Error()})
			return
		}
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	out, shed, err := s.answer(v, r.Context())
	if err != nil {
		if shed {
			// Load shedding is synchronous: the refusal costs no queue
			// slot and no worker time, so it lands well inside any budget.
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
			return
		}
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	}
	if out.status == http.StatusServiceUnavailable {
		if br := s.breakers[v.sys]; br == nil {
			// An auto request that never got planned (e.g. refused while
			// draining) has no concrete engine to consult.
			w.Header().Set("Retry-After", "1")
		} else if ra := br.RetryAfter(); ra > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(int(ra.Seconds())+1))
		} else {
			w.Header().Set("Retry-After", "1")
		}
	}
	writeJSON(w, out.status, out.resp)
}

// answer routes one validated request through the cheapest path that can
// satisfy it: the versioned result cache, then a run — shared when one
// for its key is open (or opened here), private for fault-carrying
// requests or with sharing off. Cluster requests hedge instead.
func (s *Server) answer(v *resolved, clientCtx context.Context) (outcome, bool, error) {
	// A draining server refuses everything up front — even requests the
	// result cache could answer — so load balancers converge fast.
	if s.draining.Load() {
		return outcome{}, false, errors.New("serve: draining, not admitting")
	}
	// Auto engine/placement resolve before anything keys on them: the
	// result cache and the run registry must both see the concrete pick so
	// planned and explicit spellings of the same run collide.
	if err := s.planFor(v); err != nil {
		return outcome{}, false, err
	}
	if v.reusable() {
		v.ver = s.results.version(string(v.data))
		if resp, ok := s.results.get(v); ok {
			// A hit is a completed request that cost nothing: it is
			// accounted both ways.
			s.counters.ResultHits.Add(1)
			s.counters.Completed.Add(1)
			s.cfg.Tracer.HostInstant("serve", "result-hit", obs.PidServe, obs.NowMicros(), -1, v.key())
			resp.ID = s.ids.Add(1)
			resp.Cached = true
			resp.Breaker = string(s.breakers[v.sys].State())
			// Plan provenance is per-request, like ID and Breaker: the
			// cached payload carries none (put strips it), and the hit is
			// stamped with this request's own decision — nil when it was
			// explicit, even if a planned run populated the entry.
			resp.Plan = v.planInfo()
			return outcome{status: http.StatusOK, resp: resp}, false, nil
		}
	}
	if v.clustered() {
		// Cluster requests hedge instead of sharing a run: the win they
		// need is tail-latency insurance against a slow or failing machine,
		// and attaching waiters to one run would put every rider behind the
		// same slow primary. Repeats are still absorbed by the result cache
		// above.
		return s.hedged(v, clientCtx)
	}
	r, slot, shed, err := s.join(v, clientCtx)
	if err != nil {
		return outcome{}, shed, err
	}
	return s.wait(r, slot, v, clientCtx), false, nil
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
	body := map[string]any{"status": "ready"}
	if cs := s.lastCluster.Load(); cs != nil {
		body["cluster"] = fmt.Sprintf("%d/%d machines healthy", cs.Healthy, cs.Total)
	}
	writeJSON(w, http.StatusOK, body)
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
	Counters CounterSnapshot   `json:"counters"`
	Breakers map[string]string `json:"breakers"`
	Queue    map[string]int64  `json:"queue"`
	Cache    cacheStats        `json:"graph_cache"`
	Results  cacheStats        `json:"result_cache"`
	// Mutations is present only when the mutation store is attached.
	Mutations *mutate.StoreStats `json:"mutations,omitempty"`
	// Cluster is the most recent cluster run's health snapshot, present
	// once a cluster request has executed.
	Cluster *clusterStatus `json:"cluster,omitempty"`
	// Planner holds per-machine-shape planner counters (decisions, cache
	// hits, fallbacks) and learner regret stats, present once an auto
	// request has been planned.
	Planner map[string]plan.Stats `json:"planner,omitempty"`
}

func (s *Server) handleMetricsz(w http.ResponseWriter, _ *http.Request) {
	brs := make(map[string]string, len(s.breakers))
	for _, sys := range bench.Systems() {
		brs[string(sys)] = string(s.breakers[sys].State())
	}
	body := metricsBody{
		Counters: s.counters.Snapshot(),
		Breakers: brs,
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
	}
	body.Cluster = s.lastCluster.Load()
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
	return fmt.Sprintf("queue=%d workers=%d budget=%v drain=%v retries=%d breaker=%d/%v",
		c.QueueDepth, c.Workers, c.DefaultBudget, c.DrainTimeout, c.RetryMax,
		c.BreakerThreshold, c.BreakerCooldown)
}

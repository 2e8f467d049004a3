// The streaming-mutation surface: POST /mutatez appends one batch of
// edge mutations to the WAL-backed mutation store under the same
// admission control as analytics requests (queue slot, budget, load
// shedding). The fsync inside Commit is the durability point; after it,
// the handler bumps the dataset's result-cache generation, so the commit
// itself — not a manual POST /invalidatez — retires every cached result
// and shared run that predates it.
// Requests already executing keep serving their pinned pre-commit
// snapshot (snapshot isolation); their results land under the old
// generation and are never served again.

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"polymer/internal/gen"
	"polymer/internal/mutate"
	"polymer/internal/obs"
)

// MaxMutationBodyBytes bounds a /mutatez request body.
const MaxMutationBodyBytes = 1 << 20

// MaxMutationOps bounds one mutation batch at the HTTP surface (the
// store's own record cap is higher; this keeps request bodies sane).
const MaxMutationOps = 8192

// MutationRequest is the wire form of one edge-mutation batch.
type MutationRequest struct {
	// Graph and Scale address the dataset snapshot stream to mutate.
	Graph string `json:"graph"`
	Scale string `json:"scale"`
	// Ops apply in order within the batch.
	Ops []MutationOp `json:"ops"`
	// BudgetMs bounds queue wait; 0 means the server default.
	BudgetMs int64 `json:"budget_ms"`
}

// MutationOp is one edge insert or delete.
type MutationOp struct {
	// Op is "insert" or "delete".
	Op  string `json:"op"`
	Src uint32 `json:"src"`
	Dst uint32 `json:"dst"`
	// Wt is the inserted edge's weight (ignored for deletes; unweighted
	// algorithm views drop it).
	Wt float32 `json:"wt"`
}

// mutation is a validated mutation batch bound to concrete types.
type mutation struct {
	req    MutationRequest
	data   gen.Dataset
	scale  gen.Scale
	n      int // dataset vertex count, for endpoint bounds
	ops    []mutate.Op
	budget time.Duration
}

// DecodeMutation reads and validates one mutation body. Every error is a
// *BadRequest; nothing is admitted before validation passes.
func DecodeMutation(r io.Reader) (*mutation, error) {
	dec := json.NewDecoder(io.LimitReader(r, MaxMutationBodyBytes+1))
	dec.DisallowUnknownFields()
	var req MutationRequest
	if err := dec.Decode(&req); err != nil {
		return nil, badReq("bad JSON: %v", err)
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return nil, badReq("trailing data after mutation object")
	}
	return resolveMutation(req)
}

func resolveMutation(req MutationRequest) (*mutation, error) {
	m := &mutation{req: req, data: gen.Dataset(strings.TrimSpace(req.Graph))}
	found := false
	for _, d := range gen.Datasets() {
		if d == m.data {
			found = true
			break
		}
	}
	if !found {
		return nil, badReq("unknown dataset %q", req.Graph)
	}
	var ok bool
	if m.scale, ok = scales[strings.ToLower(req.Scale)]; !ok {
		return nil, badReq("unknown scale %q (want tiny, small or default)", req.Scale)
	}
	if len(req.Ops) == 0 {
		return nil, badReq("empty mutation batch")
	}
	if len(req.Ops) > MaxMutationOps {
		return nil, badReq("batch of %d ops exceeds the %d maximum", len(req.Ops), MaxMutationOps)
	}
	n, err := gen.NumVertices(m.data, m.scale)
	if err != nil {
		return nil, badReq("%v", err)
	}
	m.n = n
	m.ops = make([]mutate.Op, len(req.Ops))
	for i, op := range req.Ops {
		var kind mutate.OpKind
		switch strings.ToLower(op.Op) {
		case "insert":
			kind = mutate.OpInsert
		case "delete":
			kind = mutate.OpDelete
		default:
			return nil, badReq("op %d: unknown kind %q (want insert or delete)", i, op.Op)
		}
		if int(op.Src) >= n || int(op.Dst) >= n {
			return nil, badReq("op %d: edge (%d,%d) outside [0,%d) for %s/%s",
				i, op.Src, op.Dst, n, req.Graph, req.Scale)
		}
		m.ops[i] = mutate.Op{Kind: kind, Src: op.Src, Dst: op.Dst, Wt: op.Wt}
	}
	if req.BudgetMs < 0 {
		return nil, badReq("budget_ms %d is negative", req.BudgetMs)
	}
	if req.BudgetMs > MaxBudget.Milliseconds() {
		return nil, badReq("budget_ms %d exceeds the %v maximum", req.BudgetMs, MaxBudget)
	}
	m.budget = time.Duration(req.BudgetMs) * time.Millisecond
	return m, nil
}

// handleMutate is POST /mutatez: decode, admit, commit, invalidate.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if s.mut == nil {
		writeJSON(w, http.StatusServiceUnavailable,
			errorBody{Error: "mutations disabled (start polymerd with -wal-dir)"})
		return
	}
	m, err := DecodeMutation(r.Body)
	if err != nil {
		var bad *BadRequest
		if errors.As(err, &bad) {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: bad.Error()})
			return
		}
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	t, shed, err := s.submitMutation(m, r.Context())
	if err != nil {
		if shed {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
			return
		}
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	}
	out := s.wait(t.run, 0, nil, nil)
	writeJSON(w, out.status, out.resp)
}

// submitMutation runs admission control for one mutation batch; it takes
// a queue slot exactly like an analytics request, so ingestion cannot
// starve reads (or vice versa) beyond the queue's fairness.
func (s *Server) submitMutation(m *mutation, clientCtx context.Context) (*task, bool, error) {
	ctx, cancel := s.budgetCtx(m.budget, clientCtx)
	t := &task{
		id:       s.ids.Add(1),
		mut:      m,
		ctx:      ctx,
		cancel:   cancel,
		admitted: obs.NowMicros(),
		run:      newRun("", nil, cancel),
	}
	if shed, err := s.enqueue(t); err != nil {
		cancel()
		return nil, shed, err
	}
	return t, false, nil
}

// executeMutate commits one admitted mutation batch. On success the
// dataset's generation is bumped before the response is sent, so by the
// time a client sees the ack, every pre-commit cached result and shared
// run is unreachable.
func (s *Server) executeMutate(t *task) {
	start := time.Now()
	startMicros := obs.NowMicros()
	defer t.cancel()
	m := t.mut
	tr := s.cfg.Tracer
	tr.Span("serve", "queue", obs.PidServe, t.admitted, startMicros-t.admitted, -1, t.id, "")
	resp := Response{
		ID:    t.id,
		Algo:  "mutate",
		Graph: string(m.data),
		Scale: m.req.Scale,
	}
	finish := func(kind resKind, status int, out Response) {
		out.WallMs = float64(time.Since(start).Microseconds()) / 1000
		tr.Span("serve", "request", obs.PidServe, startMicros, obs.NowMicros()-startMicros, -1, out.ID,
			fmt.Sprintf("mutate %s/%s ops=%d seq=%d gen=%d status=%d err=%s",
				out.Graph, out.Scale, len(m.ops), out.Seq, out.Generation, status, out.Error))
		s.log.LogAttrs(context.Background(), slog.LevelInfo, "mutation",
			slog.Int64("id", out.ID),
			slog.String("graph", out.Graph),
			slog.String("scale", out.Scale),
			slog.Int("ops", len(m.ops)),
			slog.Uint64("seq", out.Seq),
			slog.Uint64("generation", out.Generation),
			slog.Int("status", status),
			slog.Float64("wall_ms", out.WallMs),
			slog.String("error", out.Error),
		)
		s.publish(t.run, []outcome{{kind: kind, status: status, resp: out}}, 0)
	}

	// Expired or abandoned while queued: nothing was committed.
	if err := t.ctx.Err(); err != nil {
		resp.Error = err.Error()
		kind, status := classifyCtxErr(err)
		finish(kind, status, resp)
		return
	}

	seq, err := s.mut.Commit(string(m.data), int(m.scale), m.n, m.ops)
	if err != nil {
		resp.Error = err.Error()
		finish(kindFailed, 500, resp)
		return
	}
	s.counters.Mutations.Add(1)
	// The commit is durable; retire everything computed before it. The
	// generation bump is what splits in-flight reuse: a read that sampled
	// the old generation keeps its pinned snapshot but can never publish
	// into the new generation's cache. The weighted generated bases are
	// not retired: no commit changes them, and the next snapshot is derived
	// from this scale's. The unweighted base of this scale is: once the
	// scale has a commit, graphFor reads the snapshot's unweighted view in
	// its place and never asks for it again.
	unweighted := baseKey(m.data, m.scale, false)
	ver, purged := s.invalidate(string(m.data), func(key string) bool {
		return strings.HasSuffix(key, baseKeySuffix) && key != unweighted
	})
	tr.HostInstant("serve", "commit", obs.PidServe, obs.NowMicros(), -1,
		fmt.Sprintf("%s@%d seq=%d gen=%d (%d purged)", m.data, m.scale, seq, ver, purged))
	resp.Seq = seq
	resp.Generation = ver
	finish(kindCompleted, 200, resp)
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"polymer/internal/bench"
)

// small is a request body template: tiny graph, 2x2 simulated machine, so
// every run finishes in milliseconds even under -race.
const small = `{"algo":"pr","system":"%SYS%","graph":"powerlaw","scale":"tiny","sockets":2,"cores":2`

func body(sys, extra string) string {
	b := strings.Replace(small, "%SYS%", sys, 1)
	if extra != "" {
		b += "," + extra
	}
	return b + "}"
}

func postRun(t *testing.T, url, reqBody string) (int, Response, http.Header) {
	t.Helper()
	httpResp, err := http.Post(url+"/run", "application/json", strings.NewReader(reqBody))
	if err != nil {
		t.Fatalf("POST /run: %v", err)
	}
	defer httpResp.Body.Close()
	raw, err := io.ReadAll(httpResp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	var resp Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("bad response JSON %q: %v", raw, err)
	}
	return httpResp.StatusCode, resp, httpResp.Header
}

func TestServeRunSuccessDeterministic(t *testing.T) {
	srv := NewServer(Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	st1, r1, _ := postRun(t, ts.URL, body("polymer", ""))
	st2, r2, _ := postRun(t, ts.URL, body("polymer", ""))
	if st1 != 200 || st2 != 200 {
		t.Fatalf("statuses (%d,%d), want 200; errors (%q,%q)", st1, st2, r1.Error, r2.Error)
	}
	if r1.Checksum == 0 || r1.SimSeconds == 0 {
		t.Fatalf("empty result: %+v", r1)
	}
	if r1.Checksum != r2.Checksum || r1.SimSeconds != r2.SimSeconds {
		t.Fatalf("identical requests disagree: (%v,%v) vs (%v,%v)",
			r1.Checksum, r1.SimSeconds, r2.Checksum, r2.SimSeconds)
	}
	if r1.Degraded || r2.Degraded {
		t.Fatal("healthy run marked degraded")
	}
	if got := srv.Counters().Completed.Load(); got != 2 {
		t.Fatalf("Completed = %d, want 2", got)
	}
}

func TestServeRecoveredFaultBitIdentical(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	_, clean, _ := postRun(t, ts.URL, body("polymer", ""))
	st, faulted, _ := postRun(t, ts.URL, body("polymer", `"fault":"panic@1:t1,stall@0:t0"`))
	if st != 200 {
		t.Fatalf("faulted run status %d (%s), want 200", st, faulted.Error)
	}
	if faulted.Rollbacks == 0 {
		t.Fatal("injected faults caused no rollbacks")
	}
	// Checkpoint/rollback recovery commits a bit-identical simulated
	// result: same checksum, same simulated clock.
	if faulted.Checksum != clean.Checksum || faulted.SimSeconds != clean.SimSeconds {
		t.Fatalf("recovered run diverged: (%v,%v) vs clean (%v,%v)",
			faulted.Checksum, faulted.SimSeconds, clean.Checksum, clean.SimSeconds)
	}
}

func TestServeShedsWhenQueueFull(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 1, noWorkers: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the only queue slot; no workers will drain it.
	v, err := DecodeRequest(strings.NewReader(body("polymer", "")))
	if err != nil {
		t.Fatal(err)
	}
	queued, shed, err := srv.submit(v, "", context.Background())
	if err != nil || shed {
		t.Fatalf("first submit refused: shed=%t err=%v", shed, err)
	}

	start := time.Now()
	st, _, hdr := postRun(t, ts.URL, body("polymer", ""))
	elapsed := time.Since(start)
	if st != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", st)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Shedding is synchronous — it must not wait on the stuck queue.
	if elapsed > 50*time.Millisecond {
		t.Fatalf("shed took %v, want < 50ms", elapsed)
	}
	if got := srv.Counters().Shed.Load(); got != 1 {
		t.Fatalf("Shed = %d, want 1", got)
	}
	if got := srv.Counters().Admitted.Load(); got != 1 {
		t.Fatalf("Admitted = %d, want 1", got)
	}
	// Unblock the queued task so the server can be discarded cleanly.
	<-srv.queue
	srv.inflight.Add(-1)
	queued.cancel()
}

func TestServeDeadlineExpiredInQueue(t *testing.T) {
	srv := NewServer(Config{noWorkers: true})
	v, err := DecodeRequest(strings.NewReader(body("polymer", `"budget_ms":1`)))
	if err != nil {
		t.Fatal(err)
	}
	r, shed, err := srv.submit(v, "", context.Background())
	if err != nil || shed {
		t.Fatalf("submit refused: shed=%t err=%v", shed, err)
	}
	tk := <-srv.queue
	<-tk.ctx.Done() // budget spent while "queued"
	srv.execute(tk)
	out := srv.wait(r, 0, v, nil)
	if out.status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", out.status)
	}
	if out.resp.SimSeconds != 0 {
		t.Fatalf("expired request charged %v sim seconds", out.resp.SimSeconds)
	}
	if got := srv.Counters().Expired.Load(); got != 1 {
		t.Fatalf("Expired = %d, want 1", got)
	}
	srv.inflight.Add(-1)
}

func TestServeClientDisconnectCancels(t *testing.T) {
	srv := NewServer(Config{noWorkers: true})
	v, err := DecodeRequest(strings.NewReader(body("polymer", "")))
	if err != nil {
		t.Fatal(err)
	}
	clientCtx, clientCancel := context.WithCancel(context.Background())
	r, shed, err := srv.submit(v, "", clientCtx)
	if err != nil || shed {
		t.Fatalf("submit refused: shed=%t err=%v", shed, err)
	}
	tk := <-srv.queue
	clientCancel() // the client hung up
	select {
	case <-tk.ctx.Done():
	case <-time.After(time.Second):
		t.Fatal("task context not cancelled after client disconnect")
	}
	srv.execute(tk)
	out := srv.wait(r, 0, v, nil)
	if out.status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", out.status)
	}
	if got := srv.Counters().Cancelled.Load(); got != 1 {
		t.Fatalf("Cancelled = %d, want 1", got)
	}
	srv.inflight.Add(-1)
}

func TestServeGracefulDrain(t *testing.T) {
	srv := NewServer(Config{Workers: 2, QueueDepth: 8, DrainTimeout: 2 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A few in-flight requests, then drain.
	type result struct {
		st   int
		resp Response
	}
	results := make(chan result, 4)
	for i := 0; i < 4; i++ {
		go func() {
			st, resp, _ := postRun(t, ts.URL, body("ligra", ""))
			results <- result{st, resp}
		}()
	}
	time.Sleep(5 * time.Millisecond) // let some requests enter the queue
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// readyz flips the moment the drain starts.
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/readyz", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain = %d, want 503", rr.Code)
	}
	// healthz stays alive for liveness probes.
	rr = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("healthz after drain = %d, want 200", rr.Code)
	}

	// Every in-flight request got an answer (200 if it finished inside the
	// drain window, 503/504 if its context was cancelled).
	for i := 0; i < 4; i++ {
		r := <-results
		switch r.st {
		case 200, 503, 504:
		default:
			t.Fatalf("drained request got status %d (%s)", r.st, r.resp.Error)
		}
	}

	// New work is refused without shedding counters.
	st, resp, hdr := postRun(t, ts.URL, body("polymer", ""))
	if st != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status %d (%s), want 503", st, resp.Error)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("post-drain 503 without Retry-After")
	}
}

// TestServeBreakerTripDegradeRecover drives the full circuit lifecycle
// through the HTTP surface: unrecoverable chaos requests trip an engine's
// circuit, PageRank requests are then served by the honest degraded path,
// non-PR requests are refused, and after the cooldown a half-open probe
// closes the circuit again.
func TestServeBreakerTripDegradeRecover(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	srv := NewServer(Config{
		Workers: 1, QueueDepth: 8,
		BreakerThreshold: 2, BreakerCooldown: time.Hour,
		Now: clk.now,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	// An injected panic with no replay budget, no restarts and no retries
	// is unrecoverable by construction: the failure reaches the breaker.
	chaos := `"fault":"panic@0:t0","session_retries":0,"restarts":0,"retries":0`
	for i := 0; i < 2; i++ {
		st, resp, _ := postRun(t, ts.URL, body("xstream", chaos))
		if st != 500 {
			t.Fatalf("chaos request %d: status %d (%s), want 500", i, st, resp.Error)
		}
	}
	if got := srv.Breaker(bench.XStream).State(); got != BreakerOpen {
		t.Fatalf("xstream breaker = %s after %d failures, want open", got, 2)
	}

	// PageRank-class requests ride the degraded path while the circuit is
	// open: 200, honest result, marked degraded.
	st, resp, _ := postRun(t, ts.URL, body("xstream", ""))
	if st != 200 || !resp.Degraded {
		t.Fatalf("open-circuit PR: status %d degraded=%t (%s), want 200 degraded", st, resp.Degraded, resp.Error)
	}
	if resp.Checksum == 0 || resp.SimSeconds == 0 {
		t.Fatalf("degraded result is empty: %+v", resp)
	}
	if got := srv.Counters().Degraded.Load(); got != 1 {
		t.Fatalf("Degraded = %d, want 1", got)
	}

	// Non-PR requests have no degraded route: trip ligra, then watch a BFS
	// request get refused with Retry-After.
	for i := 0; i < 2; i++ {
		postRun(t, ts.URL, body("ligra", chaos))
	}
	if got := srv.Breaker(bench.Ligra).State(); got != BreakerOpen {
		t.Fatalf("ligra breaker = %s, want open", got)
	}
	st, resp, hdr := postRun(t, ts.URL,
		`{"algo":"bfs","system":"ligra","graph":"powerlaw","scale":"tiny","sockets":2,"cores":2}`)
	if st != http.StatusServiceUnavailable {
		t.Fatalf("open-circuit BFS: status %d (%s), want 503", st, resp.Error)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("open-circuit 503 without Retry-After")
	}
	if got := srv.Counters().Broken.Load(); got != 1 {
		t.Fatalf("Broken = %d, want 1", got)
	}

	// After the cooldown the first fault-free request is the half-open
	// probe; its success closes the circuit for everyone.
	clk.advance(time.Hour)
	if got := srv.Breaker(bench.XStream).State(); got != BreakerHalfOpen {
		t.Fatalf("xstream breaker after cooldown = %s, want half-open", got)
	}
	st, resp, _ = postRun(t, ts.URL, body("xstream", ""))
	if st != 200 || resp.Degraded {
		t.Fatalf("probe request: status %d degraded=%t (%s), want full-fidelity 200", st, resp.Degraded, resp.Error)
	}
	if got := srv.Breaker(bench.XStream).State(); got != BreakerClosed {
		t.Fatalf("xstream breaker after probe success = %s, want closed", got)
	}
}

func TestServeMetricsEndpoint(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	postRun(t, ts.URL, body("polymer", ""))
	httpResp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var m struct {
		Counters CounterSnapshot   `json:"counters"`
		Breakers map[string]string `json:"breakers"`
		Queue    map[string]int64  `json:"queue"`
	}
	if err := json.NewDecoder(httpResp.Body).Decode(&m); err != nil {
		t.Fatalf("metricsz JSON: %v", err)
	}
	if m.Counters.Completed != 1 || m.Counters.Admitted != 1 {
		t.Fatalf("counters %+v, want 1 admitted / 1 completed", m.Counters)
	}
	if len(m.Breakers) != 4 {
		t.Fatalf("breakers %v, want all four engines", m.Breakers)
	}
	for sysName, state := range m.Breakers {
		if state != string(BreakerClosed) {
			t.Fatalf("idle breaker %s = %s, want closed", sysName, state)
		}
	}
	if m.Queue["depth"] != 2 {
		t.Fatalf("queue depth %d, want 2", m.Queue["depth"])
	}
}

func TestServeRejectsBadRequests(t *testing.T) {
	srv := NewServer(Config{noWorkers: true})
	h := srv.Handler()
	for _, bad := range []string{
		`{"algo":"cc","system":"polymer","graph":"powerlaw"}`,
		`not json at all`,
		``,
	} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/run", bytes.NewReader([]byte(bad))))
		if rr.Code != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", bad, rr.Code)
		}
	}
	// Decoding failures never consume an admission slot.
	if got := srv.Counters().Admitted.Load() + srv.Counters().Shed.Load(); got != 0 {
		t.Fatalf("bad requests touched admission counters: %d", got)
	}
}

func TestServeBFSOutOfRangeSource(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())
	// The source bound depends on the loaded graph, so it is checked at
	// execution, not decode: still a 400, not a 500.
	st, resp, _ := postRun(t, ts.URL,
		`{"algo":"bfs","system":"polymer","graph":"powerlaw","scale":"tiny","sockets":2,"cores":2,"src":4294967295}`)
	if st != http.StatusBadRequest {
		t.Fatalf("status %d (%s), want 400", st, resp.Error)
	}
	if !strings.Contains(resp.Error, "outside") {
		t.Fatalf("error %q does not explain the source bound", resp.Error)
	}
}

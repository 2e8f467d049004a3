// Soak test: a storm of concurrent requests — clean, recoverably faulted,
// unrecoverably faulted, deadline-starved — against a small server. The
// assertions are the service's contract under overload: every request gets
// exactly one answer, the queue never grows past its bound, shed requests
// see fast 429s, expired requests commit no simulated charge, fault-free
// results stay bit-identical, the accounting balances, and no goroutine
// outlives the drain.

package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestServeSoakUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	baseline := runtime.NumGoroutine()

	srv := NewServer(Config{
		Workers:       4,
		QueueDepth:    16,
		DefaultBudget: 30 * time.Second,
		DrainTimeout:  5 * time.Second,
	})
	ts := httptest.NewServer(srv.Handler())
	client := ts.Client()

	const totalRequests = 240
	type result struct {
		profile string
		status  int
		resp    Response
		sheds   int // 429s this client absorbed before an answer
	}
	results := make(chan result, totalRequests)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < totalRequests; i++ {
		profile, reqBody := "clean-polymer", body("polymer", "")
		switch i % 10 {
		case 1, 4:
			profile, reqBody = "clean-ligra", body("ligra", "")
		case 2:
			profile, reqBody = "recovered", body("polymer", `"fault":"panic@1:t1,stall@0:t0"`)
		case 3:
			profile, reqBody = "seeded", body("polymer", `"fault_seed":7`)
		case 5:
			profile, reqBody = "chaos", body("xstream", `"fault":"panic@0:t0","session_retries":0,"restarts":0`)
		case 6:
			profile, reqBody = "starved", body("ligra", `"budget_ms":1`)
		case 7:
			profile, reqBody = "bfs", `{"algo":"bfs","system":"ligra","graph":"powerlaw","scale":"tiny","sockets":2,"cores":2,"src":3}`
		case 8:
			// Distinct sources over one shape: the batcher's fodder.
			profile = "bfs-multi"
			reqBody = fmt.Sprintf(`{"algo":"bfs","system":"ligra","graph":"powerlaw","scale":"tiny","sockets":2,"cores":2,"src":%d}`, i)
		}
		wg.Add(1)
		go func(profile, reqBody string) {
			defer wg.Done()
			<-start
			sheds := 0
			for {
				httpResp, err := client.Post(ts.URL+"/run", "application/json", strings.NewReader(reqBody))
				if err != nil {
					t.Errorf("%s: POST: %v", profile, err)
					results <- result{profile: profile, status: -1}
					return
				}
				var resp Response
				decErr := json.NewDecoder(httpResp.Body).Decode(&resp)
				httpResp.Body.Close()
				if decErr != nil {
					t.Errorf("%s: response JSON: %v", profile, decErr)
					results <- result{profile: profile, status: -1}
					return
				}
				if httpResp.StatusCode == http.StatusTooManyRequests {
					sheds++
					if sheds > 2000 {
						t.Errorf("%s: still shed after %d retries", profile, sheds)
						results <- result{profile: profile, status: -1}
						return
					}
					time.Sleep(time.Millisecond)
					continue
				}
				results <- result{profile: profile, status: httpResp.StatusCode, resp: resp, sheds: sheds}
				return
			}
		}(profile, reqBody)
	}
	close(start)
	wg.Wait()
	close(results)

	// The queue never outgrew its bound (the channel enforces it; this
	// guards against the bound being widened by accident).
	if got, want := len(srv.queue), cap(srv.queue); got > want {
		t.Fatalf("queue length %d exceeds depth %d", got, want)
	}

	var shedTotal int
	checksums := map[string]float64{} // profile -> first full-fidelity checksum
	counts := map[string]int{}
	for r := range results {
		shedTotal += r.sheds
		counts[r.profile]++
		switch r.profile {
		case "clean-polymer", "clean-ligra", "bfs", "bfs-multi":
			if r.status != 200 {
				t.Fatalf("%s: status %d (%s), want 200", r.profile, r.status, r.resp.Error)
			}
		case "recovered", "seeded":
			if r.status != 200 {
				t.Fatalf("%s: status %d (%s), want 200", r.profile, r.status, r.resp.Error)
			}
		case "chaos":
			// Unrecoverable by construction: every one fails alike, however
			// many failed before it.
			if r.status != 500 {
				t.Fatalf("chaos: status %d (%s), want 500", r.status, r.resp.Error)
			}
		case "starved":
			// 1ms of budget: usually expires (504), occasionally finishes.
			if r.status != 504 && r.status != 200 && r.status != 503 {
				t.Fatalf("starved: status %d (%s), want 504/503/200", r.status, r.resp.Error)
			}
			if r.status != 200 && r.resp.SimSeconds != 0 {
				t.Fatalf("starved request committed %v sim seconds after cancellation", r.resp.SimSeconds)
			}
		}
		// Fault-free and recovered runs must be bit-identical per profile
		// shape (recovered == clean-polymer by checkpoint determinism).
		key := r.profile
		if r.profile == "recovered" || r.profile == "seeded" {
			key = "clean-polymer"
		}
		if r.status == 200 && (key == "clean-polymer" || key == "clean-ligra" || key == "bfs") {
			if want, ok := checksums[key]; !ok {
				checksums[key] = r.resp.Checksum
			} else if r.resp.Checksum != want {
				t.Fatalf("%s: checksum %v diverged from %v", r.profile, r.resp.Checksum, want)
			}
		}
	}
	if shedTotal == 0 {
		t.Errorf("a %d-request burst against a %d-slot queue shed nothing", totalRequests, cap(srv.queue))
	}

	// Drain first, so every admitted run has resolved before the
	// accounting is read.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Accounting balances: every request that was not shed entered exactly
	// one way — its own queue slot, an in-flight coalesced run, a batch
	// group, or the result cache — and resolved exactly once.
	snap := srv.Counters().Snapshot()
	resolved := snap.Completed + snap.Failed + snap.Expired + snap.Cancelled
	entered := snap.Admitted + snap.Coalesced + snap.Batched + snap.ResultHits
	if entered != resolved {
		t.Fatalf("entered %d != resolved %d (%+v)", entered, resolved, snap)
	}
	if snap.Shed != int64(shedTotal) {
		t.Fatalf("server counted %d sheds, clients saw %d", snap.Shed, shedTotal)
	}
	// The duplicate-heavy mix must actually engage the reuse layer: a
	// burst of identical requests cannot all miss.
	if snap.Coalesced+snap.Batched+snap.ResultHits == 0 {
		t.Errorf("no request was coalesced, batched or cache-answered (%+v)", snap)
	}

	// Verify nothing leaks: workers, tasks and HTTP plumbing all exit.
	ts.Close()
	client.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Serve-side cluster substrate tests: end-to-end /run execution with
// machines/replicas, bit-identical answers across cluster shapes and
// chaos schedules, hedged reads (first success wins, loser cancelled,
// accounting intact), cluster health on /metricsz and /readyz, readiness
// gating during WAL recovery, and the shutdown-with-hung-request
// regression for the mutation store.

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"polymer/internal/mutate"
)

func TestClusterRunEndToEnd(t *testing.T) {
	srv := NewServer(Config{Workers: 2, QueueDepth: 8, HedgeDelay: -1})
	defer shutdown(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	base := `{"algo":"pr","system":"polymer","graph":"powerlaw","scale":"tiny","sockets":2,"cores":2`
	st, one := postJSON(t, ts, "/run", base+`,"machines":1}`)
	if st != 200 {
		t.Fatalf("1-machine cluster run: status %d (%s)", st, one.Error)
	}
	st, three := postJSON(t, ts, "/run", base+`,"machines":3,"replicas":2}`)
	if st != 200 {
		t.Fatalf("3-machine cluster run: status %d (%s)", st, three.Error)
	}
	// The committed answer is bit-identical across cluster shapes; the
	// cost model is not (a real cluster moves bytes).
	if one.Checksum != three.Checksum {
		t.Fatalf("checksum changed with machine count: %v vs %v", one.Checksum, three.Checksum)
	}
	if three.Machines != 3 || three.Replicas != 2 {
		t.Fatalf("shape echo = %dx%d, want 3x2", three.Machines, three.Replicas)
	}
	if three.Supersteps == 0 || three.NetBytes == 0 {
		t.Fatalf("3-machine run reports supersteps=%d net_bytes=%v; want both nonzero", three.Supersteps, three.NetBytes)
	}
	if one.NetBytes != 0 {
		t.Fatalf("1-machine run moved %v network bytes", one.NetBytes)
	}

	// Cluster health surfaces on /metricsz and /readyz.
	resp, err := ts.Client().Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	var mb metricsBody
	if err := json.NewDecoder(resp.Body).Decode(&mb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if mb.Cluster == nil {
		t.Fatal("no cluster block in /metricsz after a cluster run")
	}
	if mb.Cluster.Healthy != 3 || mb.Cluster.Total != 3 {
		t.Fatalf("cluster health %d/%d, want 3/3", mb.Cluster.Healthy, mb.Cluster.Total)
	}
	if len(mb.Cluster.Machines) != 3 {
		t.Fatalf("cluster block lists %d machines, want 3", len(mb.Cluster.Machines))
	}
	resp, err = ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rb map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&rb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rb["cluster"] != "3/3 machines healthy" {
		t.Fatalf("readyz cluster note = %v", rb["cluster"])
	}
}

func TestClusterChaosRequestSurvivesBitIdentical(t *testing.T) {
	srv := NewServer(Config{Workers: 2, QueueDepth: 8, HedgeDelay: -1})
	defer shutdown(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Six machines at R=4 survive the full chaos schedule's worst case
	// (a crash plus the crash-during-failover double kill).
	base := `{"algo":"bfs","system":"polymer","graph":"powerlaw","scale":"tiny","sockets":1,"cores":2,"src":3`
	st, clean := postJSON(t, ts, "/run", base+`,"machines":6,"replicas":4}`)
	if st != 200 {
		t.Fatalf("clean cluster run: status %d (%s)", st, clean.Error)
	}
	st, chaos := postJSON(t, ts, "/run", base+`,"machines":6,"replicas":4,"fault_seed":5}`)
	if st != 200 {
		t.Fatalf("chaos cluster run: status %d (%s)", st, chaos.Error)
	}
	if chaos.Failovers == 0 {
		t.Fatal("chaos schedule committed without any failover")
	}
	if chaos.Checksum != clean.Checksum {
		t.Fatalf("faulted run diverged: checksum %v, clean %v", chaos.Checksum, clean.Checksum)
	}
	// Chaos runs never pollute the result cache.
	if chaos.Cached {
		t.Fatal("chaos run served from cache")
	}
}

func TestHedgedClusterReadAccounting(t *testing.T) {
	// A 1ns hedge delay forces the hedge leg on every cluster cache miss.
	srv := NewServer(Config{Workers: 2, QueueDepth: 8, HedgeDelay: time.Nanosecond})
	defer shutdown(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"algo":"pr","system":"polymer","graph":"powerlaw","scale":"tiny","sockets":2,"cores":2,"machines":2}`
	st, resp := postJSON(t, ts, "/run", body)
	if st != 200 {
		t.Fatalf("hedged cluster run: status %d (%s)", st, resp.Error)
	}
	snap := srv.Counters().Snapshot()
	if snap.Hedged != 1 {
		t.Fatalf("hedged = %d, want 1", snap.Hedged)
	}
	if snap.Admitted != 2 {
		t.Fatalf("admitted = %d, want 2 (primary + hedge leg)", snap.Admitted)
	}
	// Both legs must resolve before the identity can balance; the loser
	// lands as completed or cancelled, never unaccounted. Its resolution
	// may trail the client's answer, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap = srv.Counters().Snapshot()
		resolved := snap.Completed + snap.Degraded + snap.Broken + snap.Failed + snap.Expired + snap.Cancelled
		entered := snap.Admitted + snap.Coalesced + snap.Batched + snap.ResultHits
		if entered == resolved {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("accounting never balanced: entered %d != resolved %d (%+v)", entered, resolved, snap)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if snap.Completed+snap.Cancelled != 2 {
		t.Fatalf("legs resolved as completed=%d cancelled=%d, want 2 total", snap.Completed, snap.Cancelled)
	}

	// A repeat: if the primary leg completed its answer was cached and the
	// repeat is a hit with no second hedge. If the hedge leg won the race
	// AND the cancel caught the primary in time, nothing was cached (hedge
	// legs never cache — standby placement skews the timing fields) and
	// the repeat runs and hedges afresh. Either way the answer is
	// bit-identical.
	st, rep := postJSON(t, ts, "/run", body)
	if st != 200 {
		t.Fatalf("repeat: status %d (%s)", st, rep.Error)
	}
	if snap.HedgeWins == 0 && !rep.Cached {
		t.Fatalf("primary won but repeat missed the cache")
	}
	if rep.Cached {
		if got := srv.Counters().Hedged.Load(); got != 1 {
			t.Fatalf("cache hit launched a hedge (hedged = %d)", got)
		}
	}
	if rep.Checksum != resp.Checksum {
		t.Fatalf("repeat checksum %v != original %v", rep.Checksum, resp.Checksum)
	}
}

func TestHedgeDisabledByNegativeDelay(t *testing.T) {
	srv := NewServer(Config{Workers: 2, QueueDepth: 8, HedgeDelay: -1})
	defer shutdown(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	st, resp := postJSON(t, ts, "/run", `{"algo":"pr","system":"polymer","graph":"powerlaw","scale":"tiny","sockets":2,"cores":2,"machines":2}`)
	if st != 200 {
		t.Fatalf("status %d (%s)", st, resp.Error)
	}
	snap := srv.Counters().Snapshot()
	if snap.Hedged != 0 || snap.Admitted != 1 {
		t.Fatalf("hedging disabled yet hedged=%d admitted=%d", snap.Hedged, snap.Admitted)
	}
}

func TestReadyzGatedDuringWALRecovery(t *testing.T) {
	dir := t.TempDir()
	// Seed the WAL with committed work so recovery has something to replay.
	seedStore, err := mutate.Open(dir, mutate.Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seedStore.Commit("roadUS", 0, 10, []mutate.Op{{Kind: mutate.OpInsert, Src: 0, Dst: 1, Wt: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := seedStore.Close(); err != nil {
		t.Fatal(err)
	}

	entered := make(chan string, 1)
	release := make(chan struct{})
	store, err := mutate.Open(dir, mutate.Options{
		CheckpointEvery: -1,
		RecoverHook: func(key string) {
			entered <- key
			<-release
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := NewServer(Config{Workers: 1, QueueDepth: 4, Mutations: store})
	defer shutdown(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.RecoverInBackground()

	// Recovery is now parked mid-replay: readiness must be 503 with a
	// Retry-After, while liveness stays 200.
	key := <-entered
	if key != "roadUS@0" {
		t.Fatalf("recovering key %q, want roadUS@0", key)
	}
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mid-recovery /readyz = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("mid-recovery /readyz has no Retry-After")
	}
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mid-recovery /healthz = %d, want 200 (liveness is not readiness)", resp.StatusCode)
	}

	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := ts.Client().Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz still %d after recovery released", resp.StatusCode)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The replayed batch is visible without any further recovery work.
	if seq, err := store.Seq("roadUS", 0); err != nil || seq != 1 {
		t.Fatalf("recovered seq = %d (%v), want 1", seq, err)
	}
}

// TestShutdownTimeoutStillClosesStore is the polymerd regression: a hung
// in-flight request makes the graceful drain miss its deadline, and the
// shutdown path must still be able to close the mutation store — with
// the close fencing any commit that lost the race.
func TestShutdownTimeoutStillClosesStore(t *testing.T) {
	store, err := mutate.Open(t.TempDir(), mutate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// No workers: the admitted request below hangs in the queue forever,
	// exactly like an execution wedged past every cancellation point.
	srv := NewServer(Config{QueueDepth: 4, DrainTimeout: 20 * time.Millisecond, Mutations: store, noWorkers: true})
	v, err := resolve(Request{Algo: "pr", System: "polymer", Graph: "powerlaw",
		Retries: -1, SessionRetries: -1, Restarts: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.submit(v, "", nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown reported success with a hung in-flight request")
	}
	// polymerd closes the store unconditionally after a failed drain.
	if err := store.Close(); err != nil {
		t.Fatalf("Close after failed drain: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("Close is not idempotent: %v", err)
	}
	if _, err := store.Commit("roadUS", 0, 10, []mutate.Op{{Kind: mutate.OpInsert, Src: 0, Dst: 1}}); !errors.Is(err, mutate.ErrClosed) {
		t.Fatalf("post-close commit error = %v, want ErrClosed", err)
	}
	if _, err := store.Seq("roadUS", 0); !errors.Is(err, mutate.ErrClosed) {
		t.Fatalf("post-close Seq error = %v, want ErrClosed", err)
	}
}

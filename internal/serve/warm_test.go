// Tests for warm reads: after a commit a BFS or SSSP miss repairs the
// answer its key had on an older snapshot, bit-identical to a cold run,
// and marks the response warm; priors die with a dataset refresh; fault
// sessions and fused multi-source sweeps never go warm; and a warm run
// teaches the planner's learner nothing.

package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"sync"
	"testing"

	"polymer/internal/bench"
	"polymer/internal/mutate"
	"polymer/internal/numa"
)

// warmCommit cuts two out-edges of the tiny powerlaw's vertex 3 and
// links a few others, one of them back into 3's neighbourhood.
var warmCommit = []MutationOp{
	{Op: "delete", Src: 3, Dst: 0}, {Op: "delete", Src: 0, Dst: 3},
	{Op: "insert", Src: 3, Dst: 40, Wt: 2}, {Op: "insert", Src: 40, Dst: 41, Wt: 0},
	{Op: "insert", Src: 41, Dst: 7, Wt: 1}, {Op: "insert", Src: 9, Dst: 9, Wt: 3},
}

// private answers body through a private run on a server without
// workers, planning it and sampling the generation as answer does.
func private(t *testing.T, srv *Server, body string) Response {
	t.Helper()
	v := mustResolve(t, body)
	if err := srv.planFor(v); err != nil {
		t.Fatal(err)
	}
	v.ver = srv.results.version(v.data)
	r, _, err := srv.submit(v, runKey{}, context.Background())
	if err != nil {
		t.Fatal(err)
	}
	srv.execute(<-srv.queue)
	out := srv.wait(r, 0, v, nil)
	if out.status != 200 {
		t.Fatalf("%s: status %d (%s)", body, out.status, out.resp.Error)
	}
	return out.resp
}

// TestWarmReadAfterCommit: after a commit, BFS and SSSP reads on Polymer
// and Ligra come back warm with the checksum of a direct cold bench run on
// the same snapshot; a repeat is a hit that replays warm; and /metricsz
// counts the warm runs.
func TestWarmReadAfterCommit(t *testing.T) {
	store := openStore(t, t.TempDir(), mutate.Options{})
	defer store.Close()
	srv := NewServer(Config{Workers: 2, QueueDepth: 8, Mutations: store})
	defer shutdown(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var queries []string
	for _, sys := range []string{"polymer", "ligra"} {
		for _, algo := range []string{"bfs", "sssp"} {
			queries = append(queries, fmt.Sprintf(`{"algo":%q,"system":%q,"graph":"powerlaw","src":3}`, algo, sys))
		}
	}
	for _, q := range queries {
		if st, r := postJSON(t, ts, "/run", q); st != 200 || r.Warm {
			t.Fatalf("%s: status %d warm=%t before any commit (%s)", q, st, r.Warm, r.Error)
		}
	}
	ops, err := json.Marshal(MutationRequest{Graph: "powerlaw", Scale: "tiny", Ops: warmCommit})
	if err != nil {
		t.Fatal(err)
	}
	if st, mr := postJSON(t, ts, "/mutatez", string(ops)); st != 200 {
		t.Fatalf("commit: status %d (%s)", st, mr.Error)
	}
	for _, q := range queries {
		st, r := postJSON(t, ts, "/run", q)
		if st != 200 || !r.Warm || r.Cached {
			t.Fatalf("%s: status %d warm=%t cached=%t after a commit (%s)", q, st, r.Warm, r.Cached, r.Error)
		}
		v := mustResolve(t, q)
		g, release, err := srv.graphFor(v)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := bench.RunWith(v.sys, v.alg, g, numa.NewMachine(v.topo, v.nodes, v.cores), bench.Options{Src: v.src})
		release()
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(r.Checksum) != math.Float64bits(cold.Checksum) {
			t.Fatalf("%s: warm checksum %v, cold run on the same snapshot %v", q, r.Checksum, cold.Checksum)
		}
		if st, hit := postJSON(t, ts, "/run", q); st != 200 || !hit.Cached || !hit.Warm || hit.Checksum != r.Checksum {
			t.Fatalf("%s: repeat status %d cached=%t warm=%t checksum %v, want a warm hit of %v",
				q, st, hit.Cached, hit.Warm, hit.Checksum, r.Checksum)
		}
	}
	httpResp, err := ts.Client().Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var mb metricsBody
	if err := json.NewDecoder(httpResp.Body).Decode(&mb); err != nil {
		t.Fatal(err)
	}
	if mb.Counters.Warm != int64(len(queries)) {
		t.Fatalf("/metricsz warm = %d, want %d", mb.Counters.Warm, len(queries))
	}
}

// TestWarmReadRacingACommit: a warm read and a commit run at once. The
// read's put lands before the commit (its entry becomes the next prior)
// or after it (a stale generation, dropped, so the prior it read stays),
// and the commit may retire the entry while the read repairs it. Either
// way both the racing read and the read after the commit run warm, to a
// cold run's checksum on their snapshot.
func TestWarmReadRacingACommit(t *testing.T) {
	store := openStore(t, t.TempDir(), mutate.Options{})
	defer store.Close()
	srv := NewServer(Config{noWorkers: true, Mutations: store})
	const q = `{"algo":"sssp","system":"polymer","graph":"powerlaw","src":3}`
	coldSum := func() float64 {
		v := mustResolve(t, q)
		g, release, err := srv.graphFor(v)
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		cold, err := bench.RunWith(v.sys, v.alg, g, numa.NewMachine(v.topo, v.nodes, v.cores), bench.Options{Src: v.src})
		if err != nil {
			t.Fatal(err)
		}
		return cold.Checksum
	}
	private(t, srv, q)
	commit(t, srv, "powerlaw", "tiny", warmCommit)
	for round := range 4 {
		v := mustResolve(t, q)
		v.ver = srv.results.version(v.data)
		r, _, err := srv.submit(v, runKey{}, context.Background())
		if err != nil {
			t.Fatal(err)
		}
		read := <-srv.queue
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.execute(read)
		}()
		commit(t, srv, "powerlaw", "tiny", []MutationOp{{Op: "insert", Src: uint32(5 + round), Dst: 6, Wt: 1}})
		<-done
		if out := srv.wait(r, 0, v, nil); out.status != 200 || !out.resp.Warm {
			t.Fatalf("round %d: the read racing a commit: status %d warm=%t (%s)", round, out.status, out.resp.Warm, out.resp.Error)
		}
		got := private(t, srv, q)
		if want := coldSum(); !got.Warm || math.Float64bits(got.Checksum) != math.Float64bits(want) {
			t.Fatalf("round %d: the read after the race: warm=%t checksum %v, cold %v", round, got.Warm, got.Checksum, want)
		}
	}
}

// TestWarmPriorsDroppedByInvalidateGraph: a dataset refresh drops the
// priors with everything else, so the read after it runs cold; priors
// kept across a commit alone make it warm.
func TestWarmPriorsDroppedByInvalidateGraph(t *testing.T) {
	store := openStore(t, t.TempDir(), mutate.Options{})
	defer store.Close()
	srv := NewServer(Config{noWorkers: true, Mutations: store})
	const q = `{"algo":"sssp","system":"polymer","graph":"powerlaw","src":3}`
	private(t, srv, q)
	commit(t, srv, "powerlaw", "tiny", warmCommit)
	if r := private(t, srv, q); !r.Warm {
		t.Fatal("read after a commit ran cold")
	}
	commit(t, srv, "powerlaw", "tiny", []MutationOp{{Op: "insert", Src: 5, Dst: 6, Wt: 1}})
	srv.InvalidateGraph("powerlaw")
	if r := private(t, srv, q); r.Warm {
		t.Fatal("read after InvalidateGraph repaired a dropped prior")
	}
}

// TestWarmNeverForFaultsOrSweeps: a fault_seed request and a fused
// multi-source sweep run cold even when their keys hold priors; a solo
// read of a key with a prior on the same server goes warm.
func TestWarmNeverForFaultsOrSweeps(t *testing.T) {
	store := openStore(t, t.TempDir(), mutate.Options{})
	defer store.Close()
	srv := NewServer(Config{noWorkers: true, Mutations: store})
	body := func(src int, extra string) string {
		return fmt.Sprintf(`{"algo":"bfs","system":"ligra","graph":"powerlaw","src":%d%s}`, src, extra)
	}
	for _, src := range []int{3, 5, 7} {
		private(t, srv, body(src, ""))
	}
	commit(t, srv, "powerlaw", "tiny", warmCommit)

	if r := private(t, srv, body(3, `,"fault_seed":5`)); r.Warm {
		t.Fatal("a fault_seed request went warm")
	}
	// Sources 3 and 5 in one run: the fused sweep.
	var wg sync.WaitGroup
	outs := make([]outcome, 2)
	for i, src := range []int{3, 5} {
		v := mustResolve(t, body(src, ""))
		v.ver = srv.results.version(v.data)
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := share(srv, v, context.Background())
			if err != nil {
				t.Error(err)
			}
			outs[i] = out
		}()
		if i == 0 {
			waitFor(t, "run open", func() bool { return openRuns(srv) == 1 })
		}
	}
	waitFor(t, "source joined", func() bool { return srv.Counters().Batched.Load() == 1 })
	srv.execute(<-srv.queue)
	wg.Wait()
	for i, out := range outs {
		if out.status != 200 || out.resp.BatchSize != 2 || out.resp.Warm {
			t.Fatalf("sweep slot %d: status %d batch %d warm=%t", i, out.status, out.resp.BatchSize, out.resp.Warm)
		}
	}
	if r := private(t, srv, body(7, "")); !r.Warm {
		t.Fatal("a solo read with a prior ran cold")
	}
	if got := srv.Counters().Warm.Load(); got != 1 {
		t.Fatalf("Warm = %d, want the one solo read", got)
	}
}

// TestWarmRunTeachesNoLearner: a planned read observes its cold run, and
// the warm run after a commit adds no observation.
func TestWarmRunTeachesNoLearner(t *testing.T) {
	store := openStore(t, t.TempDir(), mutate.Options{})
	defer store.Close()
	srv := NewServer(Config{noWorkers: true, Mutations: store})
	const q = `{"algo":"bfs","graph":"powerlaw","scale":"tiny","sockets":2,"cores":2,"src":3}`
	observations := func() (n int64) {
		for _, st := range srv.plannerStats() {
			n += st.Learner.Observations
		}
		return n
	}
	if r := private(t, srv, q); r.Warm || r.Plan == nil || observations() != 1 {
		t.Fatalf("cold planned read: warm=%t plan=%v observations=%d, want one", r.Warm, r.Plan, observations())
	}
	commit(t, srv, "powerlaw", "tiny", warmCommit)
	if r := private(t, srv, q); !r.Warm || observations() != 1 {
		t.Fatalf("planned read after a commit: warm=%t observations=%d, want a warm run the learner never saw", r.Warm, observations())
	}
}

// Tests for the execution-reuse layer: canonical keys, the versioned
// result cache, and shared runs — coalescing onto slot 0 (joiner detach,
// opener failure) and traversal runs that sweep several sources
// (per-source demux, mixed outcomes). The noWorkers server lets these
// tests hold a task in the queue while joiners attach, then drive the
// execution by hand.

package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"polymer/internal/bench"
	"polymer/internal/graph"
	"polymer/internal/mem"
	"polymer/internal/mutate"
)

func mustResolve(t *testing.T, body string) *resolved {
	t.Helper()
	v, err := DecodeRequest(strings.NewReader(body))
	if err != nil {
		t.Fatalf("resolve %s: %v", body, err)
	}
	return v
}

// ownID is the identity of the request's own run.
func ownID(v *resolved) runID { return v.id(v.src) }

// cachedResp is the response a hit of v replays, decoded from the bytes
// the cache rendered at put.
func cachedResp(t *testing.T, c *resultCache, v *resolved) (Response, bool) {
	t.Helper()
	h, ok := c.get(v)
	if !ok {
		return Response{}, false
	}
	var resp Response
	if err := json.Unmarshal(h.body, &resp); err != nil {
		t.Fatalf("cached payload %q: %v", h.body, err)
	}
	return resp, true
}

func TestCanonicalKeyEquivalence(t *testing.T) {
	// Default-filled and explicit spellings of the same request must
	// share one identity; QoS knobs must not split it.
	variants := []string{
		`{"algo":"pr","system":"polymer","graph":"powerlaw"}`,
		`{"algo":"PR","system":"Polymer","graph":"powerlaw","scale":"tiny"}`,
		`{"algo":"pr","system":"polymer","graph":"powerlaw","machine":"intel","sockets":8,"cores":10}`,
		`{"algo":"pr","system":"polymer","graph":"powerlaw","budget_ms":5000,"session_retries":3,"restarts":2}`,
		`{"algo":"pr","system":"polymer","graph":"powerlaw","src":42}`, // src is dead weight for pr
	}
	want := ownID(mustResolve(t, variants[0]))
	for _, body := range variants[1:] {
		if got := ownID(mustResolve(t, body)); got != want {
			t.Fatalf("id(%s) = %+v, want %+v", body, got, want)
		}
	}
	// Things that change the computation must change the identity.
	for _, body := range []string{
		`{"algo":"pr","system":"ligra","graph":"powerlaw"}`,
		`{"algo":"spmv","system":"polymer","graph":"powerlaw"}`,
		`{"algo":"pr","system":"polymer","graph":"rmat24"}`,
		`{"algo":"pr","system":"polymer","graph":"powerlaw","scale":"small"}`,
		`{"algo":"pr","system":"polymer","graph":"powerlaw","machine":"amd"}`,
		`{"algo":"pr","system":"polymer","graph":"powerlaw","sockets":2}`,
	} {
		if got := ownID(mustResolve(t, body)); got == want {
			t.Fatalf("id(%s) collided with %+v", body, want)
		}
	}
	// For traversals the source is live in the identity but wildcarded
	// in the group's: different sources, one group.
	a := mustResolve(t, `{"algo":"bfs","system":"ligra","graph":"powerlaw","src":3}`)
	b := mustResolve(t, `{"algo":"bfs","system":"ligra","graph":"powerlaw","src":7}`)
	if ownID(a) == ownID(b) {
		t.Fatal("bfs identities ignore src")
	}
	if a.groupID() != b.groupID() {
		t.Fatalf("groupID split traversal shapes: %+v vs %+v", a.groupID(), b.groupID())
	}
	// sssp is a servable algorithm now, and weighted runs must not share
	// identities with bfs.
	c := mustResolve(t, `{"algo":"sssp","system":"ligra","graph":"powerlaw","src":3}`)
	if ownID(c) == ownID(a) {
		t.Fatal("sssp and bfs share an identity")
	}
	// Fault-carrying requests never reuse.
	if mustResolve(t, `{"algo":"pr","system":"polymer","graph":"powerlaw","fault":"panic@1:t1"}`).reusable() {
		t.Fatal("fault request marked reusable")
	}
	if mustResolve(t, `{"algo":"pr","system":"polymer","graph":"powerlaw","fault_seed":7}`).reusable() {
		t.Fatal("fault_seed request marked reusable")
	}
	if !a.batchable() || !c.batchable() || mustResolve(t, variants[0]).batchable() {
		t.Fatal("batchable gate wrong")
	}
}

// FuzzCanonicalKey asserts the canonicalizer is a pure function of the
// resolved request: re-resolving the same wire request reproduces the
// same identity, and the group identity is the identity with its source
// wildcarded.
func FuzzCanonicalKey(f *testing.F) {
	f.Add(`{"algo":"pr","system":"polymer","graph":"powerlaw"}`)
	f.Add(`{"algo":"bfs","system":"ligra","graph":"powerlaw","src":3}`)
	f.Add(`{"algo":"sssp","system":"Ligra","graph":"rmat24","scale":"tiny","src":9}`)
	f.Add(`{"algo":"SSSP","system":"polymer","graph":"roadUS","sockets":4,"cores":4}`)
	f.Add(`{"algo":"pr","system":"x-stream","graph":"powerlaw","budget_ms":100}`)
	f.Add(`{"algo":"spmv","system":"polymer","graph":"rmat27","scale":"small","machine":"amd"}`)
	f.Add(`{"algo":"bp","system":"ligra","graph":"twitter","session_retries":3}`)
	f.Add(`{"algo":"bfs","system":"ligra","graph":"powerlaw","src":4294967295}`)
	f.Add(`{"algo":"bfs","system":"polymer","graph":"powerlaw","src":1,"dram_bytes":100000,"tier":"hot"}`)
	f.Add(`{"algo":"sssp","system":"polymer","graph":"powerlaw","src":2,"placement":"interleaved"}`)
	f.Fuzz(func(t *testing.T, body string) {
		v, err := DecodeRequest(strings.NewReader(body))
		if err != nil {
			return // rejection is its own fuzz target (FuzzDecodeRequest)
		}
		v2, err := resolve(v.req)
		if err != nil {
			t.Fatalf("re-resolve of accepted request failed: %v", err)
		}
		if ownID(v) != ownID(v2) || v.groupID() != v2.groupID() {
			t.Fatalf("canonical identity unstable: %+v vs %+v", ownID(v), ownID(v2))
		}
		wild := ownID(v)
		wild.src, wild.group = 0, true
		if v.groupID() != wild {
			t.Fatalf("groupID %+v does not wildcard id %+v", v.groupID(), ownID(v))
		}
		// resolve normalizes src itself for non-traversals, so every
		// downstream consumer (identity, bounds check, cache) agrees.
		if v.alg != bench.BFS && v.alg != bench.SSSP && v.src != 0 {
			t.Fatalf("non-traversal resolved with a live source: %+v", ownID(v))
		}
	})
}

func TestResultCacheUnit(t *testing.T) {
	budget := 4 * entryOverhead // a few entries' worth
	c := newResultCache(budget)
	v := mustResolve(t, `{"algo":"bfs","system":"ligra","graph":"powerlaw","src":1}`)
	if _, ok := c.get(v); ok {
		t.Fatal("hit on empty cache")
	}
	c.put(v, ownID(v), Response{Checksum: 42, WallMs: 9, ID: 7}, bench.Output{}, 0)
	got, ok := cachedResp(t, c, v)
	if !ok || got.Checksum != 42 {
		t.Fatalf("miss after put: %+v ok=%t", got, ok)
	}
	if got.ID != 0 || got.WallMs != 0 {
		t.Fatalf("provenance not stripped: %+v", got)
	}
	// Fill until the budget forces evictions; the oldest key goes first.
	for src := 2; src < 12; src++ {
		vi := mustResolve(t, `{"algo":"bfs","system":"ligra","graph":"powerlaw","src":`+itoa(src)+`}`)
		c.put(vi, ownID(vi), Response{Checksum: float64(src)}, bench.Output{}, 0)
	}
	st := c.stats()
	if st.Evictions == 0 || st.Bytes > budget {
		t.Fatalf("budget not enforced: %+v", st)
	}
	if _, ok := c.get(v); ok {
		t.Fatal("LRU victim still resident")
	}
	// Invalidation bumps the generation: old entries are unreachable even
	// before the purge, and stale-generation puts are dropped.
	vLive := mustResolve(t, `{"algo":"bfs","system":"ligra","graph":"powerlaw","src":11}`)
	if _, ok := c.get(vLive); !ok {
		t.Fatal("freshest entry missing before invalidation")
	}
	stale := *vLive // sampled generation 0
	ver, _ := c.invalidate("powerlaw", false)
	if ver != 1 {
		t.Fatalf("generation = %d, want 1", ver)
	}
	if _, ok := c.get(vLive); ok {
		t.Fatal("hit across an invalidation")
	}
	c.put(&stale, ownID(&stale), Response{Checksum: 1}, bench.Output{}, 0) // computed pre-invalidation
	fresh := *vLive
	fresh.ver = c.version("powerlaw")
	if _, ok := c.get(&fresh); ok {
		t.Fatal("stale-generation put resurrected a result")
	}
	// Disabled cache: everything misses, nothing is stored.
	d := newResultCache(-1)
	d.put(vLive, ownID(vLive), Response{Checksum: 1}, bench.Output{}, 0)
	if _, ok := d.get(vLive); ok {
		t.Fatal("disabled cache served a hit")
	}
	if st := d.stats(); st.Entries != 0 {
		t.Fatalf("disabled cache stored entries: %+v", st)
	}
}

// TestPriorReadOutlivesItsEntry: a warm run reading an entry's answer as
// its prior counts as a reader, so a put that replaces the entry mid-read
// leaves the prior intact; the read's end (unread) hands its storage back
// to the spare list, where the next answer of its length takes it. The
// length is one no engine in this package makes.
func TestPriorReadOutlivesItsEntry(t *testing.T) {
	const n = 777
	c := newResultCache(1 << 20)
	v := mustResolve(t, `{"algo":"bfs","system":"polymer","graph":"powerlaw","src":1}`)
	levels := mem.Spare[int64](n)
	for i := range levels {
		levels[i] = int64(i) + 1
	}
	want := slices.Clone(levels)
	if !c.put(v, ownID(v), Response{Checksum: 1}, bench.Output{I64: levels}, 1) {
		t.Fatal("put into an empty cache did not insert")
	}
	c.invalidate("powerlaw", true) // a commit: the entry becomes a prior
	e := c.prior(ownID(v))
	if e == nil {
		t.Fatal("no prior after a commit")
	}
	// The read's own run finishes first and replaces the entry.
	next := *v
	next.ver = c.version("powerlaw")
	if !c.put(&next, ownID(v), Response{Checksum: 2}, bench.Output{I64: mem.Spare[int64](n)}, 2) {
		t.Fatal("put did not replace a prior")
	}
	// Storage recycled by now goes, cleared, to the next answers of its
	// length.
	for range 4 {
		mem.Spare[int64](n)
	}
	if !slices.Equal(e.out.I64, want) {
		t.Fatal("a prior's answer was recycled while a warm run read it")
	}
	c.unread(e)
	// Under the race detector sync.Pool drops puts at random, so only a
	// plain build can see the storage come back.
	if got := mem.Spare[int64](n); !raceEnabled && &got[0] != &levels[0] {
		t.Fatal("the last reader of a replaced entry did not recycle its answer")
	}
}

// TestResultCacheChargesItsHeap: the bytes a full result cache charges
// against its budget are the heap its entries hold, so
// -result-cache-bytes bounds what the cache keeps. Twenty thousand BFS
// entries are put into a cache whose budget holds them all; after a GC
// the heap they hold, per entry, must sit within a quarter of the bytes
// charged per entry.
func TestResultCacheChargesItsHeap(t *testing.T) {
	const n = 20000
	v := mustResolve(t, `{"algo":"bfs","system":"ligra","graph":"powerlaw","scale":"tiny"}`)
	resp := Response{System: "ligra", Algo: "bfs", Graph: "powerlaw", Scale: "tiny", Checksum: 1}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := newResultCache(1 << 30)
	for src := range n {
		c.put(v, v.id(graph.Vertex(src)), resp, bench.Output{}, 0)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	st := c.stats()
	runtime.KeepAlive(c)
	if st.Entries != n {
		t.Fatalf("cache holds %d entries, want %d", st.Entries, n)
	}
	heap := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	charged := float64(st.Bytes) / n
	if r := heap / charged; r < 0.75 || r > 1.25 {
		t.Fatalf("an entry holds %.0f B of heap but is charged %.0f B (ratio %.2f)", heap, charged, r)
	}
}

// TestResultHitAllocsNothing: a result-cache hit of an explicit request
// on a server without a tracer is a lookup — it formats no key and no
// trace detail, and allocates nothing.
func TestResultHitAllocsNothing(t *testing.T) {
	srv := NewServer(Config{noWorkers: true})
	v := mustResolve(t, `{"algo":"bfs","system":"ligra","graph":"powerlaw","src":3}`)
	srv.results.put(v, ownID(v), Response{Checksum: 1}, bench.Output{}, 0)
	allocs := testing.AllocsPerRun(100, func() {
		if out, _, err := srv.answer(v, nil); err != nil || out.hit.body == nil {
			t.Fatalf("not a hit: %+v %v", out, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a result-cache hit allocates %v times", allocs)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// share answers v as answer does past the result cache: join (or open)
// its run, then wait on its slot.
func share(srv *Server, v *resolved, ctx context.Context) (outcome, error) {
	r, slot, _, err := srv.join(v, ctx)
	if err != nil {
		return outcome{}, err
	}
	return srv.wait(r, slot, v, ctx), nil
}

// openRuns counts the shared runs a request can still join.
func openRuns(srv *Server) int {
	srv.runMu.Lock()
	defer srv.runMu.Unlock()
	return len(srv.runs)
}

// dequeue takes the next admitted task off a noWorkers server's queue.
func dequeue(t *testing.T, srv *Server) *task {
	t.Helper()
	var tk *task
	waitFor(t, "queued task", func() bool {
		select {
		case tk = <-srv.queue:
			return true
		default:
			return false
		}
	})
	return tk
}

// TestCoalesceShareAndDetach drives a shared run by hand: an opener
// enqueues, two joiners attach, one joiner cancels (detaching without
// killing the shared run), and the executed task answers the opener and
// the surviving joiner with identical payloads.
func TestCoalesceShareAndDetach(t *testing.T) {
	srv := NewServer(Config{noWorkers: true})
	const body = `{"algo":"pr","system":"polymer","graph":"powerlaw"}`

	type res struct{ out outcome }
	leaderC := make(chan res, 1)
	go func() {
		out, err := share(srv, mustResolve(t, body), context.Background())
		if err != nil {
			t.Errorf("leader: %v", err)
		}
		leaderC <- res{out}
	}()
	// The opener's task is in the queue and its run is published.
	task := dequeue(t, srv)
	waitFor(t, "run published", func() bool { return openRuns(srv) == 1 })

	followerC := make(chan res, 1)
	go func() {
		out, err := share(srv, mustResolve(t, body), context.Background())
		if err != nil {
			t.Errorf("follower: %v", err)
		}
		followerC <- res{out}
	}()
	cancelCtx, cancel := context.WithCancel(context.Background())
	doomedC := make(chan res, 1)
	go func() {
		out, err := share(srv, mustResolve(t, body), cancelCtx)
		if err != nil {
			t.Errorf("doomed follower: %v", err)
		}
		doomedC <- res{out}
	}()
	waitFor(t, "followers attached", func() bool {
		return srv.Counters().Coalesced.Load() == 2
	})

	// A joiner's cancel detaches without disturbing the run.
	cancel()
	doomed := <-doomedC
	if doomed.out.status != http.StatusServiceUnavailable {
		t.Fatalf("cancelled follower status %d, want 503", doomed.out.status)
	}
	if !doomed.out.resp.Coalesced {
		t.Fatal("cancelled follower lost its provenance flag")
	}
	if live := openRuns(srv); live != 1 {
		t.Fatalf("run count %d after follower detach, want 1", live)
	}
	if err := task.ctx.Err(); err != nil {
		t.Fatalf("follower detach cancelled the shared run: %v", err)
	}

	srv.execute(task)
	leader, follower := <-leaderC, <-followerC
	if leader.out.status != 200 || follower.out.status != 200 {
		t.Fatalf("statuses %d/%d, want 200/200", leader.out.status, follower.out.status)
	}
	if leader.out.resp.Checksum != follower.out.resp.Checksum {
		t.Fatalf("shared run diverged: %v vs %v", leader.out.resp.Checksum, follower.out.resp.Checksum)
	}
	if leader.out.resp.Coalesced || !follower.out.resp.Coalesced {
		t.Fatalf("provenance flags wrong: leader=%t follower=%t",
			leader.out.resp.Coalesced, follower.out.resp.Coalesced)
	}
	if leader.out.resp.ID == follower.out.resp.ID {
		t.Fatal("waiters share a response ID")
	}
	snap := srv.Counters().Snapshot()
	if snap.Admitted != 1 || snap.Coalesced != 2 || snap.Completed != 2 || snap.Cancelled != 1 {
		t.Fatalf("accounting %+v, want admitted=1 coalesced=2 completed=2 cancelled=1", snap)
	}
	// The run is retired: nothing left to attach to.
	if live := openRuns(srv); live != 0 {
		t.Fatalf("%d runs survive completion", live)
	}
}

// TestCoalesceLeaderFailurePropagates: a failing shared run answers every
// attached waiter with the same error — no joiner hangs — whether the
// joiner coalesced onto slot 0 or joined a traversal run on its source.
func TestCoalesceLeaderFailurePropagates(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		closed     bool // attach a mutation store that is already closed
		status     int
		errPart    string
		joined     func(CounterSnapshot) int64
		resolved   func(CounterSnapshot) int64
	}{
		// A closed mutation store cannot say which snapshot the run
		// reads: the graph load fails the whole run.
		{"coalesced", `{"algo":"pr","system":"polymer","graph":"powerlaw","sockets":1}`, true,
			http.StatusInternalServerError, "store closed",
			func(c CounterSnapshot) int64 { return c.Coalesced },
			func(c CounterSnapshot) int64 { return c.Failed }},
		// An out-of-range source fails in execute after graph load.
		{"batched", `{"algo":"bfs","system":"ligra","graph":"powerlaw","src":4294967295}`, false,
			http.StatusBadRequest, "outside",
			func(c CounterSnapshot) int64 { return c.Batched },
			func(c CounterSnapshot) int64 { return c.Failed }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{noWorkers: true}
			if tc.closed {
				st, err := mutate.Open(t.TempDir(), mutate.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				cfg.Mutations = st
			}
			srv := NewServer(cfg)
			outs := make(chan outcome, 2)
			go func() {
				out, _ := share(srv, mustResolve(t, tc.body), context.Background())
				outs <- out
			}()
			task := dequeue(t, srv)
			waitFor(t, "run published", func() bool { return openRuns(srv) == 1 })
			go func() {
				out, _ := share(srv, mustResolve(t, tc.body), context.Background())
				outs <- out
			}()
			waitFor(t, "follower attached", func() bool {
				return tc.joined(srv.Counters().Snapshot()) == 1
			})
			srv.execute(task)
			for i := 0; i < 2; i++ {
				out := <-outs
				if out.status != tc.status {
					t.Fatalf("waiter %d: status %d, want %d", i, out.status, tc.status)
				}
				if !strings.Contains(out.resp.Error, tc.errPart) {
					t.Fatalf("waiter %d: error %q", i, out.resp.Error)
				}
			}
			if got := tc.resolved(srv.Counters().Snapshot()); got != 2 {
				t.Fatalf("resolutions = %d, want 2 (one per waiter)", got)
			}
		})
	}
}

// TestBatchDemux drives a multi-source run by hand: three distinct
// sources (one invalid) plus a duplicate join one run, the sweep runs
// once, and each member gets its own source's result.
func TestBatchDemux(t *testing.T) {
	srv := NewServer(Config{noWorkers: true})
	mkBody := func(src string) string {
		return `{"algo":"bfs","system":"ligra","graph":"powerlaw","src":` + src + `}`
	}
	outs := make(map[string]outcome)
	var mu sync.Mutex
	var wg sync.WaitGroup
	join := func(name, src string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := share(srv, mustResolve(t, mkBody(src)), context.Background())
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			mu.Lock()
			outs[name] = out
			mu.Unlock()
		}()
	}
	// batch runs the members in srcs (name -> source) as one run opened
	// by the first, and returns after every member has its answer.
	batch := func(members ...[2]string) {
		join(members[0][0], members[0][1])
		task := dequeue(t, srv)
		waitFor(t, "run open", func() bool { return openRuns(srv) == 1 })
		before := srv.Counters().Batched.Load()
		for _, m := range members[1:] {
			join(m[0], m[1])
		}
		waitFor(t, "members joined", func() bool {
			return srv.Counters().Batched.Load() == before+int64(len(members)-1)
		})
		srv.execute(task)
		wg.Wait()
	}
	batch([2]string{"a", "3"}, [2]string{"b", "5"},
		[2]string{"dup", "3"},          // duplicate source: shares a's slot
		[2]string{"bad", "4294967295"}) // invalid source: fails alone

	for _, name := range []string{"a", "b", "dup"} {
		if outs[name].status != 200 {
			t.Fatalf("%s: status %d (%s), want 200", name, outs[name].status, outs[name].resp.Error)
		}
		if outs[name].resp.BatchSize != 2 {
			t.Fatalf("%s: batch size %d, want 2 live sources", name, outs[name].resp.BatchSize)
		}
	}
	if outs["bad"].status != http.StatusBadRequest {
		t.Fatalf("bad: status %d, want 400", outs["bad"].status)
	}
	if outs["a"].resp.Checksum != outs["dup"].resp.Checksum {
		t.Fatal("duplicate source diverged from its twin")
	}
	if outs["a"].resp.Checksum == outs["b"].resp.Checksum {
		t.Fatal("distinct sources produced identical checksums (demux broken?)")
	}

	// The demultiplexed result must equal an independent single-source
	// run: execute src 3 through a private run and compare bit-for-bit.
	v := mustResolve(t, mkBody("3"))
	r, _, err := srv.submit(v, runKey{}, context.Background())
	if err != nil {
		t.Fatalf("private submit: %v", err)
	}
	srv.execute(<-srv.queue)
	direct := srv.wait(r, 0, v, nil)
	if direct.resp.Checksum != outs["a"].resp.Checksum {
		t.Fatalf("batched checksum %v != direct %v", outs["a"].resp.Checksum, direct.resp.Checksum)
	}
	// A run of one live source is the private run, bit for bit: shared by
	// nobody, and shared by a duplicate and an invalid source.
	batch([2]string{"shared1", "3"})
	batch([2]string{"batch1", "3"}, [2]string{"batch1dup", "3"}, [2]string{"batch1bad", "4294967295"})
	for _, name := range []string{"shared1", "batch1", "batch1dup"} {
		got := outs[name].resp
		if outs[name].status != 200 || got.BatchSize != 0 ||
			math.Float64bits(got.Checksum) != math.Float64bits(direct.resp.Checksum) ||
			math.Float64bits(got.SimSeconds) != math.Float64bits(direct.resp.SimSeconds) ||
			got.PeakBytes != direct.resp.PeakBytes {
			t.Fatalf("%s: status %d batch %d checksum %x sim %x peak %d, private run %x %x %d", name,
				outs[name].status, got.BatchSize, got.Checksum, got.SimSeconds, got.PeakBytes,
				direct.resp.Checksum, direct.resp.SimSeconds, direct.resp.PeakBytes)
		}
	}

	snap := srv.Counters().Snapshot()
	entered := snap.Admitted + snap.Coalesced + snap.Batched + snap.ResultHits
	resolved := snap.Completed + snap.Failed + snap.Expired + snap.Cancelled
	if entered != resolved {
		t.Fatalf("entered %d != resolved %d (%+v)", entered, resolved, snap)
	}
	// Per-source results landed in the cache under single-source keys.
	v3 := mustResolve(t, mkBody("3"))
	v3.ver = srv.results.version(v3.data)
	if resp, ok := cachedResp(t, srv.results, v3); !ok || resp.Checksum != direct.resp.Checksum {
		t.Fatalf("batched result not cached per-source: ok=%t %+v", ok, resp)
	}
}

// TestInvalidationSplitsInFlightReuse: a request that samples its
// generation after an invalidation must not attach to a run opened
// before it — shared slot 0 or a traversal run alike — because the old
// run computes against the stale pinned snapshot and its result may not
// be served past the bump.
func TestInvalidationSplitsInFlightReuse(t *testing.T) {
	srv := NewServer(Config{noWorkers: true})
	const body = `{"algo":"pr","system":"polymer","graph":"powerlaw"}`
	go func() { _, _ = share(srv, mustResolve(t, body), context.Background()) }()
	waitFor(t, "stale run published", func() bool { return openRuns(srv) == 1 })
	srv.InvalidateGraph("powerlaw")
	// A post-invalidation request samples the new generation (as answer()
	// does) and must open its own run, not ride the stale one.
	fresh := mustResolve(t, body)
	fresh.ver = srv.results.version(fresh.data)
	go func() { _, _ = share(srv, fresh, context.Background()) }()
	waitFor(t, "fresh run published", func() bool { return openRuns(srv) == 2 })
	if got := srv.Counters().Coalesced.Load(); got != 0 {
		t.Fatalf("post-invalidation request coalesced onto a stale run (coalesced=%d)", got)
	}

	// Same property for traversal runs.
	const tBody = `{"algo":"bfs","system":"ligra","graph":"rmat24","src":1}`
	go func() { _, _ = share(srv, mustResolve(t, tBody), context.Background()) }()
	waitFor(t, "stale traversal run open", func() bool { return openRuns(srv) == 3 })
	srv.InvalidateGraph("rmat24")
	freshT := mustResolve(t, tBody)
	freshT.ver = srv.results.version(freshT.data)
	go func() { _, _ = share(srv, freshT, context.Background()) }()
	waitFor(t, "fresh traversal run open", func() bool { return openRuns(srv) == 4 })
	if got := srv.Counters().Batched.Load(); got != 0 {
		t.Fatalf("post-invalidation request joined a stale traversal run (batched=%d)", got)
	}
	// Drain: execute the four queued tasks so no goroutine leaks.
	for i := 0; i < 4; i++ {
		srv.execute(<-srv.queue)
	}
}

// TestNonTraversalSrcNormalized: src is dead weight for pr, so an
// out-of-range src must not change the outcome on any path — resolve
// zeroes it before the key or the bounds check can see it.
func TestNonTraversalSrcNormalized(t *testing.T) {
	srv := NewServer(Config{noWorkers: true})
	const body = `{"algo":"pr","system":"polymer","graph":"powerlaw","src":4294967295}`
	v := mustResolve(t, body)
	if v.src != 0 {
		t.Fatalf("pr src not normalized: %d", v.src)
	}
	r, _, err := srv.submit(v, runKey{}, context.Background())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	srv.execute(<-srv.queue)
	if out := srv.wait(r, 0, v, nil); out.status != 200 {
		t.Fatalf("private pr with absurd src: status %d (%s), want 200", out.status, out.resp.Error)
	}
}

// TestServeResultCacheEndToEnd: the second identical request over HTTP is
// a cache hit — same payload, cached provenance, no new admission — and
// an invalidation forces the next one to recompute.
func TestServeResultCacheEndToEnd(t *testing.T) {
	srv := NewServer(Config{Workers: 2, QueueDepth: 8})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	const body = `{"algo":"pr","system":"polymer","graph":"powerlaw"}`
	post := func(path, b string) (int, Response) {
		t.Helper()
		httpResp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(b))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer httpResp.Body.Close()
		var resp Response
		if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return httpResp.StatusCode, resp
	}
	st1, r1 := post("/run", body)
	if st1 != 200 || r1.Cached {
		t.Fatalf("cold run: status %d cached=%t", st1, r1.Cached)
	}
	st2, r2 := post("/run", body)
	if st2 != 200 || !r2.Cached {
		t.Fatalf("warm run: status %d cached=%t", st2, r2.Cached)
	}
	if r2.Checksum != r1.Checksum || r2.SimSeconds != r1.SimSeconds || r2.PeakBytes != r1.PeakBytes {
		t.Fatalf("cached payload diverged: %+v vs %+v", r2, r1)
	}
	if r2.ID == r1.ID {
		t.Fatal("cached response reused the original ID")
	}
	snap := srv.Counters().Snapshot()
	if snap.Admitted != 1 || snap.ResultHits != 1 || snap.Completed != 2 {
		t.Fatalf("accounting %+v, want admitted=1 result_hits=1 completed=2", snap)
	}

	// Invalidation: the generation bumps and the next request recomputes.
	httpResp, err := ts.Client().Post(ts.URL+"/invalidatez?graph=powerlaw", "application/json", nil)
	if err != nil {
		t.Fatalf("invalidate: %v", err)
	}
	var inv struct {
		Graph      string `json:"graph"`
		Generation uint64 `json:"generation"`
		Purged     int    `json:"purged"`
	}
	if err := json.NewDecoder(httpResp.Body).Decode(&inv); err != nil {
		t.Fatalf("invalidate decode: %v", err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != 200 || inv.Generation != 1 || inv.Purged < 1 {
		t.Fatalf("invalidate: status %d %+v", httpResp.StatusCode, inv)
	}
	st3, r3 := post("/run", body)
	if st3 != 200 || r3.Cached {
		t.Fatalf("post-invalidation run: status %d cached=%t (must recompute)", st3, r3.Cached)
	}
	if r3.Checksum != r1.Checksum {
		t.Fatalf("recomputed checksum %v != original %v", r3.Checksum, r1.Checksum)
	}
	if got := srv.Counters().Admitted.Load(); got != 2 {
		t.Fatalf("Admitted = %d, want 2 (cold + post-invalidation)", got)
	}
	// A missing ?graph is a client error.
	if st, _ := post("/invalidatez", ""); st != http.StatusBadRequest {
		t.Fatalf("bare invalidatez: status %d, want 400", st)
	}
}

// TestRunAnswerIsAFunctionOfTheBody is determinism as a client sees it: one
// /run body answered by a cold engine run, by the result cache, by a
// second server started from scratch and by a third server running all
// five bodies at once carries the same checksum and the same sim_seconds
// bits, at any GOMAXPROCS — neither the cache nor what else is running
// changes an answer.
func TestRunAnswerIsAFunctionOfTheBody(t *testing.T) {
	const machine = `"graph":"powerlaw","scale":"tiny","sockets":4,"cores":2`
	bodies := []string{
		`{"algo":"bfs","system":"polymer","src":3,` + machine + `}`,
		`{"algo":"sssp","system":"polymer","src":3,` + machine + `}`,
		`{"algo":"bfs","system":"ligra","src":3,` + machine + `}`,
		`{"algo":"sssp","system":"ligra","src":3,` + machine + `}`,
		`{"algo":"pr","system":"auto",` + machine + `}`, // planned: carries the plan block
	}
	serve := func(workers int) (*httptest.Server, func()) {
		srv := NewServer(Config{Workers: workers, QueueDepth: 8})
		ts := httptest.NewServer(srv.Handler())
		return ts, func() { ts.Close(); shutdown(t, srv) }
	}
	same := func(body, leg string, r, cold Response) {
		t.Helper()
		if math.Float64bits(r.Checksum) != math.Float64bits(cold.Checksum) ||
			math.Float64bits(r.SimSeconds) != math.Float64bits(cold.SimSeconds) {
			t.Errorf("%s: %s answered checksum %x sim %x, cold run %x %x", body, leg,
				r.Checksum, r.SimSeconds, cold.Checksum, cold.SimSeconds)
		}
	}
	first, stopFirst := serve(2)
	defer stopFirst()
	second, stopSecond := serve(2)
	defer stopSecond()
	colds := make([]Response, len(bodies))
	for i, b := range bodies {
		answers := map[string]Response{}
		for _, leg := range []struct {
			name   string
			ts     *httptest.Server
			cached bool
		}{{"cold", first, false}, {"cached", first, true}, {"second server", second, false}} {
			st, r := postJSON(t, leg.ts, "/run", b)
			if st != 200 || r.Cached != leg.cached {
				t.Fatalf("%s, %s: status %d cached=%v (%s)", b, leg.name, st, r.Cached, r.Error)
			}
			answers[leg.name] = r
		}
		cold := answers["cold"]
		if cold.Checksum == 0 || cold.SimSeconds == 0 {
			t.Fatalf("%s: empty result %+v", b, cold)
		}
		for name, r := range answers {
			same(b, name, r, cold)
		}
		colds[i] = cold
	}

	// Concurrent leg: a fresh server gets every body at once, so planned
	// and explicit runs overlap on its workers.
	third, stopThird := serve(4)
	defer stopThird()
	type answer struct {
		status int
		r      Response
		err    error
	}
	got := make([]answer, len(bodies))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, b := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			httpResp, err := third.Client().Post(third.URL+"/run", "application/json", strings.NewReader(b))
			if err != nil {
				got[i].err = err
				return
			}
			defer httpResp.Body.Close()
			got[i].status = httpResp.StatusCode
			got[i].err = json.NewDecoder(httpResp.Body).Decode(&got[i].r)
		}()
	}
	// Failing chaos bodies, one per engine, each posted three times among
	// the clean ones: a failure is its own body's answer and no other's.
	chaos := map[string]*[3]int{}
	for _, sys := range []string{"polymer", "ligra", "xstream", "galois"} {
		b := `{"algo":"pr","system":"` + sys + `","fault":"panic@0:t0","session_retries":0,"restarts":0,` + machine + `}`
		statuses := new([3]int)
		chaos[b] = statuses
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for k := range statuses {
				httpResp, err := third.Client().Post(third.URL+"/run", "application/json", strings.NewReader(b))
				if err != nil {
					statuses[k] = -1
					continue
				}
				statuses[k] = httpResp.StatusCode
				httpResp.Body.Close()
			}
		}()
	}
	close(start)
	wg.Wait()
	for b, statuses := range chaos {
		for k, st := range statuses {
			if st != http.StatusInternalServerError {
				t.Errorf("%s, concurrent post %d: status %d, want 500", b, k+1, st)
			}
		}
	}
	for i, b := range bodies {
		a := got[i]
		if a.err != nil || a.status != 200 || a.r.Cached {
			t.Fatalf("%s, concurrent: status %d cached=%v err %v (%s)", b, a.status, a.r.Cached, a.err, a.r.Error)
		}
		same(b, "concurrent", a.r, colds[i])
		st, r := postJSON(t, third, "/run", b)
		if st != 200 || !r.Cached {
			t.Fatalf("%s, re-posted after the concurrent leg: status %d cached=%v (%s)", b, st, r.Cached, r.Error)
		}
		same(b, "re-posted", r, colds[i])
	}
}

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/obs"
)

// testGraph builds a graph whose TopologyBytes is stable for the test's
// budget arithmetic.
func testGraph(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n)
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: graph.Vertex(v)})
	}
	return graph.FromEdges(n, edges, false)
}

func TestCacheSingleflight(t *testing.T) {
	c := newGraphCache(0, nil) // 0 budget arg means caller default; here: unbounded enough
	var loads atomic.Int64
	gate := make(chan struct{})
	load := func() (*graph.Graph, error) {
		loads.Add(1)
		<-gate
		return testGraph(8), nil
	}

	const callers = 16
	var wg sync.WaitGroup
	results := make([]*graph.Graph, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, release, err := c.get(graphID{data: "k"}, load)
			if err != nil {
				t.Errorf("get: %v", err)
				return
			}
			results[i] = g
			release()
		}(i)
	}
	close(gate)
	wg.Wait()
	if got := loads.Load(); got != 1 {
		t.Fatalf("load ran %d times for %d concurrent callers, want 1", got, callers)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatal("callers got different graph instances")
		}
	}
	st := c.stats()
	if st.Misses != 1 || st.Hits != callers-1 {
		t.Errorf("hits/misses = %d/%d, want %d/1", st.Hits, st.Misses, callers-1)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	g := testGraph(16)
	per := g.TopologyBytes()
	var evicted []gen.Dataset
	// Budget fits two graphs but not three.
	c := newGraphCache(2*per+per/2, func(id graphID, bytes int64) {
		evicted = append(evicted, id.data)
		if bytes != per {
			t.Errorf("evicted %+v with %d bytes, want %d", id, bytes, per)
		}
	})
	load := func() (*graph.Graph, error) { return testGraph(16), nil }

	for _, k := range []gen.Dataset{"a", "b"} {
		_, release, err := c.get(graphID{data: k}, load)
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	// Touch "a" so "b" becomes least recently used.
	_, release, err := c.get(graphID{data: "a"}, load)
	if err != nil {
		t.Fatal(err)
	}
	release()

	if _, release, err = c.get(graphID{data: "c"}, load); err != nil {
		t.Fatal(err)
	}
	release()

	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted %v, want [b]", evicted)
	}
	st := c.stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Errorf("entries/evictions = %d/%d, want 2/1", st.Entries, st.Evictions)
	}
	if st.Bytes != 2*per {
		t.Errorf("resident bytes = %d, want %d", st.Bytes, 2*per)
	}
	// "a" survived; re-getting it is a hit, "b" reloads.
	before := st.Misses
	_, release, _ = c.get(graphID{data: "a"}, load)
	release()
	if c.stats().Misses != before {
		t.Error("touching surviving entry reloaded it")
	}
}

func TestCachePinnedNeverEvicted(t *testing.T) {
	g := testGraph(16)
	per := g.TopologyBytes()
	c := newGraphCache(per, nil) // budget: one graph
	load := func() (*graph.Graph, error) { return testGraph(16), nil }

	gA, releaseA, err := c.get(graphID{data: "a"}, load)
	if err != nil {
		t.Fatal(err)
	}
	// "a" is pinned; loading "b" overflows the budget but must not evict it.
	_, releaseB, err := c.get(graphID{data: "b"}, load)
	if err != nil {
		t.Fatal(err)
	}
	releaseB()
	if c.stats().Entries == 0 {
		t.Fatal("cache emptied itself")
	}
	if gACheck, release, _ := c.get(graphID{data: "a"}, load); gACheck != gA {
		t.Fatal("pinned graph was evicted and reloaded")
	} else {
		release()
	}
	releaseA()
	// With the pin gone, the cache can shrink back under budget.
	_, release, _ := c.get(graphID{data: "b"}, load)
	release()
	if st := c.stats(); st.Bytes > per {
		t.Errorf("cache stayed over budget after release: %d > %d", st.Bytes, per)
	}
	// Double release is a no-op, not a refcount underflow.
	releaseA()
	if st := c.stats(); st.Evictions > 2 {
		t.Errorf("double release corrupted refcounts: %+v", st)
	}
}

func TestCacheFailedLoadNotCached(t *testing.T) {
	c := newGraphCache(0, nil)
	boom := errors.New("dataset unavailable")
	calls := 0
	_, _, err := c.get(graphID{data: "k"}, func() (*graph.Graph, error) { calls++; return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	g, release, err := c.get(graphID{data: "k"}, func() (*graph.Graph, error) { calls++; return testGraph(4), nil })
	if err != nil || g == nil {
		t.Fatalf("retry failed: %v", err)
	}
	release()
	if calls != 2 {
		t.Fatalf("load calls = %d, want 2 (failure must not be cached)", calls)
	}
	if st := c.stats(); st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
}

// TestServeEvictionCounter drives the real server with a budget that fits
// one graph, so the second dataset evicts the first and the counter and
// trace event record it.
func TestServeEvictionCounter(t *testing.T) {
	rec := obs.NewRecorder(16, 16)
	srv := NewServer(Config{
		Workers:         1,
		QueueDepth:      4,
		GraphCacheBytes: 1, // any real graph overflows: evict on every release
		Tracer:          obs.New(rec),
		Recorder:        rec,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	if st, r, _ := postRun(t, ts.URL, body("polymer", "")); st != 200 {
		t.Fatalf("run 1: status %d (%s)", st, r.Error)
	}
	if st, r, _ := postRun(t, ts.URL, body("ligra", "")); st != 200 {
		t.Fatalf("run 2: status %d (%s)", st, r.Error)
	}
	if got := srv.Counters().Evicted.Load(); got < 1 {
		t.Fatalf("Evicted = %d, want >= 1", got)
	}
	evictSeen := false
	for _, ev := range rec.Requests.Snapshot() {
		if ev.Name == "evict" {
			evictSeen = true
		}
	}
	if !evictSeen {
		t.Error("no evict event reached the flight recorder")
	}

	// /metricsz reports the cache and the eviction counter.
	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mb struct {
		Counters CounterSnapshot `json:"counters"`
		Cache    cacheStats      `json:"graph_cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&mb); err != nil {
		t.Fatal(err)
	}
	if mb.Counters.Evicted < 1 {
		t.Errorf("metricsz evicted = %d, want >= 1", mb.Counters.Evicted)
	}
	if mb.Cache.Misses < 2 {
		t.Errorf("metricsz cache misses = %d, want >= 2", mb.Cache.Misses)
	}

	// An invalidation's drops are evictions on both ledgers: an unpinned
	// entry's at once, a pinned entry's at its release.
	roomy := NewServer(Config{Workers: 1, QueueDepth: 4})
	defer roomy.Shutdown(context.Background())
	load := func() (*graph.Graph, error) { return testGraph(16), nil }
	_, release, err := roomy.cache.get(graphID{data: "powerlaw", seq: 1}, load)
	if err != nil {
		t.Fatal(err)
	}
	release()
	_, releasePinned, err := roomy.cache.get(graphID{data: "powerlaw", seq: 2}, load)
	if err != nil {
		t.Fatal(err)
	}
	roomy.InvalidateGraph("powerlaw")
	releasePinned()
	if st, n := roomy.cache.stats(), roomy.Counters().Evicted.Load(); st.Entries != 0 || st.Evictions != 2 || n != 2 {
		t.Errorf("after invalidating both entries: graph cache %+v, counters.evicted %d, want 0 entries and 2 evictions on each", st, n)
	}
}

// TestDebugTraceEndpoint checks the flight recorder dump: request spans
// and engine supersteps appear after a run; without a recorder the
// endpoint 404s.
func TestDebugTraceEndpoint(t *testing.T) {
	rec := obs.NewRecorder(16, 256)
	srv := NewServer(Config{Workers: 1, QueueDepth: 4, Tracer: obs.New(rec), Recorder: rec})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	if st, r, _ := postRun(t, ts.URL, body("polymer", "")); st != 200 {
		t.Fatalf("run: status %d (%s)", st, r.Error)
	}
	resp, err := http.Get(ts.URL + "/debugz/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var tb struct {
		Requests []obs.Event `json:"requests"`
		Steps    []obs.Event `json:"steps"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tb); err != nil {
		t.Fatal(err)
	}
	reqSeen := false
	for _, ev := range tb.Requests {
		if ev.Name == "request" && ev.Cat == "serve" {
			reqSeen = true
		}
	}
	if !reqSeen {
		t.Errorf("no request span in %d request events", len(tb.Requests))
	}
	stepSeen := false
	for _, ev := range tb.Steps {
		if ev.Name == "superstep" {
			stepSeen = true
			if ev.Traffic == nil {
				t.Error("superstep event lost its traffic matrix over JSON")
			}
		}
	}
	if !stepSeen {
		t.Errorf("no superstep in %d step events", len(tb.Steps))
	}

	// Recorder-less server: the endpoint reports 404.
	bare := NewServer(Config{Workers: 1, QueueDepth: 4})
	tsBare := httptest.NewServer(bare.Handler())
	defer tsBare.Close()
	defer bare.Shutdown(context.Background())
	respBare, err := http.Get(tsBare.URL + "/debugz/trace")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, respBare.Body)
	respBare.Body.Close()
	if respBare.StatusCode != http.StatusNotFound {
		t.Errorf("bare server /debugz/trace status = %d, want 404", respBare.StatusCode)
	}
}

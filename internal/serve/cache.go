// The graph cache: per-graph singleflight so concurrent requests for the
// same dataset trigger exactly one load (without holding any lock across
// it), plus a memory-budgeted LRU with refcounting — in-flight requests
// pin their graph, pinned entries are never evicted, and eviction removes
// least-recently-used unpinned graphs until the budget holds again.

package serve

import (
	"container/list"
	"sync"

	"polymer/internal/gen"
	"polymer/internal/graph"
)

// graphID identifies one cached graph: the generated base of (data,
// scale) at seq 0, else the snapshot of that dataset's committed
// mutation prefix seq.
type graphID struct {
	data  gen.Dataset
	scale gen.Scale
	seq   uint64
}

// cacheEntry is one slot. ready is closed when the load finishes;
// g/err/bytes are immutable afterwards. refs counts waiting or executing
// requests pinning the entry.
type cacheEntry struct {
	id    graphID
	ready chan struct{}
	g     *graph.Graph
	err   error
	bytes int64
	refs  int
	elem  *list.Element // position in the LRU order while resident
	// doomed marks an entry invalidated while pinned: a superseded
	// snapshot that in-flight requests still read. The last release frees
	// it immediately — its id carries a stale mutation sequence, so no
	// future request can ever hit it and LRU aging would never reclaim it.
	doomed bool
}

// cacheStats is the JSON form of the cache counters for /metricsz.
type cacheStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// graphCache implements the singleflight + refcounted LRU. budget <= 0
// means unbounded (never evict).
type graphCache struct {
	mu      sync.Mutex
	budget  int64
	entries map[graphID]*cacheEntry
	lru     *list.List // front = most recently used
	bytes   int64
	hits    int64
	misses  int64
	evicted int64
	onEvict func(id graphID, bytes int64)
}

func newGraphCache(budget int64, onEvict func(id graphID, bytes int64)) *graphCache {
	return &graphCache{
		budget:  budget,
		entries: make(map[graphID]*cacheEntry),
		lru:     list.New(),
		onEvict: onEvict,
	}
}

// get returns the graph named id, loading it via load at most once across
// concurrent callers. On success the entry is pinned: the caller must
// invoke release once done with the graph. Failed loads are not cached —
// the entry is removed so the next request retries.
func (c *graphCache) get(id graphID, load func() (*graph.Graph, error)) (*graph.Graph, func(), error) {
	c.mu.Lock()
	if e, ok := c.entries[id]; ok {
		e.refs++
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			// The loader already removed the failed entry; just drop the pin.
			c.mu.Lock()
			e.refs--
			c.mu.Unlock()
			return nil, nil, e.err
		}
		c.mu.Lock()
		c.hits++
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		return e.g, c.releaseFunc(e), nil
	}
	e := &cacheEntry{id: id, ready: make(chan struct{}), refs: 1}
	c.entries[id] = e
	c.misses++
	c.mu.Unlock()

	g, err := load()

	c.mu.Lock()
	e.g, e.err = g, err
	if err != nil {
		delete(c.entries, id)
		e.refs--
		close(e.ready)
		c.mu.Unlock()
		return nil, nil, err
	}
	e.bytes = g.TopologyBytes()
	c.bytes += e.bytes
	e.elem = c.lru.PushFront(e)
	close(e.ready)
	c.evictLocked()
	c.mu.Unlock()
	return g, c.releaseFunc(e), nil
}

// releaseFunc unpins e exactly once; the release may be the moment an
// over-budget cache can finally evict, or the moment a doomed (stale
// pinned snapshot) entry can finally be dropped.
func (c *graphCache) releaseFunc(e *cacheEntry) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			e.refs--
			if e.doomed && e.refs == 0 && e.elem != nil {
				c.removeLocked(e)
			}
			c.evictLocked()
			c.mu.Unlock()
		})
	}
}

// removeLocked drops a resident entry and reports it as an eviction.
func (c *graphCache) removeLocked(e *cacheEntry) {
	c.lru.Remove(e.elem)
	e.elem = nil
	delete(c.entries, e.id)
	c.bytes -= e.bytes
	c.evicted++
	if c.onEvict != nil {
		c.onEvict(e.id, e.bytes)
	}
}

// evictLocked removes least-recently-used unpinned entries until the
// budget holds. Pinned entries are skipped, so the cache can transiently
// exceed its budget while every resident graph is in use.
func (c *graphCache) evictLocked() {
	if c.budget <= 0 {
		return
	}
	for el := c.lru.Back(); el != nil && c.bytes > c.budget; {
		e := el.Value.(*cacheEntry)
		prev := el.Prev()
		if e.refs == 0 {
			c.removeLocked(e)
		}
		el = prev
	}
}

// invalidate drops every resident unpinned entry of the dataset and
// dooms the pinned ones, leaving alone its generated bases when
// keepBases is set. Pinned entries (a run in progress) and in-flight
// loads finish against the snapshot they started with — the result-cache
// version bump guarantees their outputs are never served as fresh — and
// the doom mark makes the last release drop them instead of leaving
// superseded snapshots resident under ids nobody will ask for again.
// Returns the number of entries dropped immediately.
func (c *graphCache) invalidate(data gen.Dataset, keepBases bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.lru.Back(); el != nil; {
		e := el.Value.(*cacheEntry)
		prev := el.Prev()
		if e.id.data == data && !(keepBases && e.id.seq == 0) {
			if e.refs == 0 {
				c.removeLocked(e)
				n++
			} else {
				e.doomed = true
			}
		}
		el = prev
	}
	return n
}

// pinnedRefs sums refcounts across resident entries: tests assert it
// returns to zero after load, so no path leaks a graph pin.
func (c *graphCache) pinnedRefs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.entries {
		n += e.refs
	}
	return n
}

// stats snapshots the cache counters.
func (c *graphCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		Entries:   len(c.entries),
		Bytes:     c.bytes,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evicted,
	}
}

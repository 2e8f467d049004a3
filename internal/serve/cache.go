// The graph cache: per-key singleflight so concurrent requests for the
// same dataset trigger exactly one load (without holding any lock across
// it), plus a memory-budgeted LRU with refcounting — in-flight requests
// pin their graph, pinned entries are never evicted, and eviction removes
// least-recently-used unpinned graphs until the budget holds again.

package serve

import (
	"container/list"
	"fmt"
	"strings"
	"sync"

	"polymer/internal/gen"
	"polymer/internal/graph"
)

// cacheEntry is one slot: a generated base (dataset, scale, weighted) or
// the snapshot of one committed mutation prefix (dataset, scale, seq).
// ready is closed when the load finishes; g/err/bytes are immutable
// afterwards. refs counts waiting or executing requests pinning the entry.
type cacheEntry struct {
	key   string
	ready chan struct{}
	g     *graph.Graph
	err   error
	bytes int64
	refs  int
	elem  *list.Element // position in the LRU order while resident
	// doomed marks an entry invalidated while pinned: a superseded
	// snapshot that in-flight requests still read. The last release frees
	// it immediately — its key carries a stale mutation sequence, so no
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
	entries map[string]*cacheEntry
	lru     *list.List // front = most recently used
	bytes   int64
	hits    int64
	misses  int64
	evicted int64
	onEvict func(key string, bytes int64)
}

func newGraphCache(budget int64, onEvict func(key string, bytes int64)) *graphCache {
	return &graphCache{
		budget:  budget,
		entries: make(map[string]*cacheEntry),
		lru:     list.New(),
		onEvict: onEvict,
	}
}

// get returns the graph for key, loading it via load at most once across
// concurrent callers. On success the entry is pinned: the caller must
// invoke release once done with the graph. Failed loads are not cached —
// the entry is removed so the next request retries.
func (c *graphCache) get(key string, load func() (*graph.Graph, error)) (*graph.Graph, func(), error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
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
	e := &cacheEntry{key: key, ready: make(chan struct{}), refs: 1}
	c.entries[key] = e
	c.misses++
	c.mu.Unlock()

	g, err := load()

	c.mu.Lock()
	e.g, e.err = g, err
	if err != nil {
		delete(c.entries, key)
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
	delete(c.entries, e.key)
	c.bytes -= e.bytes
	c.evicted++
	if c.onEvict != nil {
		c.onEvict(e.key, e.bytes)
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

// baseKeySuffix ends the key of a generated base dataset (mutation
// sequence 0); every other key is a committed-prefix snapshot.
const baseKeySuffix = "|m0"

// baseKey is the graph-cache key of the generated base of (data, scale,
// weighted).
func baseKey(data gen.Dataset, scale gen.Scale, weighted bool) string {
	return fmt.Sprintf("%s|%d|%t%s", data, scale, weighted, baseKeySuffix)
}

// invalidate drops every resident unpinned entry whose dataset matches
// and dooms the pinned ones, leaving alone the entries keep reports true
// for (nil keeps none). Pinned entries (a run in progress) and in-flight
// loads finish against the snapshot they started with — the result-cache
// version bump guarantees their outputs are never served as fresh — and
// the doom mark makes the last release drop them instead of leaving
// superseded snapshots resident under keys nobody will ask for again.
// Returns the number of entries dropped immediately.
func (c *graphCache) invalidate(dataset string, keep func(key string) bool) int {
	prefix := dataset + "|"
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.lru.Back(); el != nil; {
		e := el.Value.(*cacheEntry)
		prev := el.Prev()
		if strings.HasPrefix(e.key, prefix) && (keep == nil || !keep(e.key)) {
			if e.refs == 0 {
				c.lru.Remove(el)
				e.elem = nil
				delete(c.entries, e.key)
				c.bytes -= e.bytes
				n++
				if c.onEvict != nil {
					c.onEvict(e.key, e.bytes)
				}
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

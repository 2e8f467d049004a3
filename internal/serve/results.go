// The versioned result cache: full-fidelity responses keyed by the
// request's canonical identity (request.go's key()) plus the dataset's
// cache generation. InvalidateGraph bumps the generation, so results
// computed against a stale snapshot can never be served again — even if
// the run that computed them is still in flight when the invalidation
// lands, because each request samples its generation before executing
// and inserts under that sample.
//
// Only pure results are cached: fault-injected runs are excluded at the
// reuse-path gate (resolved.reusable), and degraded or failed outcomes
// are excluded at insert. A hit therefore replays exactly the payload a
// cold run would compute.

package serve

import (
	"container/list"
	"fmt"
	"sync"

	"polymer/internal/obs"
)

// resultEntry is one cached response. bytes is an estimate (struct +
// strings) used for budget accounting, not a precise heap measure.
type resultEntry struct {
	key   string
	data  string // dataset name, for invalidation purges
	bytes int64
	resp  Response
	elem  *list.Element
}

// resultCache is a memory-budgeted LRU over canonical request keys.
// budget < 0 disables the cache entirely (every get misses silently,
// every put is a no-op); budget == 0 is decided by Config.withDefaults.
type resultCache struct {
	mu       sync.Mutex
	disabled bool
	budget   int64
	entries  map[string]*resultEntry
	lru      *list.List // front = most recently used
	bytes    int64
	hits     int64
	misses   int64
	evicted  int64
	versions map[string]uint64 // dataset -> current generation
}

func newResultCache(budget int64) *resultCache {
	return &resultCache{
		disabled: budget < 0,
		budget:   budget,
		entries:  make(map[string]*resultEntry),
		lru:      list.New(),
		versions: make(map[string]uint64),
	}
}

// version returns the dataset's current generation. Requests sample it
// once, before their cache lookup, and carry it for the life of the run.
func (c *resultCache) version(data string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.versions[data]
}

func verKey(ver uint64, key string) string {
	return fmt.Sprintf("g%d|%s", ver, key)
}

// get looks the request up under its sampled generation.
func (c *resultCache) get(v *resolved) (Response, bool) {
	if c.disabled {
		return Response{}, false
	}
	k := verKey(v.ver, v.key())
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		c.misses++
		return Response{}, false
	}
	c.hits++
	c.lru.MoveToFront(e.elem)
	return e.resp, true
}

// put stores one full-fidelity response under an explicit canonical key
// (a multi-source sweep inserts per-source entries whose keys differ
// only in the source slot). Per-request provenance is stripped so a hit
// replays only the deterministic payload; BatchSize survives because it
// describes how the payload was computed, not who asked — and with it
// the run's accounting (SimSeconds, PeakBytes, Attempts), which for a
// batched insert describes the fused sweep rather than a solo run.
// Inserts against a stale generation are dropped — the invalidation
// already won.
func (c *resultCache) put(v *resolved, key string, resp Response) {
	if c.disabled {
		return
	}
	resp.ID = 0
	resp.WallMs = 0
	resp.Breaker = ""
	resp.Error = ""
	resp.Cached, resp.Coalesced = false, false
	// Planner provenance is per-request too: a hit is re-stamped with the
	// asking request's own decision (or none, if it was explicit).
	resp.Plan = nil
	k := verKey(v.ver, key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if v.ver != c.versions[string(v.data)] {
		return
	}
	if _, ok := c.entries[k]; ok {
		return // first writer wins; a racing writer computed the same bits
	}
	e := &resultEntry{
		key:   k,
		data:  string(v.data),
		bytes: int64(len(k)+len(resp.System)+len(resp.Algo)+len(resp.Graph)+len(resp.Scale)) + 160,
		resp:  resp,
	}
	e.elem = c.lru.PushFront(e)
	c.entries[k] = e
	c.bytes += e.bytes
	for c.budget > 0 && c.bytes > c.budget {
		el := c.lru.Back()
		if el == nil {
			break
		}
		c.removeLocked(el.Value.(*resultEntry))
		c.evicted++
	}
}

func (c *resultCache) removeLocked(e *resultEntry) {
	c.lru.Remove(e.elem)
	delete(c.entries, e.key)
	c.bytes -= e.bytes
}

// invalidate bumps the dataset's generation and purges its resident
// entries, returning the new generation and the purge count.
func (c *resultCache) invalidate(data string) (uint64, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.versions[data]++
	n := 0
	for el := c.lru.Back(); el != nil; {
		e := el.Value.(*resultEntry)
		prev := el.Prev()
		if e.data == data {
			c.removeLocked(e)
			n++
		}
		el = prev
	}
	return c.versions[data], n
}

// stats snapshots the cache counters for /metricsz.
func (c *resultCache) stats() cacheStats {
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

// InvalidateGraph is the dataset-refresh hook: it bumps id's result
// generation (logically discarding every cached and in-flight result for
// the dataset) and drops unpinned cached graphs, generated bases included,
// so the next request reloads. Graphs pinned by running requests finish
// against the snapshot they started with; their results land under the old
// generation and are never served. It returns the new generation and how
// many cached results plus resident graphs were purged.
func (s *Server) InvalidateGraph(id string) (version uint64, purged int) {
	return s.invalidate(id, nil)
}

// invalidate is InvalidateGraph, or with keep a commit's retirement: the
// same generation bump, but the graph-cache entries keep names stay.
func (s *Server) invalidate(id string, keep func(key string) bool) (version uint64, purged int) {
	version, purged = s.results.invalidate(id)
	purged += s.cache.invalidate(id, keep)
	s.cfg.Tracer.HostInstant("serve", "invalidate", obs.PidServe, obs.NowMicros(), -1,
		fmt.Sprintf("%s -> generation %d (%d purged)", id, version, purged))
	return version, purged
}

// The versioned result cache: full-fidelity responses keyed by the
// request's run identity (request.go's runID), each stamped with the
// dataset's cache generation it was computed under and rendered to JSON
// once, at put, so a hit writes stored bytes. InvalidateGraph bumps the
// generation, so results computed against a stale snapshot can never
// be served again — even if the run that computed them is still in flight
// when the invalidation lands, because each request samples its
// generation before executing and inserts under that sample.
//
// Only pure results are cached: fault-injected runs are excluded at the
// reuse-path gate (resolved.reusable), and failed outcomes are excluded
// at insert. A hit therefore replays exactly the payload a
// cold run would compute.
//
// With a mutation store, a BFS or SSSP entry also keeps its typed answer
// and the snapshot sequence its run read. A commit turns such entries
// into priors instead of dropping them: a prior is never served, but the
// next miss of its identity repairs it into the new snapshot's answer (a warm
// run, attempt.go). A dataset refresh (InvalidateGraph) drops priors with
// everything else.
//
// A retained answer has one owner at a time: the cache from put until it
// replaces, evicts or drops the entry, when it hands the answer's storage
// back to mem's spare list (bench.Output.Recycle) for the next run's
// answer. A warm run reading the answer as its prior counts as a reader
// of the entry; an entry removed while it is read stays intact until its
// last reader ends, and that reader recycles the answer.

package serve

import (
	"container/list"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"unsafe"

	"polymer/internal/bench"
	"polymer/internal/gen"
	"polymer/internal/obs"
)

// resultEntry is one cached response. bytes is an estimate (entryOverhead
// + rendered bytes + retained answer) used for budget accounting, not a
// precise heap measure.
type resultEntry struct {
	id  runID
	ver uint64 // the generation it was computed under
	// prior marks an entry a commit retired: never a hit, but out (from
	// snapshot seq) may seed a warm run of id.
	prior bool
	bytes int64
	hit   hit
	out   bench.Output
	seq   uint64
	elem  *list.Element
	// readers counts the warm runs reading out as their prior (prior adds
	// one, unread takes it away); gone marks an entry removed from the
	// cache, whose out the last of them recycles.
	readers int
	gone    bool
}

// entryOverhead is what an entry costs beside its rendered bytes and
// answer: the entry, its identity again as the map key, and its LRU
// element; map slots and size-class rounding are left out.
const entryOverhead = int64(unsafe.Sizeof(resultEntry{}) + unsafe.Sizeof(runID{}) + unsafe.Sizeof(list.Element{}))

// hit is a cached response as put rendered it: encoding/json's bytes for
// the stripped payload with Cached set, so with ID 0 and no wall time or
// plan.
type hit struct {
	body []byte
}

// hitHead is how every rendered payload starts; a hit writes its own ID
// in place of the 0.
const hitHead = `{"id":0`

// renderHit renders the stripped resp as a hit replays it. It fails only for
// a payload encoding/json cannot write (a NaN or infinite float).
func renderHit(resp Response) (hit, error) {
	resp.Cached = true
	b, err := json.Marshal(resp)
	return hit{body: b}, err
}

// hitReply is a result-cache hit as one request receives it: the entry's
// rendered payload and the request's own provenance (its ID and its
// plan), which are stamped on the payload as it is written.
type hitReply struct {
	hit
	id   int64
	plan *PlanInfo
	// rendered is plan's JSON when the request's decision keeps it
	// (resolved.hitPlan); when it is nil, appendTo renders plan itself.
	rendered []byte
}

// appendTo appends what json.NewEncoder(w).Encode writes for the cached
// payload stamped with the reply's provenance: the ID, the rest of the
// payload and the plan, which is the last field. A plan with no JSON form
// (a non-finite predicted cost) fails the whole encode, as it fails
// Encode: nothing is appended.
func (r *hitReply) appendTo(b []byte) []byte {
	plan := r.rendered
	if plan == nil && r.plan != nil {
		var err error
		if plan, err = json.Marshal(r.plan); err != nil {
			return b
		}
	}
	b = strconv.AppendInt(append(b, `{"id":`...), r.id, 10)
	b = append(b, r.body[len(hitHead):len(r.body)-1]...)
	if plan != nil {
		b = append(append(b, `,"plan":`...), plan...)
	}
	return append(b, "}\n"...)
}

// resultCache is a memory-budgeted LRU over run identities.
// budget < 0 disables the cache entirely (every get misses silently,
// every put is a no-op); budget == 0 is decided by Config.withDefaults.
type resultCache struct {
	mu       sync.Mutex
	disabled bool
	budget   int64
	entries  map[runID]*resultEntry
	lru      *list.List // front = most recently used
	bytes    int64
	hits     int64
	misses   int64
	evicted  int64
	versions map[gen.Dataset]uint64 // current generation
}

func newResultCache(budget int64) *resultCache {
	return &resultCache{
		disabled: budget < 0,
		budget:   budget,
		entries:  make(map[runID]*resultEntry),
		lru:      list.New(),
		versions: make(map[gen.Dataset]uint64),
	}
}

// version returns the dataset's current generation. Requests sample it
// once, before their cache lookup, and carry it for the life of the run.
func (c *resultCache) version(data gen.Dataset) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.versions[data]
}

// get looks the request up under its sampled generation.
func (c *resultCache) get(v *resolved) (hit, bool) {
	if c.disabled {
		return hit{}, false
	}
	id := v.id(v.src)
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok || e.prior || e.ver != v.ver {
		c.misses++
		return hit{}, false
	}
	c.hits++
	c.lru.MoveToFront(e.elem)
	return e.hit, true
}

// put stores one full-fidelity response under an explicit identity (a
// multi-source sweep inserts per-source entries whose identities differ
// only in the source), with the typed answer out when the caller
// retains it (F64 or I64; the zero Output otherwise) and the sequence
// number of the snapshot it was computed on. Per-request provenance is
// stripped so a hit replays only the deterministic payload; BatchSize and
// Warm survive because they describe how the payload was computed, not who
// asked — and with them the run's accounting (SimSeconds, PeakBytes),
// which for a batched insert describes the fused sweep rather than a solo
// run, and for a warm one the repair. The stripped payload is rendered
// here, once (renderHit), and the entry keeps only those bytes. Inserts
// against a stale generation are dropped — the invalidation already won.
// An insert replaces a prior under its identity. put reports whether it
// inserted the entry: only then is out the cache's, and otherwise its
// caller still holds it.
func (c *resultCache) put(v *resolved, id runID, resp Response, out bench.Output, seq uint64) bool {
	if c.disabled {
		return false
	}
	resp.ID = 0
	resp.WallMs = 0
	resp.Error = ""
	resp.Cached, resp.Coalesced = false, false
	// Planner provenance is per-request too: a hit is re-stamped with the
	// asking request's own decision (or none, if it was explicit).
	resp.Plan = nil
	h, err := renderHit(resp)
	if err != nil {
		return false // a payload with no JSON form is never replayed
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v.ver != c.versions[v.data] {
		return false
	}
	if old, ok := c.entries[id]; ok {
		if !old.prior {
			return false // first writer wins; a racing writer computed the same bits
		}
		c.removeLocked(old)
	}
	e := &resultEntry{
		id:    id,
		ver:   v.ver,
		bytes: entryOverhead + int64(len(h.body)+8*(len(out.F64)+len(out.I64))),
		hit:   h,
		out:   out,
		seq:   seq,
	}
	e.elem = c.lru.PushFront(e)
	c.entries[id] = e
	c.bytes += e.bytes
	for c.budget > 0 && c.bytes > c.budget {
		el := c.lru.Back()
		if el == nil {
			break
		}
		c.removeLocked(el.Value.(*resultEntry))
		c.evicted++
	}
	return true
}

// prior returns the entry under id when it retains its answer, with one
// more reader: its out (computed on snapshot seq) stays intact until the
// caller ends its read with unread. It returns nil when no entry under id
// retains an answer.
func (c *resultCache) prior(id runID) *resultEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok || !e.retained() {
		return nil
	}
	e.readers++
	return e
}

// unread ends one read of e's answer that prior began. The last reader of
// an entry the cache has removed recycles its answer.
func (c *resultCache) unread(e *resultEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.readers--
	if e.readers == 0 && e.gone {
		e.out.Recycle()
	}
}

// retained reports whether the entry kept its typed answer.
func (e *resultEntry) retained() bool { return e.out.F64 != nil || e.out.I64 != nil }

// removeLocked takes e out of the cache and recycles its answer, unless a
// warm run is reading it: then its last reader does (unread).
func (c *resultCache) removeLocked(e *resultEntry) {
	c.lru.Remove(e.elem)
	delete(c.entries, e.id)
	c.bytes -= e.bytes
	e.gone = true
	if e.readers == 0 {
		e.out.Recycle()
	}
}

// invalidate bumps the dataset's generation and retires its resident
// entries: a commit (keepPriors) keeps those with a retained answer as
// priors and drops the rest, a refresh drops them all. It returns the new
// generation and the count of entries no longer servable.
func (c *resultCache) invalidate(data gen.Dataset, keepPriors bool) (uint64, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.versions[data]++
	n := 0
	for el := c.lru.Back(); el != nil; {
		e := el.Value.(*resultEntry)
		prev := el.Prev()
		if e.id.data == data {
			if !e.prior {
				n++
			}
			if keepPriors && e.retained() {
				e.prior = true
			} else {
				c.removeLocked(e)
			}
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
// the dataset, priors included) and drops unpinned cached graphs,
// generated bases included, so the next request reloads. Graphs pinned by
// running requests finish against the snapshot they started with; their
// results land under the old generation and are never served. It returns
// the new generation and how many cached results plus resident graphs
// were purged.
func (s *Server) InvalidateGraph(id string) (version uint64, purged int) {
	return s.invalidate(gen.Dataset(id), false)
}

// invalidate is InvalidateGraph, or with commit a commit's retirement:
// the same generation bump, but the generated bases stay in the graph
// cache (no commit changes them), and so do the results that can seed a
// warm run, as priors.
func (s *Server) invalidate(data gen.Dataset, commit bool) (version uint64, purged int) {
	version, purged = s.results.invalidate(data, commit)
	purged += s.cache.invalidate(data, commit)
	if tr := s.cfg.Tracer; tr != nil {
		tr.HostInstant("serve", "invalidate", obs.PidServe, obs.NowMicros(), -1,
			fmt.Sprintf("%s -> generation %d (%d purged)", data, version, purged))
	}
	return version, purged
}

// Service counters: every request is accounted exactly once at intake —
// admitted (own queue slot), coalesced (attached to an in-flight
// identical run), batched (joined a traversal run), result-hit
// (answered from the versioned result cache) or shed — and every
// non-shed request resolves to exactly one of completed / failed /
// expired / cancelled. Warm, evicted and mutations are events outside
// it. The soak suite asserts the identity
//
//	completed+failed+expired+cancelled ==
//	    admitted + coalesced + batched + result_hits

package serve

import (
	"sync/atomic"

	"polymer/internal/core"
)

// Counters aggregates service activity. All fields are safe for
// concurrent update; Snapshot returns a consistent-enough view for
// monitoring (individual loads are atomic).
type Counters struct {
	// Admitted requests entered the queue; Shed were refused with 429 at
	// admission because the queue was full.
	Admitted atomic.Int64
	Shed     atomic.Int64
	// Coalesced requests attached to an identical admitted run instead
	// of taking a queue slot; Batched joined a traversal run, adding their
	// source to its sweep unless it already had it;
	// ResultHits were answered from the versioned result cache without
	// touching the queue at all.
	Coalesced  atomic.Int64
	Batched    atomic.Int64
	ResultHits atomic.Int64
	// Warm counts runs that answered by repairing an earlier answer of
	// their request (a warm run) instead of traversing from scratch. It is
	// an event counter outside the identity: each such run was admitted.
	Warm atomic.Int64
	// Completed requests returned a result; Failed requests' runs failed;
	// Expired hit their deadline; Cancelled were abandoned by the client
	// or a drain.
	Completed atomic.Int64
	Failed    atomic.Int64
	Expired   atomic.Int64
	Cancelled atomic.Int64
	// Evicted counts graphs dropped from the memory-budgeted cache.
	Evicted atomic.Int64
	// Mutations counts committed mutation batches (each one a durable WAL
	// record, a new snapshot and a generation bump). Like Evicted it is
	// an event counter outside the resolution identity — mutation
	// requests themselves resolve as completed/failed/etc.
	Mutations atomic.Int64
}

// CounterSnapshot is the JSON form of Counters.
type CounterSnapshot struct {
	Admitted   int64 `json:"admitted"`
	Shed       int64 `json:"shed"`
	Coalesced  int64 `json:"coalesced"`
	Batched    int64 `json:"batched"`
	ResultHits int64 `json:"result_hits"`
	Warm       int64 `json:"warm"`
	Completed  int64 `json:"completed"`
	Failed     int64 `json:"failed"`
	Expired    int64 `json:"expired"`
	Cancelled  int64 `json:"cancelled"`
	Evicted    int64 `json:"evicted"`
	Mutations  int64 `json:"mutations"`
}

// Snapshot reads every counter.
func (c *Counters) Snapshot() CounterSnapshot {
	return CounterSnapshot{
		Admitted:   c.Admitted.Load(),
		Shed:       c.Shed.Load(),
		Coalesced:  c.Coalesced.Load(),
		Batched:    c.Batched.Load(),
		ResultHits: c.ResultHits.Load(),
		Warm:       c.Warm.Load(),
		Completed:  c.Completed.Load(),
		Failed:     c.Failed.Load(),
		Expired:    c.Expired.Load(),
		Cancelled:  c.Cancelled.Load(),
		Evicted:    c.Evicted.Load(),
		Mutations:  c.Mutations.Load(),
	}
}

// LineageStats is /metricsz's lineage block: what the server's runs and
// planner carried over from a predecessor snapshot against what they made
// afresh — layouts patched or built and partitions inherited or balanced
// (summed core.Lineage, base graphs' fresh ones included), and snapshots
// that inherited their lineage's profile against profiles taken.
type LineageStats struct {
	LayoutsPatched       int64 `json:"layouts_patched"`
	LayoutsBuilt         int64 `json:"layouts_built"`
	PartitionsInherited  int64 `json:"partitions_inherited"`
	PartitionsRebalanced int64 `json:"partitions_rebalanced"`
	ProfilesInherited    int64 `json:"profiles_inherited"`
	ProfilesComputed     int64 `json:"profiles_computed"`
}

// lineageCounters accumulates LineageStats.
type lineageCounters struct {
	layoutsPatched, layoutsBuilt              atomic.Int64
	partitionsInherited, partitionsRebalanced atomic.Int64
	profilesInherited, profilesComputed       atomic.Int64
}

// add counts one run's engine.
func (c *lineageCounters) add(l core.Lineage) {
	c.layoutsPatched.Add(int64(l.LayoutsPatched))
	c.layoutsBuilt.Add(int64(l.LayoutsBuilt))
	c.partitionsInherited.Add(int64(l.PartitionsInherited))
	c.partitionsRebalanced.Add(int64(l.PartitionsRebalanced))
}

func (c *lineageCounters) stats() *LineageStats {
	return &LineageStats{
		LayoutsPatched:       c.layoutsPatched.Load(),
		LayoutsBuilt:         c.layoutsBuilt.Load(),
		PartitionsInherited:  c.partitionsInherited.Load(),
		PartitionsRebalanced: c.partitionsRebalanced.Load(),
		ProfilesInherited:    c.profilesInherited.Load(),
		ProfilesComputed:     c.profilesComputed.Load(),
	}
}

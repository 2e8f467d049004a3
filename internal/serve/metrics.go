// Service counters: every request is accounted exactly once at intake —
// admitted (own queue slot), coalesced (attached to an in-flight
// identical run), batched (joined a traversal run), result-hit
// (answered from the versioned result cache) or shed — and every
// non-shed request resolves to exactly one of completed / degraded /
// broken / failed / expired / cancelled. Retried and evicted count
// additional events along the way. The soak suite asserts the identity
//
//	completed+degraded+broken+failed+expired+cancelled ==
//	    admitted + coalesced + batched + result_hits

package serve

import "sync/atomic"

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
	// Completed requests returned a full-fidelity result; Degraded
	// returned the honest degraded-mode result while a circuit was open.
	Completed atomic.Int64
	Degraded  atomic.Int64
	// Retried counts whole-run retry attempts (backoff + jitter) beyond
	// each request's first execution.
	Retried atomic.Int64
	// Broken counts requests refused (503) because a circuit was open and
	// no degraded route applied.
	Broken atomic.Int64
	// Failed requests exhausted their retries; Expired hit their deadline;
	// Cancelled were abandoned by the client or a drain.
	Failed    atomic.Int64
	Expired   atomic.Int64
	Cancelled atomic.Int64
	// Evicted counts graphs dropped from the memory-budgeted cache.
	Evicted atomic.Int64
	// Mutations counts committed mutation batches (each one a durable WAL
	// record, a new snapshot and a generation bump). Like Retried and
	// Evicted it is an event counter outside the resolution identity —
	// mutation requests themselves resolve as completed/failed/etc.
	Mutations atomic.Int64
	// Hedged counts hedge legs launched for cluster reads; HedgeWins
	// counts the subset that answered before (or instead of) the primary.
	// Both are event counters: each leg is also a full admission that
	// resolves once, so they sit outside the identity like Retried.
	Hedged    atomic.Int64
	HedgeWins atomic.Int64
}

// CounterSnapshot is the JSON form of Counters.
type CounterSnapshot struct {
	Admitted   int64 `json:"admitted"`
	Shed       int64 `json:"shed"`
	Coalesced  int64 `json:"coalesced"`
	Batched    int64 `json:"batched"`
	ResultHits int64 `json:"result_hits"`
	Completed  int64 `json:"completed"`
	Degraded   int64 `json:"degraded"`
	Retried    int64 `json:"retried"`
	Broken     int64 `json:"broken"`
	Failed     int64 `json:"failed"`
	Expired    int64 `json:"expired"`
	Cancelled  int64 `json:"cancelled"`
	Evicted    int64 `json:"evicted"`
	Mutations  int64 `json:"mutations"`
	Hedged     int64 `json:"hedged"`
	HedgeWins  int64 `json:"hedge_wins"`
}

// Snapshot reads every counter.
func (c *Counters) Snapshot() CounterSnapshot {
	return CounterSnapshot{
		Admitted:   c.Admitted.Load(),
		Shed:       c.Shed.Load(),
		Coalesced:  c.Coalesced.Load(),
		Batched:    c.Batched.Load(),
		ResultHits: c.ResultHits.Load(),
		Completed:  c.Completed.Load(),
		Degraded:   c.Degraded.Load(),
		Retried:    c.Retried.Load(),
		Broken:     c.Broken.Load(),
		Failed:     c.Failed.Load(),
		Expired:    c.Expired.Load(),
		Cancelled:  c.Cancelled.Load(),
		Evicted:    c.Evicted.Load(),
		Mutations:  c.Mutations.Load(),
		Hedged:     c.Hedged.Load(),
		HedgeWins:  c.HedgeWins.Load(),
	}
}

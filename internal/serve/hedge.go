// Hedged cluster reads: a cluster request's primary leg runs normally;
// if it hasn't resolved after the p90 of recent primary latencies, a
// second leg is raced from standby replicas and the first success wins.
// Both legs are full admissions — each takes a queue slot, executes (or
// is cancelled) and resolves exactly once — so the accounting identity
//
//	completed+degraded+broken+failed+expired+cancelled ==
//	    admitted + coalesced + batched + result_hits
//
// holds with hedging: the loser resolves as completed or cancelled like
// any other request, never as a second answer to the caller. That is
// also what prevents failover retry storms — a hedge is one bounded
// extra admission with a cancelled loser, not an open-ended retry loop.

package serve

import (
	"context"
	"sort"
	"sync"
	"time"
)

// defaultHedgeDelay seeds the hedge timer before any primary latency has
// been observed.
const defaultHedgeDelay = 25 * time.Millisecond

// hedgeTracker is a fixed ring of recent primary-leg latencies; delay()
// reports their p90. It deliberately tracks wall latency end to end
// (queue wait included) because that is what the hedger's timer races.
type hedgeTracker struct {
	mu   sync.Mutex
	ring []time.Duration
	next int
	full bool
}

func newHedgeTracker(n int) *hedgeTracker {
	return &hedgeTracker{ring: make([]time.Duration, n)}
}

func (h *hedgeTracker) observe(d time.Duration) {
	h.mu.Lock()
	h.ring[h.next] = d
	h.next++
	if h.next == len(h.ring) {
		h.next, h.full = 0, true
	}
	h.mu.Unlock()
}

// delay returns the p90 of the recorded latencies, floored at 1ms so a
// burst of cache-warm fast runs can't make every request hedge
// instantly. With no samples yet it returns the seed default.
func (h *hedgeTracker) delay() time.Duration {
	h.mu.Lock()
	n := h.next
	if h.full {
		n = len(h.ring)
	}
	samples := append([]time.Duration(nil), h.ring[:n]...)
	h.mu.Unlock()
	if len(samples) == 0 {
		return defaultHedgeDelay
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	q := samples[len(samples)*9/10]
	if q < time.Millisecond {
		q = time.Millisecond
	}
	return q
}

// hedged answers one cluster request with a hedged read. The primary leg
// is submitted immediately; if it is still unresolved after the hedge
// delay, a replica-preferring clone races it. First success wins and the
// loser's context is cancelled; if the first resolution is a failure the
// surviving leg still gets its chance before the failure is reported.
func (s *Server) hedged(v *resolved, clientCtx context.Context) (outcome, bool, error) {
	start := time.Now()
	prim, shed, err := s.submit(v, runKey{}, clientCtx)
	if err != nil {
		return outcome{}, shed, err
	}
	// primary answers from the primary leg alone.
	primary := func() (outcome, bool, error) {
		<-prim.done
		s.hedges.observe(time.Since(start))
		return prim.outs[0], false, nil
	}
	delay := s.cfg.HedgeDelay
	if delay == 0 {
		delay = s.hedges.delay()
	}
	if delay < 0 { // hedging disabled
		return primary()
	}
	timer := time.NewTimer(delay)
	defer timer.Stop()
	select {
	case <-prim.done:
		return primary()
	case <-timer.C:
	}
	// The primary is past the latency quantile: race the hedge leg. A
	// shed or draining refusal here is not an error — the primary is
	// still running and will answer alone.
	hv := *v
	hv.hedge = true
	hedge, _, err := s.submit(&hv, runKey{}, clientCtx)
	if err != nil {
		return primary()
	}
	s.counters.Hedged.Add(1)
	winner, loser := prim, hedge
	select {
	case <-prim.done:
	case <-hedge.done:
		winner, loser = hedge, prim
	}
	out := winner.outs[0]
	if out.status != 200 {
		<-loser.done
		if lout := loser.outs[0]; lout.status == 200 {
			winner, loser, out = loser, winner, lout
		}
	}
	// Both legs are private runs, each resolved when it published: the
	// loser is cancelled and answers nobody, so nothing waits on it and
	// nothing leaks.
	loser.cancel()
	if winner == prim {
		s.hedges.observe(time.Since(start))
	} else if out.status == 200 {
		s.counters.HedgeWins.Add(1)
	}
	return out, false, nil
}

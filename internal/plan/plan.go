// The chooser: score every viable candidate with the cost model, apply
// the learner's corrections, prune vetoed engines, and pick the argmin.
// Decisions are memoized in a cache keyed by the exact feature vector
// plus the query's constraints and the learner generation, so resolving
// a repeated workload is a single map lookup with zero allocations.

package plan

import (
	"sync"
	"sync/atomic"

	"polymer/internal/bench"
	"polymer/internal/mem"
	"polymer/internal/numa"
)

// Version identifies the planner's model+chooser revision; it is stamped
// into response provenance so cached results from an older planner are
// distinguishable.
const Version = 1

// deviationMargin is the factor by which a candidate narrower than the
// requested width must beat the requested-width alternatives: deviating
// from the caller's shape risks regret against a fixed-shape oracle, so
// the planner only does it when the model is confident.
const deviationMargin = 1.25

// Veto bits, one per engine, for pruning candidates whose circuit
// breaker is open or degraded.
const (
	VetoPolymer uint8 = 1 << iota
	VetoLigra
	VetoXStream
	VetoGalois
)

// VetoBit maps an engine to its veto-mask bit.
func VetoBit(sys bench.System) uint8 {
	switch sys {
	case bench.Polymer:
		return VetoPolymer
	case bench.Ligra:
		return VetoLigra
	case bench.XStream:
		return VetoXStream
	case bench.Galois:
		return VetoGalois
	}
	return 0
}

// Query is one planning request.
type Query struct {
	Features Features
	Alg      bench.Algo
	// Nodes is the requested machine width (the planner may narrow it,
	// never widen it). NodesFixed pins the width: the caller asked for
	// exactly Nodes sockets and narrower candidates are off the table.
	Nodes      int
	NodesFixed bool
	// EngineFixed pins the engine ("" = auto).
	EngineFixed bench.System
	// PlacementFixed pins the placement when PlacementSet is true.
	PlacementFixed mem.Placement
	PlacementSet   bool
	// Veto is the open/degraded-breaker engine mask; vetoed engines are
	// pruned from the candidate set.
	Veto uint8
	// Tier describes the target machine's tiered-memory arming; the zero
	// value (untiered) predicts against unbounded DRAM. A tiered query
	// re-ranks candidates under the slow tier's bandwidth penalties —
	// placements that concentrate traffic on DRAM-resident hot vertices
	// win budget they lose on an untiered box.
	Tier numa.TierConfig
}

// Scored is one row of the decision table.
type Scored struct {
	Candidate Candidate `json:"candidate"`
	// Cost is the corrected predicted simulated seconds (raw model
	// prediction x learner factor x deviation margin).
	Cost float64 `json:"cost"`
	// Raw is the uncorrected model prediction.
	Raw float64 `json:"raw"`
	// Vetoed marks candidates pruned by the breaker mask (still listed so
	// -plan shows the full table).
	Vetoed bool `json:"vetoed,omitempty"`
}

// Decision is the planner's answer: the pick, its predicted cost, and
// the full scored table for observability.
type Decision struct {
	Pick      Candidate
	Predicted float64 // corrected predicted cost of the pick, seconds
	Raw       float64 // uncorrected model prediction of the pick
	Bucket    Bucket
	Table     []Scored
	// Fallback is set when every candidate was vetoed: the pick ignores
	// the veto mask (the serving layer's breaker then produces an honest
	// degraded or refused response rather than the planner guessing).
	Fallback bool
	LearnGen uint64
}

// cacheKey is comparable: the exact feature vector plus everything else
// that can change the decision.
type cacheKey struct {
	f        Features
	alg      bench.Algo
	nodes    int
	nodesFix bool
	engine   bench.System
	place    mem.Placement
	placeSet bool
	veto     uint8
	tier     numa.TierConfig
	gen      uint64
}

// Planner owns the cost model, learner, scheduler and decision cache
// for one topology. Safe for concurrent use.
type Planner struct {
	topo  *numa.Topology
	cores int

	learner *Learner
	sched   *Scheduler

	mu    sync.RWMutex
	cache map[cacheKey]*Decision

	decisions atomic.Int64
	hits      atomic.Int64
	fallbacks atomic.Int64
}

// New creates a planner for one machine shape (topology and cores per
// socket — the two dimensions the serving layer fixes at startup).
func New(topo *numa.Topology, coresPerNode int) *Planner {
	return &Planner{
		topo:    topo,
		cores:   coresPerNode,
		learner: NewLearner(),
		sched:   NewScheduler(topo),
		cache:   make(map[cacheKey]*Decision),
	}
}

// Learner exposes the online learner (for observation feeding and
// stats).
func (p *Planner) Learner() *Learner { return p.learner }

// Scheduler exposes the multi-tenant socket scheduler.
func (p *Planner) Scheduler() *Scheduler { return p.sched }

// Topology returns the planner's topology.
func (p *Planner) Topology() *numa.Topology { return p.topo }

// Resolve answers a query, from cache when possible. The returned
// Decision is shared and must not be mutated.
func (p *Planner) Resolve(q Query) *Decision {
	if q.Nodes < 1 {
		q.Nodes = 1
	}
	if q.Nodes > p.topo.Sockets {
		q.Nodes = p.topo.Sockets
	}
	k := cacheKey{
		f: q.Features, alg: q.Alg, nodes: q.Nodes, nodesFix: q.NodesFixed,
		engine: q.EngineFixed, place: q.PlacementFixed, placeSet: q.PlacementSet,
		veto: q.Veto, tier: q.Tier, gen: p.learner.Gen(),
	}
	p.mu.RLock()
	d := p.cache[k]
	p.mu.RUnlock()
	if d != nil {
		p.hits.Add(1)
		return d
	}
	d = p.decide(q, k.gen)
	p.decisions.Add(1)
	if d.Fallback {
		p.fallbacks.Add(1)
	}
	p.mu.Lock()
	if prev := p.cache[k]; prev != nil {
		d = prev
	} else {
		p.cache[k] = d
	}
	p.mu.Unlock()
	return d
}

func (p *Planner) decide(q Query, gen uint64) *Decision {
	b := BucketOf(q.Features, q.Alg)
	b.Tiered = q.Tier.Tiered()
	cands := Candidates(q.Alg, q.Nodes)
	table := make([]Scored, 0, len(cands))
	best, bestRaw := -1, 0.0
	bestCost := inf
	allVetoed := true
	for _, c := range cands {
		if q.EngineFixed != "" && c.Engine != q.EngineFixed {
			continue
		}
		if q.PlacementSet && c.Placement != q.PlacementFixed {
			continue
		}
		if q.NodesFixed && c.Nodes != q.Nodes {
			continue
		}
		raw := PredictTiered(q.Features, q.Alg, p.topo, c, p.cores, q.Tier)
		cost := raw * p.learner.Factor(b, c)
		if c.Nodes != q.Nodes {
			cost *= deviationMargin
		}
		vetoed := q.Veto&VetoBit(c.Engine) != 0
		table = append(table, Scored{Candidate: c, Cost: cost, Raw: raw, Vetoed: vetoed})
		if vetoed {
			continue
		}
		allVetoed = false
		if cost < bestCost {
			best, bestCost, bestRaw = len(table)-1, cost, raw
		}
	}
	d := &Decision{Bucket: b, Table: table, LearnGen: gen}
	if best < 0 {
		// Every viable candidate vetoed (or none viable at all): fall back
		// to the cheapest candidate ignoring the veto and let the serving
		// layer's breaker answer honestly.
		d.Fallback = allVetoed && len(table) > 0
		for i, s := range table {
			if best < 0 || s.Cost < bestCost {
				best, bestCost, bestRaw = i, s.Cost, s.Raw
			}
		}
		if best < 0 {
			// No candidates whatsoever (unsupported algorithm): degrade to
			// Polymer native — the engine that runs everything.
			d.Pick = Candidate{Engine: bench.Polymer, Placement: mem.CoLocated, Nodes: q.Nodes}
			d.Predicted = inf
			d.Raw = inf
			return d
		}
	}
	d.Pick = table[best].Candidate
	d.Predicted = bestCost
	d.Raw = bestRaw
	return d
}

// Observe feeds one completed run back into the learner: the decision
// that chose it and the simulated seconds actually charged.
func (p *Planner) Observe(d *Decision, observed float64) {
	if d == nil {
		return
	}
	p.learner.Observe(d.Bucket, d.Pick, d.Raw, observed)
}

// Stats is the planner's /metricsz block.
type Stats struct {
	Decisions int64        `json:"decisions"`
	CacheHits int64        `json:"cache_hits"`
	Fallbacks int64        `json:"fallbacks"`
	Learner   LearnerStats `json:"learner"`
}

// Snapshot returns current planner counters.
func (p *Planner) Snapshot() Stats {
	return Stats{
		Decisions: p.decisions.Load(),
		CacheHits: p.hits.Load(),
		Fallbacks: p.fallbacks.Load(),
		Learner:   p.learner.Stats(),
	}
}

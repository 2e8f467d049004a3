// The chooser: score every viable candidate with the cost model, apply
// the learner's corrections, and pick the argmin.
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
}

// Decision is the planner's answer: the pick, its predicted cost, and
// the full scored table for observability.
type Decision struct {
	Pick      Candidate
	Predicted float64 // corrected predicted cost of the pick, seconds
	Raw       float64 // uncorrected model prediction of the pick
	Bucket    Bucket
	Table     []Scored
	LearnGen  uint64

	// Memo keeps what a caller derives from the decision alone and would
	// otherwise derive on every use, so that it lives and dies with the
	// decision: the serving layer keeps a planned hit's rendered plan
	// block here, one for each combination of the request's two auto
	// flags. Safe for concurrent use; the other fields are not written
	// once the decision is shared.
	Memo [4]atomic.Value
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
	tier     numa.TierConfig
	gen      uint64
}

// Planner owns the cost model, learner and decision cache for one
// topology. Safe for concurrent use.
type Planner struct {
	topo  *numa.Topology
	cores int

	learner *Learner

	mu    sync.RWMutex
	cache map[cacheKey]*Decision

	decisions atomic.Int64
	hits      atomic.Int64
}

// New creates a planner for one machine shape (topology and cores per
// socket — the two dimensions the serving layer fixes at startup).
func New(topo *numa.Topology, coresPerNode int) *Planner {
	return &Planner{
		topo:    topo,
		cores:   coresPerNode,
		learner: NewLearner(),
		cache:   make(map[cacheKey]*Decision),
	}
}

// Learner exposes the online learner (for observation feeding and
// stats).
func (p *Planner) Learner() *Learner { return p.learner }

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
		tier: q.Tier, gen: p.learner.Gen(),
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
		table = append(table, Scored{Candidate: c, Cost: cost, Raw: raw})
		if cost < bestCost {
			best, bestCost, bestRaw = len(table)-1, cost, raw
		}
	}
	d := &Decision{Bucket: b, Table: table, LearnGen: gen}
	if best < 0 {
		// No candidate priced below inf: the cheapest all the same.
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

// Forget drops every cached decision made for feature vector f. The
// cache is keyed by the exact vector, so a caller whose input has moved
// on (a committed mutation changes the graph's features) forgets the old
// one, or the cache grows by one entry per change.
func (p *Planner) Forget(f Features) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for k := range p.cache {
		if k.f == f {
			delete(p.cache, k)
		}
	}
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
	Decisions int64 `json:"decisions"`
	CacheHits int64 `json:"cache_hits"`
	// Cached is the number of decisions the cache holds.
	Cached  int          `json:"cached"`
	Learner LearnerStats `json:"learner"`
}

// Snapshot returns current planner counters.
func (p *Planner) Snapshot() Stats {
	p.mu.RLock()
	cached := len(p.cache)
	p.mu.RUnlock()
	return Stats{
		Decisions: p.decisions.Load(),
		CacheHits: p.hits.Load(),
		Cached:    cached,
		Learner:   p.learner.Stats(),
	}
}

// Planner integration: requests that leave the engine or placement to
// the server ("auto" or simply unspecified) are resolved here through
// the cost-model planner before they touch the result cache or the
// queue. The flow is profile -> plan -> bind: the dataset's feature
// vector comes from a per-lineage profile cache (one profile a dataset
// stream, kept across commits while they change it little), the
// planner's decision comes from its own memoized table, and the pick is
// bound back onto the resolved request so every downstream path — cache
// keys, batching, coalescing, execution — sees a concrete (engine,
// placement, nodes) exactly as if the client had spelled it out. On a
// profile-cache hit the whole resolution is lock-guarded map lookups:
// zero allocations.

package serve

import (
	"encoding/json"
	"fmt"
	"strconv"

	"polymer/internal/bench"
	"polymer/internal/gen"
	"polymer/internal/mem"
	"polymer/internal/obs"
	"polymer/internal/partition"
	"polymer/internal/plan"
)

// PlanInfo is a response's planner provenance: what was decided, by which
// model revision, and whether the machine was shared while it ran.
type PlanInfo struct {
	// Version is the planner model+chooser revision that produced the
	// decision.
	Version int `json:"version"`
	// Engine/Placement/Nodes are the pick.
	Engine    string `json:"engine"`
	Placement string `json:"placement"`
	Nodes     int    `json:"nodes"`
	// Predicted is the corrected predicted simulated cost of the pick.
	Predicted float64 `json:"predicted_sim_seconds"`
	// AutoEngine/AutoPlacement record which knobs the client delegated.
	AutoEngine    bool `json:"auto_engine"`
	AutoPlacement bool `json:"auto_placement"`
}

// planInfo builds the provenance block for this request's decision; nil
// when the request was never planned (fully explicit).
func (v *resolved) planInfo() *PlanInfo {
	d := v.planned
	if d == nil {
		return nil
	}
	return &PlanInfo{
		Version:       plan.Version,
		Engine:        string(d.Pick.Engine),
		Placement:     d.Pick.Placement.String(),
		Nodes:         d.Pick.Nodes,
		Predicted:     d.Predicted,
		AutoEngine:    v.autoEngine,
		AutoPlacement: v.autoPlace,
	}
}

// hitPlan returns the request's provenance block and its JSON, the block
// and the bytes a hit stamps: nil and nil when the request was never
// planned, and nil bytes when the block has no JSON form (a non-finite
// predicted cost). Both are made once for each decision and combination
// of auto flags, and kept on the decision (plan.Decision.Memo), which the
// planner shares between the requests it answers alike.
func (v *resolved) hitPlan() (*PlanInfo, []byte) {
	d := v.planned
	if d == nil {
		return nil, nil
	}
	slot := &d.Memo[flagIndex(v.autoEngine)<<1|flagIndex(v.autoPlace)]
	if m, ok := slot.Load().(*renderedPlan); ok {
		return m.info, m.json
	}
	m := &renderedPlan{info: v.planInfo()}
	m.json, _ = json.Marshal(m.info)
	slot.Store(m)
	return m.info, m.json
}

// A renderedPlan is a planned hit's provenance block and its JSON, or nil
// JSON when the block has none.
type renderedPlan struct {
	info *PlanInfo
	json []byte
}

func flagIndex(b bool) int {
	if b {
		return 1
	}
	return 0
}

// plannerKey identifies one planner instance: the serving layer keeps
// one per (topology, cores-per-socket) shape, so its cost model prices
// the machines requests actually build.
type plannerKey struct {
	mach  string
	cores int
}

// profileKey identifies one lineage's profile: a dataset stream in its
// weighted or unweighted build.
type profileKey struct {
	data     gen.Dataset
	scale    gen.Scale
	weighted bool
}

// profile is a lineage's feature vector: the snapshot it was taken on (seq,
// and ops, the mutation store's op count there; both 0 without a store)
// and the newest snapshot it has served.
type profile struct {
	f      plan.Features
	seq    uint64
	ops    int64
	served uint64
}

// plannerFor returns (creating on first use) the planner for the
// request's machine shape.
func (s *Server) plannerFor(v *resolved) *plan.Planner {
	k := plannerKey{mach: v.mach, cores: v.cores}
	s.planMu.RLock()
	p := s.planners[k]
	s.planMu.RUnlock()
	if p != nil {
		return p
	}
	s.planMu.Lock()
	defer s.planMu.Unlock()
	if p = s.planners[k]; p == nil {
		p = plan.New(v.topo, v.cores)
		s.planners[k] = p
	}
	return p
}

// profileFor returns the dataset's feature vector, profiling it on first
// use and caching one profile per lineage. A commit does not retire it: a
// snapshot inherits its lineage's profile while the ops committed since
// the profiled snapshot stay within partition.Epsilon of its edge count,
// so the planner's decision cache, keyed by the features, still answers
// the first planned read after a commit. Past that the snapshot is
// profiled afresh and the old profile retired.
func (s *Server) profileFor(v *resolved) (plan.Features, error) {
	weighted := v.alg.Weighted()
	var seq uint64
	var ops int64
	if s.mut != nil {
		var err error
		if seq, ops, err = s.mut.Version(string(v.data), int(v.scale)); err != nil {
			return plan.Features{}, err
		}
	}
	k := profileKey{data: v.data, scale: v.scale, weighted: weighted}
	s.profMu.RLock()
	p, ok := s.profiles[k]
	s.profMu.RUnlock()
	if ok && float64(ops-p.ops) <= partition.Epsilon*float64(p.f.Edges) {
		if seq > p.served {
			s.profMu.Lock()
			if cur := s.profiles[k]; cur.seq == p.seq && seq > cur.served {
				cur.served = seq
				s.profiles[k] = cur
				s.lineage.profilesInherited.Add(1)
			}
			s.profMu.Unlock()
		}
		return p.f, nil
	}
	g, release, err := s.graphFor(v)
	if err != nil {
		return plan.Features{}, err
	}
	start := obs.NowMicros()
	f := plan.Profile(g)
	release()
	s.lineage.profilesComputed.Add(1)
	if tr := s.cfg.Tracer; tr != nil {
		tr.Span("serve", "profile", obs.PidPlan, start, obs.NowMicros()-start, -1, 0,
			fmt.Sprintf("%s/%d m%d: %s", v.data, v.scale, seq, f))
	}
	s.profMu.Lock()
	old, had := s.profiles[k]
	retire := false
	if had && old.ops > ops {
		f = old.f // a later snapshot's profile landed first: serve that one
	} else {
		s.profiles[k] = profile{f: f, seq: seq, ops: ops, served: seq}
		retire = had && old.f != f
	}
	s.profMu.Unlock()
	if retire {
		s.retireProfile(old.f)
	}
	return f, nil
}

// retireProfile has every planner forget the decisions made for a profile
// that a fresh one replaced. The decision cache is keyed by the features,
// so without this every re-profile would leave its decisions behind.
func (s *Server) retireProfile(f plan.Features) {
	s.planMu.RLock()
	defer s.planMu.RUnlock()
	for _, p := range s.planners {
		p.Forget(f)
	}
}

// planFor resolves the request's auto knobs through the planner and
// binds the pick. Fully explicit requests pass through untouched;
// planning errors (an unloadable dataset) surface to the caller before
// any queue slot is spent.
func (s *Server) planFor(v *resolved) error {
	if !v.autoEngine && !v.autoPlace {
		return nil
	}
	f, err := s.profileFor(v)
	if err != nil {
		return err
	}
	q := plan.Query{
		Features:   f,
		Alg:        v.alg,
		Nodes:      v.nodes,
		NodesFixed: v.req.Sockets != 0,
		Tier:       v.tier,
	}
	if !v.autoEngine {
		q.EngineFixed = v.sys
	}
	if !v.autoPlace && v.layoutSet {
		q.PlacementFixed, q.PlacementSet = v.layout, true
	}
	d := s.plannerFor(v).Resolve(q)
	v.planned = d
	v.sys = d.Pick.Engine
	v.nodes = d.Pick.Nodes
	if v.sys == bench.Polymer {
		v.layout, v.layoutSet = d.Pick.Placement, true
	} else {
		v.layout, v.layoutSet = mem.Interleaved, false
	}
	return nil
}

// observePlan feeds one completed run's simulated time back into the
// learner. Only clean runs teach the model: fault-injected runs have
// simulated costs the model was never predicting.
func (s *Server) observePlan(v *resolved, simSeconds float64) {
	if v.planned == nil || s.cfg.DisableLearning || !v.reusable() {
		return
	}
	s.plannerFor(v).Observe(v.planned, simSeconds)
	if tr := s.cfg.Tracer; tr != nil {
		tr.HostInstant("serve", "plan-observe", obs.PidPlan, obs.NowMicros(), -1,
			fmt.Sprintf("%s predicted=%.3gs observed=%.3gs", v.planned.Pick, v.planned.Raw, simSeconds))
	}
}

// plannerStats snapshots every live planner for /metricsz, keyed by
// machine shape.
func (s *Server) plannerStats() map[string]plan.Stats {
	s.planMu.RLock()
	defer s.planMu.RUnlock()
	if len(s.planners) == 0 {
		return nil
	}
	out := make(map[string]plan.Stats, len(s.planners))
	for k, p := range s.planners {
		out[k.mach+"/x"+strconv.Itoa(k.cores)] = p.Snapshot()
	}
	return out
}

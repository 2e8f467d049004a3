// Planner integration: requests that leave the engine or placement to
// the server ("auto" or simply unspecified) are resolved here through
// the cost-model planner before they touch the result cache or the
// queue. The flow is profile -> plan -> bind: the dataset's feature
// vector comes from a per-(dataset, generation) profile cache (computed
// once per snapshot, next to the graph cache), the planner's decision
// comes from its own memoized table, and the pick is bound back onto the
// resolved request so every downstream path — cache keys, batching,
// coalescing, execution — sees a concrete (engine, placement, nodes)
// exactly as if the client had spelled it out. On a profile-cache hit
// the whole resolution is lock-guarded map lookups: zero allocations.

package serve

import (
	"fmt"

	"polymer/internal/bench"
	"polymer/internal/gen"
	"polymer/internal/mem"
	"polymer/internal/obs"
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
	// Fallback marks a decision made with every engine's circuit open; the
	// breaker, not the planner, then decides the outcome.
	Fallback bool `json:"fallback,omitempty"`
	// SharedTenants is the scheduler's co-tenancy degree when the run had
	// to share sockets; ChargedSimSeconds is the honest wall-clock-style
	// charge (sim_seconds x tenants). Both absent for an isolated run.
	SharedTenants     int     `json:"shared_tenants,omitempty"`
	ChargedSimSeconds float64 `json:"charged_sim_seconds,omitempty"`
}

// planInfo builds the provenance block for this request's decision; nil
// when the request was never planned (fully explicit or cluster).
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
		Fallback:      d.Fallback,
	}
}

// planWith is planInfo stamped with the run's co-tenancy: a run that
// shared its sockets with tenants-1 others reports them and is charged
// sim x tenants. nil, like planInfo, for an unplanned request.
func (v *resolved) planWith(tenants int, sim float64) *PlanInfo {
	pi := v.planInfo()
	if pi != nil && tenants > 1 {
		pi.SharedTenants = tenants
		pi.ChargedSimSeconds = sim * float64(tenants)
	}
	return pi
}

// plannerKey identifies one planner instance: the serving layer keeps
// one per (topology, cores-per-socket) shape, so its scheduler's socket
// accounting matches the machines requests actually build.
type plannerKey struct {
	mach  string
	cores int
}

// profileKey identifies one cached feature vector: the dataset snapshot
// (mutation sequence included) in its weighted or unweighted build.
type profileKey struct {
	data     gen.Dataset
	scale    gen.Scale
	weighted bool
	seq      uint64
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
// use and caching per snapshot. The cache key carries the mutation
// sequence, so a committed mutation batch naturally invalidates the
// profile along with the graph and result caches.
func (s *Server) profileFor(v *resolved) (plan.Features, error) {
	weighted := v.alg.Weighted()
	var seq uint64
	if s.mut != nil {
		var err error
		if seq, err = s.mut.Seq(string(v.data), int(v.scale)); err != nil {
			return plan.Features{}, err
		}
	}
	k := profileKey{data: v.data, scale: v.scale, weighted: weighted, seq: seq}
	s.profMu.RLock()
	f, ok := s.profiles[k]
	s.profMu.RUnlock()
	if ok {
		return f, nil
	}
	g, release, err := s.graphFor(v)
	if err != nil {
		return plan.Features{}, err
	}
	start := obs.NowMicros()
	f = plan.Profile(g)
	release()
	s.cfg.Tracer.Span("serve", "profile", obs.PidPlan, start, obs.NowMicros()-start, -1, 0,
		fmt.Sprintf("%s/%d m%d: %s", v.data, v.scale, seq, f))
	s.profMu.Lock()
	s.profiles[k] = f
	s.profMu.Unlock()
	return f, nil
}

// vetoMask folds the circuit breakers into candidate pruning: an engine
// whose circuit is open is vetoed outright. Half-open circuits stay
// plannable — the probe that closes them has to come from somewhere.
func (s *Server) vetoMask() uint8 {
	var m uint8
	for sys, br := range s.breakers {
		if br.State() == BreakerOpen {
			m |= plan.VetoBit(sys)
		}
	}
	return m
}

// planFor resolves the request's auto knobs through the planner and
// binds the pick. Fully explicit requests and cluster runs pass through
// untouched; planning errors (an unloadable dataset) surface to the
// caller before any queue slot is spent.
func (s *Server) planFor(v *resolved) error {
	if v.clustered() || (!v.autoEngine && !v.autoPlace) {
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
		Veto:       s.vetoMask(),
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
// learner. Only clean, isolated, full-fidelity runs teach the model:
// fault-injected, degraded or socket-sharing runs have simulated costs
// the model was never predicting.
func (s *Server) observePlan(v *resolved, lease *plan.Lease, simSeconds float64) {
	if v.planned == nil || s.cfg.DisableLearning || !v.reusable() {
		return
	}
	if lease != nil && !lease.Default() {
		return
	}
	s.plannerFor(v).Observe(v.planned, simSeconds)
	s.cfg.Tracer.HostInstant("serve", "plan-observe", obs.PidPlan, obs.NowMicros(), -1,
		fmt.Sprintf("%s predicted=%.3gs observed=%.3gs", v.planned.Pick, v.planned.Raw, simSeconds))
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
		out[fmt.Sprintf("%s/x%d", k.mach, k.cores)] = p.Snapshot()
	}
	return out
}

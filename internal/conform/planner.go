// Planner conformance: the cost-model planner must be invisible in the
// payload. Planning is deterministic — two independent planners given
// the same profile resolve the same pick — and a sole-tenant lease
// hands out a machine that is structurally identical to the explicit
// one (same topology, width, cores and physical socket map), so a run
// on it produces bit-identical values. This is what lets the serving
// layer share one result-cache entry between planned and explicit
// requests.
//
// The simulated clock is deliberately NOT part of the bit-identity
// claim: the engines' charge attribution is scheduling-dependent (in a
// sparse push phase, which thread's charger absorbs a contended CAS
// depends on real interleaving, and chaotic SSSP relaxation does
// scheduling-dependent amounts of work before converging), so two
// *explicit* runs of the same configuration already report different
// SimSeconds. What the planner owes is that it cannot widen that
// envelope — which follows from machine identity — so the clock check
// below is a coarse sanity bound that would catch a mis-wired lease
// (wrong width or degraded links), not a bit-equality assertion.

package conform

import (
	"fmt"
	"math"

	"polymer/internal/bench"
	"polymer/internal/graph"
	"polymer/internal/numa"
	"polymer/internal/plan"
)

// simEnvelope bounds |planned-explicit|/explicit on the simulated
// clock. The engines' own run-to-run attribution wobble measures ~0.5%
// normally and up to ~15% under the race detector's scheduler (chaotic
// SSSP relaxation); a mis-wired lease machine — wrong socket count,
// wrong placement — is off by 2x or more.
const simEnvelope = 0.30

// CheckPlanned profiles g, plans alg at the requested width, and runs
// the pick two ways: on the scheduler's sole-tenant leased machine (the
// planned path) and on numa.NewMachineChecked with the same knobs (the
// explicit path). It returns the first violation of determinism,
// machine identity, or value bit-identity, or nil.
func CheckPlanned(g *graph.Graph, alg bench.Algo, topo *numa.Topology, nodes, cores int) error {
	f := plan.Profile(g)
	if f2 := plan.Profile(g); f != f2 {
		return fmt.Errorf("conform: profile not deterministic: %+v vs %+v", f, f2)
	}
	q := plan.Query{Features: f, Alg: alg, Nodes: nodes}
	p1, p2 := plan.New(topo, cores), plan.New(topo, cores)
	d1, d2 := p1.Resolve(q), p2.Resolve(q)
	if d1.Pick != d2.Pick {
		return fmt.Errorf("conform: independent planners disagree: %s vs %s", d1.Pick, d2.Pick)
	}
	pick := d1.Pick
	placed := bench.Options{Layout: pick.Placement, LayoutSet: true}

	lease := p1.Scheduler().Acquire(pick.Nodes)
	defer lease.Release()
	if !lease.Default() {
		return fmt.Errorf("conform: sole-tenant lease for %d sockets not default", pick.Nodes)
	}
	lm, err := lease.Machine(cores)
	if err != nil {
		return fmt.Errorf("conform: lease machine: %w", err)
	}
	em, err := numa.NewMachineChecked(topo, pick.Nodes, cores)
	if err != nil {
		return fmt.Errorf("conform: explicit machine: %w", err)
	}

	// The machine-identity guarantee — fully deterministic. A sole-tenant
	// lease is the PickOrder prefix, and PickOrder is the same greedy
	// min-pairwise-hop selection NewMachineChecked runs, so the physical
	// socket maps must agree node for node.
	if lm.Topo.Name != em.Topo.Name || lm.Nodes != em.Nodes || lm.CoresPerNode != em.CoresPerNode {
		return fmt.Errorf("conform: lease machine %s/%dx%d != explicit %s/%dx%d",
			lm.Topo.Name, lm.Nodes, lm.CoresPerNode, em.Topo.Name, em.Nodes, em.CoresPerNode)
	}
	for n := 0; n < lm.Nodes; n++ {
		if lm.PhysicalSocket(n) != em.PhysicalSocket(n) {
			return fmt.Errorf("conform: lease machine node %d on socket %d, explicit on %d",
				n, lm.PhysicalSocket(n), em.PhysicalSocket(n))
		}
	}

	planned, err := bench.RunWith(pick.Engine, alg, g, lm, placed)
	if err != nil {
		return fmt.Errorf("conform: planned run: %w", err)
	}
	explicit, err := bench.RunWith(pick.Engine, alg, g, em, placed)
	if err != nil {
		return fmt.Errorf("conform: explicit run: %w", err)
	}
	if planned.Checksum != explicit.Checksum {
		return fmt.Errorf("conform: planned %s checksum %v != explicit %v",
			pick, planned.Checksum, explicit.Checksum)
	}
	if d := math.Abs(planned.SimSeconds - explicit.SimSeconds); d > simEnvelope*explicit.SimSeconds {
		return fmt.Errorf("conform: planned %s sim %v vs explicit %v — outside the %.0f%% engine envelope, lease machine mis-wired?",
			pick, planned.SimSeconds, explicit.SimSeconds, simEnvelope*100)
	}

	// Values must also be deterministic across reruns of the planned
	// path itself (a second lease machine, same lease).
	lm2, err := lease.Machine(cores)
	if err != nil {
		return fmt.Errorf("conform: lease machine (rerun): %w", err)
	}
	rerun, err := bench.RunWith(pick.Engine, alg, g, lm2, placed)
	if err != nil {
		return fmt.Errorf("conform: planned rerun: %w", err)
	}
	if rerun.Checksum != planned.Checksum {
		return fmt.Errorf("conform: planned %s checksum not deterministic: %v vs %v",
			pick, rerun.Checksum, planned.Checksum)
	}
	return nil
}

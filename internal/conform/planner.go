// Planner conformance: the cost-model planner must be invisible in the
// payload. Planning is deterministic — two independent planners given
// the same profile resolve the same pick — and a sole-tenant lease
// hands out a machine that is structurally identical to the explicit
// one (same topology, width, cores and physical socket map). A run is a
// function of its graph and machine, so the planned run reports the
// explicit run's values and simulated clock bit for bit. This is what
// lets the serving layer share one result-cache entry between planned
// and explicit requests.

package conform

import (
	"fmt"
	"math"

	"polymer/internal/bench"
	"polymer/internal/graph"
	"polymer/internal/numa"
	"polymer/internal/plan"
)

// CheckPlanned profiles g, plans alg at the requested width, and runs
// the pick two ways: on the scheduler's sole-tenant leased machine (the
// planned path) and on numa.NewMachineChecked with the same knobs (the
// explicit path). It returns the first violation of determinism,
// machine identity, or bit-identity of values and clock, or nil.
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
	if math.Float64bits(planned.SimSeconds) != math.Float64bits(explicit.SimSeconds) {
		return fmt.Errorf("conform: planned %s sim %x != explicit %x — lease machine mis-wired?",
			pick, planned.SimSeconds, explicit.SimSeconds)
	}

	// The planned path must also reproduce itself (a second lease
	// machine, same lease).
	lm2, err := lease.Machine(cores)
	if err != nil {
		return fmt.Errorf("conform: lease machine (rerun): %w", err)
	}
	rerun, err := bench.RunWith(pick.Engine, alg, g, lm2, placed)
	if err != nil {
		return fmt.Errorf("conform: planned rerun: %w", err)
	}
	if rerun.Checksum != planned.Checksum || math.Float64bits(rerun.SimSeconds) != math.Float64bits(planned.SimSeconds) {
		return fmt.Errorf("conform: planned %s not deterministic: checksum %v vs %v, sim %x vs %x",
			pick, rerun.Checksum, planned.Checksum, rerun.SimSeconds, planned.SimSeconds)
	}
	return nil
}

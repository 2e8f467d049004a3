// Planner conformance: the cost-model planner must be invisible in the
// payload. Planning is deterministic — two independent planners given
// the same profile resolve the same pick — and a planned run builds the
// machine an explicit request naming the pick builds. A run is a
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
// the pick twice, each on its own numa.NewMachineChecked machine: once as
// the planned path and once as the explicit request naming the same
// knobs. It returns the first violation of determinism or of
// bit-identity of values and clock, or nil.
func CheckPlanned(g *graph.Graph, alg bench.Algo, topo *numa.Topology, nodes, cores int) error {
	f := plan.Profile(g)
	if f2 := plan.Profile(g); f != f2 {
		return fmt.Errorf("conform: profile not deterministic: %+v vs %+v", f, f2)
	}
	q := plan.Query{Features: f, Alg: alg, Nodes: nodes}
	d1, d2 := plan.New(topo, cores).Resolve(q), plan.New(topo, cores).Resolve(q)
	if d1.Pick != d2.Pick {
		return fmt.Errorf("conform: independent planners disagree: %s vs %s", d1.Pick, d2.Pick)
	}
	pick := d1.Pick
	placed := bench.Options{Layout: pick.Placement, LayoutSet: true}

	run := func(path string) (bench.RunResult, error) {
		m, err := numa.NewMachineChecked(topo, pick.Nodes, cores)
		if err != nil {
			return bench.RunResult{}, fmt.Errorf("conform: %s machine: %w", path, err)
		}
		r, err := bench.RunWith(pick.Engine, alg, g, m, placed)
		if err != nil {
			return bench.RunResult{}, fmt.Errorf("conform: %s run: %w", path, err)
		}
		return r, nil
	}
	planned, err := run("planned")
	if err != nil {
		return err
	}
	explicit, err := run("explicit")
	if err != nil {
		return err
	}
	if planned.Checksum != explicit.Checksum {
		return fmt.Errorf("conform: planned %s checksum %v != explicit %v",
			pick, planned.Checksum, explicit.Checksum)
	}
	if math.Float64bits(planned.SimSeconds) != math.Float64bits(explicit.SimSeconds) {
		return fmt.Errorf("conform: planned %s sim %x != explicit %x",
			pick, planned.SimSeconds, explicit.SimSeconds)
	}
	return nil
}

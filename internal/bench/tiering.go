// The tiered-memory DRAM-fraction sweep: measure the flagship engine
// under shrinking DRAM budgets with the hot-vertex policy against the
// naive uniform-interleave baseline, on the same machine shape and the
// same graph. This is the experiment behind the "tiered memory" section
// of EXPERIMENTS.md (experiments -exp tier): hot placement must beat
// naive interleave on simulated time whenever at most half the footprint
// fits in DRAM.

package bench

import (
	"fmt"
	"strings"

	"polymer/internal/graph"
	"polymer/internal/numa"
)

// The sweep's one machine shape: Polymer co-located on intel80 at 4
// sockets x 2 cores.
const tierSockets, tierCores = 4, 2

// TierPoint is one tiered measurement: a (policy, DRAM-fraction) cell.
type TierPoint struct {
	SimSeconds float64
	// SlowRate is the slow tier's share of all simulated accesses.
	SlowRate float64
}

// TierRow is one (algorithm, DRAM fraction) sweep row: the untiered
// reference clock, both policies' measurements, and the headline ratio.
type TierRow struct {
	Algo Algo
	// Frac is the fraction of the untiered peak footprint provisioned as
	// DRAM (split evenly across nodes); DRAMPerNode the resulting budget.
	Frac        float64
	DRAMPerNode int64
	Untiered    float64
	Hot         TierPoint
	Interleave  TierPoint
	// HotSpeedup is Interleave.SimSeconds / Hot.SimSeconds: >1 means the
	// hot-vertex policy beat the naive baseline at this budget.
	HotSpeedup float64
}

// TierSweep is a full DRAM-fraction sweep on one graph.
type TierSweep struct {
	Graph    string
	Topology string
	Rows     []TierRow
}

// tieredRun measures one policy cell: a fresh machine armed with the
// tier config, the engine's native placement, and the run's clock plus
// slow-tier share.
func tieredRun(alg Algo, g *graph.Graph, topo *numa.Topology, tc numa.TierConfig) (TierPoint, error) {
	m := numa.NewMachine(topo, tierSockets, tierCores)
	if err := m.SetTierConfig(tc); err != nil {
		return TierPoint{}, err
	}
	r, err := RunWith(Polymer, alg, g, m, Options{})
	if err != nil {
		return TierPoint{}, err
	}
	return TierPoint{SimSeconds: r.SimSeconds, SlowRate: r.Stats.SlowRate}, nil
}

// RunTierSweep sweeps PR and BFS on g, named name, at 75%, 50% and 25%
// of the untiered peak footprint: for each algorithm an untiered probe
// establishes the peak footprint and reference clock, then each DRAM
// fraction is measured under both the hot-vertex policy (one promotion
// pass per phase) and the naive interleave baseline.
func RunTierSweep(name string, g *graph.Graph) (*TierSweep, error) {
	topo := numa.IntelXeon80()
	ts := &TierSweep{Graph: name, Topology: topo.Name}
	for _, alg := range []Algo{PR, BFS} {
		base, err := RunWith(Polymer, alg, g, numa.NewMachine(topo, tierSockets, tierCores), Options{})
		if err != nil {
			return nil, fmt.Errorf("bench: untiered %s probe: %w", alg, err)
		}
		for _, frac := range []float64{0.75, 0.5, 0.25} {
			dram := int64(frac * float64(base.PeakBytes) / float64(tierSockets))
			if dram < 1 {
				dram = 1
			}
			row := TierRow{Algo: alg, Frac: frac, DRAMPerNode: dram, Untiered: base.SimSeconds}
			hot := numa.TierConfig{DRAMPerNode: dram, Policy: numa.TierHot, PromoteEvery: 1}
			if row.Hot, err = tieredRun(alg, g, topo, hot); err != nil {
				return nil, fmt.Errorf("bench: tiered %s hot@%.2f: %w", alg, frac, err)
			}
			il := numa.TierConfig{DRAMPerNode: dram, Policy: numa.TierInterleave}
			if row.Interleave, err = tieredRun(alg, g, topo, il); err != nil {
				return nil, fmt.Errorf("bench: tiered %s interleave@%.2f: %w", alg, frac, err)
			}
			if row.Hot.SimSeconds > 0 {
				row.HotSpeedup = row.Interleave.SimSeconds / row.Hot.SimSeconds
			}
			ts.Rows = append(ts.Rows, row)
		}
	}
	return ts, nil
}

// Gate enforces the sweep's acceptance ordering, per row:
//
//   - a tiered run never beats the untiered clock (the slow tier can
//     only cost more), under either policy;
//   - whenever at most half the footprint fits in DRAM, the hot-vertex
//     policy strictly beats naive interleave for PR and BFS.
//
// The orderings hold whatever the calibration; TestTierSweepGolden pins
// every clock and slow rate bit for bit.
func (ts *TierSweep) Gate() error {
	var errs []string
	for _, r := range ts.Rows {
		if r.Hot.SimSeconds < r.Untiered || r.Interleave.SimSeconds < r.Untiered {
			errs = append(errs, fmt.Sprintf("%s@%.2f: tiered run beat the untiered clock (hot=%v il=%v untiered=%v)",
				r.Algo, r.Frac, r.Hot.SimSeconds, r.Interleave.SimSeconds, r.Untiered))
		}
		if r.Frac <= 0.5 && (r.Algo == PR || r.Algo == BFS) && r.Hot.SimSeconds >= r.Interleave.SimSeconds {
			errs = append(errs, fmt.Sprintf("%s@%.2f: hot policy (%v) did not beat naive interleave (%v)",
				r.Algo, r.Frac, r.Hot.SimSeconds, r.Interleave.SimSeconds))
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("tier sweep gate: %s", strings.Join(errs, "; "))
	}
	return nil
}

// FormatTierSweep renders the sweep as the aligned table the CLI
// prints.
func FormatTierSweep(ts *TierSweep) string {
	var b strings.Builder
	fmt.Fprintf(&b, "tier sweep: %s on %s (%dx%d), Polymer co-located\n", ts.Graph, ts.Topology, tierSockets, tierCores)
	fmt.Fprintf(&b, "%-6s %5s %14s %14s %9s %14s %9s %8s\n",
		"algo", "frac", "untiered", "hot", "slow%", "interleave", "slow%", "speedup")
	for _, r := range ts.Rows {
		fmt.Fprintf(&b, "%-6s %5.2f %14.9f %14.9f %8.1f%% %14.9f %8.1f%% %7.2fx\n",
			r.Algo, r.Frac, r.Untiered,
			r.Hot.SimSeconds, 100*r.Hot.SlowRate,
			r.Interleave.SimSeconds, 100*r.Interleave.SlowRate,
			r.HotSpeedup)
	}
	return b.String()
}

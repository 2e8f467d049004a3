// The tiered-memory DRAM-fraction sweep: measure the flagship engine
// under shrinking DRAM budgets with the hot-vertex policy against the
// naive uniform-interleave baseline, on the same machine shape and the
// same graph. This is the experiment behind the "tiered memory" section
// of EXPERIMENTS.md and the nightly tier-sweep CI gate: hot placement
// must beat naive interleave on simulated time whenever at most half
// the footprint fits in DRAM.

package bench

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"polymer/internal/graph"
	"polymer/internal/numa"
)

// TierPoint is one tiered measurement: a (policy, DRAM-fraction) cell.
type TierPoint struct {
	Policy     string  `json:"policy"`
	SimSeconds float64 `json:"sim_seconds"`
	// SlowRate is the slow tier's share of all simulated accesses.
	SlowRate float64 `json:"slow_rate"`
}

// TierRow is one (algorithm, DRAM fraction) sweep row: the untiered
// reference clock, both policies' measurements, and the headline ratio.
type TierRow struct {
	Algo Algo `json:"algo"`
	// Frac is the fraction of the untiered peak footprint provisioned as
	// DRAM (split evenly across nodes); DRAMPerNode the resulting budget.
	Frac        float64   `json:"frac"`
	DRAMPerNode int64     `json:"dram_per_node"`
	Untiered    float64   `json:"untiered_sec"`
	Hot         TierPoint `json:"hot"`
	Interleave  TierPoint `json:"interleave"`
	// HotSpeedup is Interleave.SimSeconds / Hot.SimSeconds: >1 means the
	// hot-vertex policy beat the naive baseline at this budget.
	HotSpeedup float64 `json:"hot_speedup"`
}

// TierSweep is a full DRAM-fraction sweep on one graph and machine
// shape.
type TierSweep struct {
	Description string    `json:"description"`
	Graph       string    `json:"graph"`
	Topology    string    `json:"topology"`
	Sockets     int       `json:"sockets"`
	Cores       int       `json:"cores"`
	Rows        []TierRow `json:"rows"`
}

// tieredRun measures one policy cell: a fresh machine armed with the
// tier config, the engine's native placement, and the run's clock plus
// slow-tier share.
func tieredRun(alg Algo, g *graph.Graph, topo *numa.Topology, sockets, cores int, tc numa.TierConfig) (TierPoint, error) {
	m := numa.NewMachine(topo, sockets, cores)
	if tc.Tiered() {
		if err := m.SetTierConfig(tc); err != nil {
			return TierPoint{}, err
		}
	}
	r, err := RunWith(Polymer, alg, g, m, Options{})
	if err != nil {
		return TierPoint{}, err
	}
	return TierPoint{Policy: tc.Policy.String(), SimSeconds: r.SimSeconds, SlowRate: r.Stats.SlowRate}, nil
}

// RunTierSweep sweeps algos x fracs on g: for each algorithm an
// untiered probe establishes the peak footprint and reference clock,
// then each DRAM fraction is measured under both the hot-vertex policy
// and the naive interleave baseline. promoteEvery <= 0 defaults to one
// promotion pass per phase.
func RunTierSweep(name string, g *graph.Graph, topo *numa.Topology, sockets, cores int, algos []Algo, fracs []float64, promoteEvery int) (*TierSweep, error) {
	if promoteEvery <= 0 {
		promoteEvery = 1
	}
	ts := &TierSweep{
		Description: "Polymer hot-vertex tiering vs naive interleave across DRAM fractions of the untiered peak footprint",
		Graph:       name,
		Topology:    topo.Name,
		Sockets:     sockets,
		Cores:       cores,
	}
	sorted := append([]float64(nil), fracs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	for _, alg := range algos {
		base, err := RunWith(Polymer, alg, g, numa.NewMachine(topo, sockets, cores), Options{})
		if err != nil {
			return nil, fmt.Errorf("bench: untiered %s probe: %w", alg, err)
		}
		for _, frac := range sorted {
			dram := int64(frac * float64(base.PeakBytes) / float64(sockets))
			if dram < 1 {
				dram = 1
			}
			row := TierRow{Algo: alg, Frac: frac, DRAMPerNode: dram, Untiered: base.SimSeconds}
			hot := numa.TierConfig{DRAMPerNode: dram, Policy: numa.TierHot, PromoteEvery: promoteEvery}
			if row.Hot, err = tieredRun(alg, g, topo, sockets, cores, hot); err != nil {
				return nil, fmt.Errorf("bench: tiered %s hot@%.2f: %w", alg, frac, err)
			}
			il := numa.TierConfig{DRAMPerNode: dram, Policy: numa.TierInterleave}
			if row.Interleave, err = tieredRun(alg, g, topo, sockets, cores, il); err != nil {
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
// The orderings compare two clocks from the same sweep, so they are
// robust to the statistical (non-bit-deterministic) scheduling noise of
// the traversal kernels.
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

// CompareTierBaseline checks the sweep against a checked-in baseline:
// every (algo, frac) cell present in both must retain at least tol of
// the baseline's hot-vs-interleave speedup (tol 0.8 = a 20% regression
// budget for model recalibrations).
func CompareTierBaseline(cur, base *TierSweep, tol float64) error {
	type key struct {
		a Algo
		f float64
	}
	idx := map[key]TierRow{}
	for _, r := range base.Rows {
		idx[key{r.Algo, r.Frac}] = r
	}
	var errs []string
	for _, r := range cur.Rows {
		b, ok := idx[key{r.Algo, r.Frac}]
		if !ok || b.HotSpeedup <= 0 {
			continue
		}
		if r.HotSpeedup < tol*b.HotSpeedup {
			errs = append(errs, fmt.Sprintf("%s@%.2f: hot speedup %.3f fell below %.0f%% of baseline %.3f",
				r.Algo, r.Frac, r.HotSpeedup, tol*100, b.HotSpeedup))
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("tier baseline: %s", strings.Join(errs, "; "))
	}
	return nil
}

// FormatTierSweep renders the sweep as the aligned table the CLI
// prints.
func FormatTierSweep(ts *TierSweep) string {
	var b strings.Builder
	fmt.Fprintf(&b, "tier sweep: %s on %s (%dx%d), Polymer co-located\n", ts.Graph, ts.Topology, ts.Sockets, ts.Cores)
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

// MarshalTierSweep renders the sweep as the JSON artifact the nightly
// job uploads and BENCH_tiering.json pins.
func MarshalTierSweep(ts *TierSweep) ([]byte, error) {
	out, err := json.MarshalIndent(ts, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

package conform

import (
	"fmt"
	"math"

	"polymer/internal/graph"
	"polymer/internal/numa"
)

// Tiered-memory conformance: tiering is strictly a cost-model concern —
// the tier split feeds the epoch ledger and nothing else — so a tiered
// run must compute the same VALUES as the untiered run, bit for bit, at
// every DRAM budget (a run is a function of its input; see
// TestRerunDeterminism). The CLOCK is pinned too: bit-identical to the
// untiered run when DRAM covers the whole footprint, inside
// TieredEnvelope when it does not.

// TieredEnvelope is the documented clock envelope for DRAM-constrained
// runs: a tiered run's simulated time must lie in
//
//	[untiered, untiered * TieredEnvelope]
//
// The lower bound is structural (every byte spilled to the slow tier
// costs at least its DRAM price; validated by the topology tables). The
// upper bound is conservative: the slow tier's worst table ratio is
// ~7x (random bandwidth on the AMD box), migration passes add bounded
// extra traffic, and the slow tier's own aggregate-bandwidth congestion
// can stack on top — 40x caps all of it with margin while still
// catching runaway double-charging bugs.
const TieredEnvelope = 40.0

// TieredBudget converts an untiered run's peak footprint into a
// per-node DRAM budget covering dramFrac of it. dramFrac >= 1 instead
// provisions the FULL peak on every node — deliberately overshooting so
// every demand class is wholly resident regardless of placement skew
// (the bit-identical-clock regime).
func TieredBudget(peak int64, nodes int, dramFrac float64) int64 {
	if dramFrac >= 1 {
		return peak
	}
	b := int64(dramFrac * float64(peak) / float64(nodes))
	if b < 1 {
		b = 1
	}
	return b
}

// CheckTiered runs the case untiered and again under pol with dramFrac
// of the untiered peak footprint as DRAM, and verifies the tiered run
// against the untiered one: values bit-identical at every budget, the
// clock bit-identical at full residency (dramFrac >= 1) and inside
// TieredEnvelope otherwise.
func CheckTiered(c Case, g *graph.Graph, pol numa.TierPolicy, dramFrac float64, promoteEvery int) error {
	c.TierPol, c.DRAMPerNode, c.PromoteEvery = numa.TierNone, 0, 0
	base := Run(c, g)

	tc := c
	tc.TierPol = pol
	tc.DRAMPerNode = TieredBudget(base.Peak, tc.nodes(), dramFrac)
	tc.PromoteEvery = promoteEvery
	if tc.DRAMPerNode <= 0 {
		return nil // zero-footprint case (empty graph): nothing to tier
	}
	got := Run(tc, g)

	if d := Compare(tc, Policy{Exact: true}, Normalize(c.Algo, base.Out), Normalize(c.Algo, got.Out)); d != nil {
		return fmt.Errorf("tiered values diverged from untiered (the tier split must never feed computation): %w", d)
	}

	if dramFrac >= 1 {
		if math.Float64bits(got.SimSeconds) != math.Float64bits(base.SimSeconds) {
			return fmt.Errorf("%s: full-DRAM tiered clock %v != untiered %v (must be bit-identical)",
				tc, got.SimSeconds, base.SimSeconds)
		}
		return nil
	}
	if got.SimSeconds < base.SimSeconds {
		return fmt.Errorf("%s: tiered clock %v < untiered %v (slow tier can only cost more)",
			tc, got.SimSeconds, base.SimSeconds)
	}
	if got.SimSeconds > base.SimSeconds*TieredEnvelope {
		return fmt.Errorf("%s: tiered clock %v exceeds envelope %v (= %v * %v)",
			tc, got.SimSeconds, base.SimSeconds*TieredEnvelope, base.SimSeconds, TieredEnvelope)
	}
	return nil
}

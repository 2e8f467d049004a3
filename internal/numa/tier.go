package numa

import (
	"fmt"
	"strings"
)

// Tiered memory: the machine model one hardware generation past the
// paper. Each node's memory splits into a fast tier (DRAM, the tables
// the paper measured) and a capacity tier (CXL/PMem-class "slow"
// memory) with its own sequential/random bandwidth and load/store
// latency rows — one more access class in exactly the sense of the
// paper's Section 2: same data, different cost depending on where it
// sits and how it is walked. Moura et al.'s AutoNUMA-tiering study
// (PAPERS.md) asks the paper's question on this substrate; the tier
// tables here are modelled on their DRAM-vs-CXL measurements.
//
// Tiering is strictly a cost-model concern: which tier a byte lives on
// changes only the simulated clock and the traffic classification,
// never a computed value. A machine with no TierConfig (or one whose
// DRAM capacity covers the whole footprint) charges bit-identically to
// the untiered substrate, including the clock — the conformance suite
// asserts exactly that.

// TierPolicy names a tier-aware placement policy. The semantics live in
// package mem (which computes residency); the machine records the
// policy so reports and provenance can name it.
type TierPolicy uint8

const (
	// TierNone means the machine is untiered (or tiering is disabled).
	TierNone TierPolicy = iota
	// TierInterleave is the naive baseline: pages stripe across DRAM and
	// the slow tier in proportion to capacity, so every access class
	// spills uniformly (what an unmanaged tiered system degenerates to).
	TierInterleave
	// TierHot places hot structures in DRAM first: frontier and runtime
	// state pinned, vertex state by descending degree rank, topology
	// last; counter-driven promotion/demotion refines the split online.
	TierHot
)

// String names the policy.
func (p TierPolicy) String() string {
	switch p {
	case TierInterleave:
		return "interleave"
	case TierHot:
		return "hot"
	default:
		return "none"
	}
}

// ParseTierPolicy maps a CLI/wire spelling to a policy.
func ParseTierPolicy(s string) (TierPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "none", "off":
		return TierNone, nil
	case "interleave", "interleaved", "naive":
		return TierInterleave, nil
	case "hot", "hot-vertex", "hotdegree", "hot-degree":
		return TierHot, nil
	}
	return TierNone, fmt.Errorf("numa: unknown tier policy %q (want none, interleave or hot)", s)
}

// TierConfig arms tiered memory on a Machine.
type TierConfig struct {
	// DRAMPerNode is each node's fast-tier capacity in bytes; <= 0 means
	// untiered (unbounded DRAM, today's substrate).
	DRAMPerNode int64
	// Policy selects the placement policy package mem applies.
	Policy TierPolicy
	// PromoteEvery is the number of committed phases between
	// promotion/demotion passes; 0 disables online migration.
	PromoteEvery int
	// PromoteFrac is the fraction of a node's DRAM capacity migrated per
	// pass (default 1/16 when a pass runs).
	PromoteFrac float64
}

// Tiered reports whether the config actually enables a slow tier.
func (tc TierConfig) Tiered() bool { return tc.DRAMPerNode > 0 && tc.Policy != TierNone }

// SetTierConfig arms (or, with a zero config, disarms) tiered memory.
// It must be called before the machine's epochs are created: the ledger
// shape depends on it. The topology must carry slow-tier tables.
func (m *Machine) SetTierConfig(tc TierConfig) error {
	if !tc.Tiered() {
		m.tier = TierConfig{}
		return nil
	}
	if len(m.Topo.SlowSeqBW) == 0 {
		return fmt.Errorf("numa: topology %q has no slow-tier tables", m.Topo.Name)
	}
	if tc.PromoteFrac <= 0 || tc.PromoteFrac > 1 {
		tc.PromoteFrac = 1.0 / 16
	}
	m.tier = tc
	if m.ilSlowSeqBW == nil {
		m.ilSlowSeqBW = make([]float64, m.Nodes)
		m.ilSlowRandBW = make([]float64, m.Nodes)
		t := m.Topo
		for i := 0; i < m.Nodes; i++ {
			var seqInv, randInv float64
			for j := 0; j < m.Nodes; j++ {
				lvl := m.Level(i, j)
				seqInv += 1 / t.SlowSeqBW[lvl]
				randInv += 1 / t.SlowRandBW[lvl]
			}
			m.ilSlowSeqBW[i] = float64(m.Nodes) / seqInv
			m.ilSlowRandBW[i] = float64(m.Nodes) / randInv
		}
	}
	return nil
}

// TierConfig returns the armed tier configuration (zero when untiered).
func (m *Machine) TierConfig() TierConfig { return m.tier }

// Tiered reports whether the machine has a slow tier armed.
func (m *Machine) Tiered() bool { return m.tier.Tiered() }

// tiers returns the number of access-class banks in the ledger: 1 for
// an untiered machine, 2 (DRAM rows then slow rows) when tiered.
func (m *Machine) tiers() int {
	if m.Tiered() {
		return 2
	}
	return 1
}

// InterleavedSlowBW returns the effective slow-tier sequential and
// random bandwidths a thread on the given node sees against pages
// interleaved across the active nodes' slow tiers.
func (m *Machine) InterleavedSlowBW(node int) (seq, rand float64) {
	return m.ilSlowSeqBW[node], m.ilSlowRandBW[node]
}

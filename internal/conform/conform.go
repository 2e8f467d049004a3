// Package conform is the cross-engine conformance harness: the safety
// net asserting that every engine computes the same answer on the same
// graph, that the answers are invariant under semantics-preserving
// transformations, and that the simulated NUMA substrate conserves its
// accounting exactly.
//
// It is organised in three tiers:
//
//   - Differential oracle: every algorithm x every engine x both
//     topologies against the sequential Ref* implementations, with
//     per-algorithm tolerance policies (exact for traversals,
//     ULP-bounded for float kernels).
//   - Metamorphic properties: vertex-relabeling invariance, partition-
//     count independence, re-run determinism, SpMV scaling linearity,
//     and fault-injected replay = fault-free output.
//   - Substrate invariants: traffic-matrix conservation, rollback
//     residue, frontier degree-cache consistency, checkpoint
//     round-trips.
//
// The same machinery backs the table-driven test suites (here and in
// each engine package) and the cmd/conform CLI with its shrinking
// reducer.
package conform

import (
	"fmt"
	"math"

	"polymer/internal/numa"
)

// Engine names one of the four evaluated engines.
type Engine string

// The four engines of the paper's evaluation.
const (
	Polymer Engine = "polymer"
	Ligra   Engine = "ligra"
	XStream Engine = "xstream"
	Galois  Engine = "galois"
)

// Engines lists all four.
func Engines() []Engine { return []Engine{Polymer, Ligra, XStream, Galois} }

// Algo names one of the seven conformance algorithms: the paper's six
// plus the convergence-driven PageRankDelta.
type Algo string

// The conformance algorithm set.
const (
	PR      Algo = "pr"
	PRDelta Algo = "prdelta"
	SpMV    Algo = "spmv"
	BP      Algo = "bp"
	BFS     Algo = "bfs"
	CC      Algo = "cc"
	SSSP    Algo = "sssp"
)

// Algos lists all seven.
func Algos() []Algo { return []Algo{PR, PRDelta, SpMV, BP, BFS, CC, SSSP} }

// Weighted reports whether the algorithm consumes edge weights.
func (a Algo) Weighted() bool { return a == SpMV || a == SSSP || a == BP }

// Topo names a simulated machine topology.
type Topo string

// The paper's two evaluation machines.
const (
	Intel80 Topo = "intel80"
	AMD64   Topo = "amd64"
)

// Topos lists both.
func Topos() []Topo { return []Topo{Intel80, AMD64} }

// Topology resolves the named topology.
func (t Topo) Topology() *numa.Topology {
	switch t {
	case Intel80:
		return numa.IntelXeon80()
	case AMD64:
		return numa.AMDOpteron64()
	}
	panic(fmt.Sprintf("conform: unknown topology %q", t))
}

// Policy is a per-algorithm tolerance for comparing one output value
// against the oracle: Exact demands bit equality; otherwise values agree
// when within ULPs units in the last place or within Abs absolutely
// (either suffices — Abs covers values at or near zero, where a fixed
// ULP budget is meaninglessly tight).
type Policy struct {
	Exact bool
	ULPs  int64
	Abs   float64
}

// PolicyFor returns the conformance tolerance for an algorithm.
//
//   - BFS levels and CC labels are integers: exact.
//   - SSSP distances are per-path ordered sums, identical in every
//     engine up to the relaxation order, which cannot change the fixed
//     point: a token ULP budget.
//   - PR, SpMV and BP accumulate float sums whose association order
//     differs between engines: a ULP budget wide enough for
//     reassociation over the test graphs yet ~1e5x tighter than the old
//     ad-hoc 1e-9 relative checks.
//   - PRDelta converges by a different route than power iteration, so it
//     is compared absolutely at just below its convergence floor
//     (eps/(1-d) mass still in flight at eps=1e-10).
func PolicyFor(a Algo) Policy {
	switch a {
	case BFS, CC:
		return Policy{Exact: true}
	case SSSP:
		return Policy{ULPs: 4}
	case PRDelta:
		return Policy{Abs: 1e-6}
	default: // PR, SpMV, BP
		return Policy{ULPs: 1 << 20, Abs: 1e-12}
	}
}

// Relaxed widens a float policy for comparisons across different
// summation orders (permuted vertex ids, different partition counts),
// where reassociation error compounds beyond the same-order budget.
// Exact policies stay exact: integer outputs do not reassociate.
func (p Policy) Relaxed() Policy {
	if p.Exact {
		return p
	}
	r := Policy{ULPs: p.ULPs * 16, Abs: p.Abs}
	if r.ULPs < 1<<12 {
		r.ULPs = 1 << 12
	}
	if r.Abs < 1e-9 {
		r.Abs = 1e-9
	}
	return r
}

// Equal reports whether got conforms to want under the policy.
func (p Policy) Equal(want, got float64) bool {
	if p.Exact {
		return math.Float64bits(want) == math.Float64bits(got)
	}
	if want == got { // covers +-Inf and exact matches
		return true
	}
	if math.Abs(want-got) <= p.Abs {
		return true
	}
	return ulpDiff(want, got) <= p.ULPs
}

// ulpDiff returns the distance between two floats in units in the last
// place, using the lexicographic ordering of IEEE-754 bit patterns.
// NaNs and mismatched infinities are infinitely far apart.
func ulpDiff(a, b float64) int64 {
	if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		if a == b {
			return 0
		}
		return math.MaxInt64
	}
	ia, ib := orderedBits(a), orderedBits(b)
	if ia < ib {
		ia, ib = ib, ia
	}
	d := ia - ib
	if d > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(d)
}

// orderedBits maps a float64 onto a monotonically ordered uint64 line
// (the usual sign-magnitude to biased mapping; -0 and +0 are adjacent).
func orderedBits(f float64) uint64 {
	b := math.Float64bits(f)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}

// Divergence reports one conformance failure: the first vertex at which
// an output departed from the oracle under the case's policy.
type Divergence struct {
	Case   Case
	Vertex int
	Want   float64
	Got    float64
}

// Error formats the divergence; *Divergence satisfies error so harness
// layers can propagate it.
func (d *Divergence) Error() string {
	return fmt.Sprintf("%s: vertex %d: got %v, want %v", d.Case, d.Vertex, d.Got, d.Want)
}

// Compare checks got against want under the policy and returns the
// first divergence, or nil. A length mismatch diverges at the first
// missing vertex.
func Compare(c Case, p Policy, want, got []float64) *Divergence {
	n := len(want)
	if len(got) != n {
		return &Divergence{Case: c, Vertex: min(len(want), len(got)), Want: float64(len(want)), Got: float64(len(got))}
	}
	for v := 0; v < n; v++ {
		if !p.Equal(want[v], got[v]) {
			return &Divergence{Case: c, Vertex: v, Want: want[v], Got: got[v]}
		}
	}
	return nil
}

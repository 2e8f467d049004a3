// Package partition splits a graph's vertex space into contiguous
// per-node ranges.
//
// Polymer co-locates data and computation, so the partitioning decides the
// per-node workload. The paper's Section 5 contrasts the natural
// vertex-balanced split (equal vertex counts) with an edge-oriented
// balanced split inspired by vertex-cuts: choose vertex ranges
// V1..VN minimising the deviation of per-range degree sums, because the
// scatter/gather cost is linear in edges, not vertices. For skewed
// (power-law) graphs the difference is dramatic (paper Figure 11).
package partition

import (
	"fmt"
	"math"

	"polymer/internal/graph"
)

// Range is a half-open contiguous vertex interval [Lo, Hi).
type Range struct{ Lo, Hi int }

// Len returns the number of vertices in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Contains reports whether v falls in the range.
func (r Range) Contains(v graph.Vertex) bool { return int(v) >= r.Lo && int(v) < r.Hi }

// String formats the range.
func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }

// Bounds converts ranges into the bounds form used by mem.New:
// parts+1 offsets covering [0, n).
func Bounds(ranges []Range) []int {
	b := make([]int, len(ranges)+1)
	for i, r := range ranges {
		b[i] = r.Lo
		b[i+1] = r.Hi
	}
	return b
}

// VertexBalanced splits [0, n) into parts ranges of (near-)equal vertex
// count — the default partitioning the paper ablates against.
func VertexBalanced(n, parts int) []Range {
	if parts <= 0 {
		panic("partition: parts must be positive")
	}
	out := make([]Range, parts)
	for p := 0; p < parts; p++ {
		out[p] = Range{Lo: n * p / parts, Hi: n * (p + 1) / parts}
	}
	return out
}

// Direction selects which degree an edge-balanced split equalises. The
// paper notes it is hard to balance both at once, and that Polymer only
// needs the direction its execution mode uses (Section 5).
type Direction uint8

const (
	// Out balances out-degree sums (pull-mode layouts).
	Out Direction = iota
	// In balances in-degree sums (push-mode layouts, where edges are
	// grouped by target).
	In
)

// EdgeBalanced splits [0, n) into parts contiguous ranges whose degree
// sums in the given direction are as even as possible. It walks the prefix
// sums of degrees, cutting as close to each i*m/parts boundary as
// possible.
func EdgeBalanced(g *graph.Graph, parts int, dir Direction) []Range {
	if parts <= 0 {
		panic("partition: parts must be positive")
	}
	n := g.NumVertices()
	deg := func(v graph.Vertex) int64 {
		if dir == Out {
			return g.OutDegree(v)
		}
		return g.InDegree(v)
	}
	var total int64
	for v := 0; v < n; v++ {
		total += deg(graph.Vertex(v))
	}
	out := make([]Range, parts)
	v := 0
	var acc int64
	for p := 0; p < parts; p++ {
		lo := v
		target := total * int64(p+1) / int64(parts)
		for v < n && acc < target {
			acc += deg(graph.Vertex(v))
			v++
		}
		// If excluding the boundary vertex lands closer to the target,
		// back off one step (heavy vertices otherwise skew the cut).
		if v > lo {
			last := deg(graph.Vertex(v - 1))
			if acc-target > target-(acc-last) {
				acc -= last
				v--
			}
		}
		out[p] = Range{Lo: lo, Hi: v}
	}
	out[parts-1].Hi = n
	return out
}

// Epsilon is how far a mutation lineage lets what it inherits drift: a
// snapshot keeps its predecessor's edge-balanced ranges while their
// heaviest part stays within 1+Epsilon of a fresh split's (Sticky), and
// the serving layer keeps a lineage's planner profile while the ops
// committed since it stay within Epsilon of the edge count.
const Epsilon = 0.05

// Balanced is an edge-balanced split as a lineage holds it: the ranges
// and the mutation sequence number of the snapshot they were balanced on.
type Balanced struct {
	Ranges []Range
	Seq    uint64
}

// Sticky returns g's edge-balanced split into parts ranges in direction
// dir (do not modify it). A snapshot that graph.Patch made inherits its
// predecessor's split while, on the new snapshot, the heaviest of its
// ranges holds at most 1+Epsilon times the edges of the heaviest range of
// a fresh EdgeBalanced split; past that it takes the fresh split. A base
// graph and a lineage's first snapshot get the fresh split, EdgeBalanced
// exactly. Ranges a snapshot keeps are the ones its layouts are keyed by,
// so keeping them is what lets the layouts be patched too. It reports
// whether this call inherited the split or balanced it afresh; neither
// when g already held it.
func Sticky(g *graph.Graph, parts int, dir Direction) (b *Balanced, inherited, balanced bool) {
	key := fmt.Sprintf("partition.balanced parts=%d dir=%d", parts, dir)
	b = graph.Derived(g, key, func(root *graph.Graph) *Balanced {
		balanced = true
		return &Balanced{EdgeBalanced(root, parts, dir), root.Seq()}
	}, func(prev *Balanced, root *graph.Graph, _, _ []graph.Edge) *Balanced {
		fresh := EdgeBalanced(root, parts, dir)
		if float64(heaviest(root, prev.Ranges, dir)) <= (1+Epsilon)*float64(heaviest(root, fresh, dir)) {
			inherited = true
			return prev
		}
		balanced = true
		return &Balanced{fresh, root.Seq()}
	})
	return b, inherited, balanced
}

// heaviest returns the largest degree sum in direction dir of any range:
// a difference of two degree prefix sums per range.
func heaviest(g *graph.Graph, ranges []Range, dir Direction) int64 {
	before := g.OutEdgesBefore
	if dir == In {
		before = g.InEdgesBefore
	}
	var most int64
	for _, r := range ranges {
		most = max(most, before(r.Hi)-before(r.Lo))
	}
	return most
}

// Stats summarises partition balance for the paper's Figure 11(a).
type Stats struct {
	// EdgesPer holds the degree sum of each partition.
	EdgesPer []int64
	// NormDiff holds (edges_p - mean) / mean for each partition.
	NormDiff []float64
	// MaxAbsNormDiff is the worst absolute normalised deviation.
	MaxAbsNormDiff float64
}

// Measure computes balance statistics for ranges under direction dir.
func Measure(g *graph.Graph, ranges []Range, dir Direction) Stats {
	s := Stats{
		EdgesPer: make([]int64, len(ranges)),
		NormDiff: make([]float64, len(ranges)),
	}
	var total int64
	for p, r := range ranges {
		for v := r.Lo; v < r.Hi; v++ {
			if dir == Out {
				s.EdgesPer[p] += g.OutDegree(graph.Vertex(v))
			} else {
				s.EdgesPer[p] += g.InDegree(graph.Vertex(v))
			}
		}
		total += s.EdgesPer[p]
	}
	mean := float64(total) / float64(len(ranges))
	for p := range ranges {
		if mean > 0 {
			s.NormDiff[p] = (float64(s.EdgesPer[p]) - mean) / mean
		}
		if d := math.Abs(s.NormDiff[p]); d > s.MaxAbsNormDiff {
			s.MaxAbsNormDiff = d
		}
	}
	return s
}

// Validate checks that ranges exactly cover [0, n) without overlap.
func Validate(ranges []Range, n int) error {
	if len(ranges) == 0 {
		return fmt.Errorf("partition: no ranges")
	}
	if ranges[0].Lo != 0 {
		return fmt.Errorf("partition: first range starts at %d", ranges[0].Lo)
	}
	for i := 1; i < len(ranges); i++ {
		if ranges[i].Lo != ranges[i-1].Hi {
			return fmt.Errorf("partition: gap/overlap at range %d", i)
		}
	}
	if ranges[len(ranges)-1].Hi != n {
		return fmt.Errorf("partition: last range ends at %d, want %d", ranges[len(ranges)-1].Hi, n)
	}
	return nil
}

// NodeOf returns the index of the range containing v (binary search).
func NodeOf(ranges []Range, v graph.Vertex) int {
	lo, hi := 0, len(ranges)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if ranges[mid].Hi <= int(v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

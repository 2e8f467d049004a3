package partition

import (
	"testing"
	"testing/quick"

	"polymer/internal/gen"
	"polymer/internal/graph"
)

func TestVertexBalancedCovers(t *testing.T) {
	f := func(nRaw, pRaw uint16) bool {
		n := int(nRaw) % 1000
		parts := 1 + int(pRaw)%8
		r := VertexBalanced(n, parts)
		if Validate(r, n) != nil {
			return false
		}
		// Sizes differ by at most one.
		min, max := n, 0
		for _, rg := range r {
			if rg.Len() < min {
				min = rg.Len()
			}
			if rg.Len() > max {
				max = rg.Len()
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeBalancedCoversProperty(t *testing.T) {
	n, edges := gen.Powerlaw(2000, 8, 2.0, 7)
	g := graph.FromEdges(n, edges, false)
	for parts := 1; parts <= 8; parts++ {
		for _, dir := range []Direction{Out, In} {
			r := EdgeBalanced(g, parts, dir)
			if err := Validate(r, n); err != nil {
				t.Fatalf("parts=%d dir=%d: %v", parts, dir, err)
			}
		}
	}
}

func TestEdgeBalancedBeatsVertexBalancedOnSkew(t *testing.T) {
	// This is the paper's Figure 11(a): on a power-law graph, vertex
	// partitioning leaves edges badly imbalanced while edge partitioning
	// keeps the normalised deviation small.
	n, edges := gen.Powerlaw(20000, 10, 2.0, 42)
	g := graph.FromEdges(n, edges, false)
	const parts = 8
	vb := Measure(g, VertexBalanced(n, parts), Out)
	eb := Measure(g, EdgeBalanced(g, parts, Out), Out)
	if !(eb.MaxAbsNormDiff < vb.MaxAbsNormDiff) {
		t.Fatalf("edge-balanced (%.3f) must beat vertex-balanced (%.3f)",
			eb.MaxAbsNormDiff, vb.MaxAbsNormDiff)
	}
	if eb.MaxAbsNormDiff > 0.25 {
		t.Fatalf("edge-balanced deviation %.3f too large", eb.MaxAbsNormDiff)
	}
}

func TestEdgeBalancedDegreeSums(t *testing.T) {
	n, edges := gen.RMAT(11, 8, 3)
	g := graph.FromEdges(n, edges, false)
	r := EdgeBalanced(g, 4, In)
	s := Measure(g, r, In)
	var total int64
	for _, e := range s.EdgesPer {
		total += e
	}
	if total != g.NumEdges() {
		t.Fatalf("partition edge sums %d != |E| %d", total, g.NumEdges())
	}
}

func TestNodeOf(t *testing.T) {
	ranges := []Range{{0, 10}, {10, 10}, {10, 35}, {35, 100}}
	cases := map[graph.Vertex]int{0: 0, 9: 0, 10: 2, 34: 2, 35: 3, 99: 3}
	for v, want := range cases {
		if got := NodeOf(ranges, v); got != want {
			t.Fatalf("NodeOf(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestNodeOfAgreesWithContains(t *testing.T) {
	n, edges := gen.Uniform(500, 2000, 1)
	g := graph.FromEdges(n, edges, false)
	r := EdgeBalanced(g, 7, Out)
	f := func(vRaw uint16) bool {
		v := graph.Vertex(int(vRaw) % n)
		return r[NodeOf(r, v)].Contains(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBounds(t *testing.T) {
	r := []Range{{0, 5}, {5, 12}, {12, 20}}
	b := Bounds(r)
	want := []int{0, 5, 12, 20}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("Bounds = %v, want %v", b, want)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	if Validate(nil, 0) == nil {
		t.Fatal("empty ranges must fail")
	}
	if Validate([]Range{{1, 5}}, 5) == nil {
		t.Fatal("non-zero start must fail")
	}
	if Validate([]Range{{0, 3}, {4, 5}}, 5) == nil {
		t.Fatal("gap must fail")
	}
	if Validate([]Range{{0, 3}, {3, 4}}, 5) == nil {
		t.Fatal("short cover must fail")
	}
}

func TestPartsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("VertexBalanced with 0 parts must panic")
		}
	}()
	VertexBalanced(10, 0)
}

func TestRangeString(t *testing.T) {
	if (Range{2, 7}).String() != "[2,7)" {
		t.Fatal("Range.String mismatch")
	}
}

func TestSinglePartition(t *testing.T) {
	n, edges := gen.Chain(100)
	g := graph.FromEdges(n, edges, false)
	r := EdgeBalanced(g, 1, Out)
	if len(r) != 1 || r[0].Lo != 0 || r[0].Hi != n {
		t.Fatalf("single partition = %v", r)
	}
	s := Measure(g, r, Out)
	if s.MaxAbsNormDiff != 0 {
		t.Fatal("single partition has zero deviation")
	}
}

func TestMorePartsThanVertices(t *testing.T) {
	n, edges := gen.Chain(3)
	g := graph.FromEdges(n, edges, false)
	r := EdgeBalanced(g, 8, Out)
	if err := Validate(r, n); err != nil {
		t.Fatal(err)
	}
}

// TestStickyInheritsWithinEpsilon drives a lineage in both directions with
// batches that all land in part 0 (its targets for In, its sources for
// Out). While the inherited split's heaviest part stays within 1+Epsilon of
// a fresh split's, each snapshot keeps its predecessor's ranges bit for
// bit; the first batch past that takes the fresh EdgeBalanced split, on
// its own sequence number.
func TestStickyInheritsWithinEpsilon(t *testing.T) {
	const parts = 4
	n, edges := gen.Powerlaw(2000, 8, 2.0, 11)
	for _, dir := range []Direction{In, Out} {
		g := graph.FromEdges(n, edges, false)
		g.MarkHead(1)
		first, inherited, balanced := Sticky(g, parts, dir)
		if !sameRanges(first.Ranges, EdgeBalanced(g, parts, dir)) || first.Seq != 1 || inherited || !balanced {
			t.Fatalf("dir %d: a lineage's first snapshot got %v at seq %d (inherited %t, balanced %t), not the fresh split",
				dir, first.Ranges, first.Seq, inherited, balanced)
		}
		if again, inherited, balanced := Sticky(g, parts, dir); again != first || inherited || balanced {
			t.Fatalf("dir %d: asked again, the snapshot made its split anew (inherited %t, balanced %t)", dir, inherited, balanced)
		}
		hot := first.Ranges[0]
		rng := gen.NewRNG(uint64(dir) + 3)
		prev, kept := first, 0
		for seq := uint64(2); ; seq++ {
			if seq > 200 {
				t.Fatalf("dir %d: 200 batches into part 0 never crossed Epsilon", dir)
			}
			batch := make([]graph.Edge, 32)
			for i := range batch {
				far, near := graph.Vertex(rng.Intn(n)), graph.Vertex(hot.Lo+rng.Intn(hot.Len()))
				batch[i] = graph.Edge{Src: far, Dst: near}
				if dir == Out {
					batch[i] = graph.Edge{Src: near, Dst: far}
				}
			}
			g = g.Patch(nil, batch)
			g.MarkHead(seq)
			fresh := EdgeBalanced(g, parts, dir)
			b, inherited, balanced := Sticky(g, parts, dir)
			within := float64(heaviest(g, prev.Ranges, dir)) <= (1+Epsilon)*float64(heaviest(g, fresh, dir))
			if inherited != within || balanced == within {
				t.Fatalf("dir %d seq %d: within Epsilon %t, but inherited %t and balanced %t", dir, seq, within, inherited, balanced)
			}
			if within {
				if b != prev || !sameRanges(b.Ranges, first.Ranges) || b.Seq != 1 {
					t.Fatalf("dir %d seq %d: within Epsilon but got %v from seq %d, want the inherited %v", dir, seq, b.Ranges, b.Seq, first.Ranges)
				}
				kept++
				continue
			}
			if !sameRanges(b.Ranges, fresh) || b.Seq != seq {
				t.Fatalf("dir %d seq %d: past Epsilon but got %v from seq %d, want the fresh %v", dir, seq, b.Ranges, b.Seq, fresh)
			}
			break
		}
		if kept == 0 {
			t.Fatalf("dir %d: the first batch already crossed Epsilon; nothing was inherited", dir)
		}
	}
}

func sameRanges(a, b []Range) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Edge-case tests for the partitioners: empty shards, single-vertex and
// empty graphs, more shards than vertices, and byte-for-byte determinism
// across runs — the properties engine layouts and their rebuilds lean on.

package partition

import (
	"math"
	"reflect"
	"testing"

	"polymer/internal/gen"
	"polymer/internal/graph"
)

// tinyGraph is a 3-vertex line with a heavy middle vertex.
func tinyGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return graph.FromEdges(3, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 1, Dst: 0}, {Src: 2, Dst: 1},
	}, false)
}

func TestEmptyShardsWhenPartsExceedVertices(t *testing.T) {
	g := tinyGraph(t)
	for _, parts := range []int{4, 8, 17} {
		for name, ranges := range map[string][]Range{
			"vertex": VertexBalanced(g.NumVertices(), parts),
			"edge":   EdgeBalanced(g, parts, In),
		} {
			if len(ranges) != parts {
				t.Fatalf("%s/%d: %d ranges", name, parts, len(ranges))
			}
			if err := Validate(ranges, g.NumVertices()); err != nil {
				t.Fatalf("%s/%d: %v", name, parts, err)
			}
			empty := 0
			for _, r := range ranges {
				if r.Len() == 0 {
					empty++
				}
			}
			if empty < parts-g.NumVertices() {
				t.Fatalf("%s/%d: only %d empty ranges for 3 vertices", name, parts, empty)
			}
			// Every vertex still routes to the range that contains it,
			// empty shards notwithstanding.
			for v := 0; v < g.NumVertices(); v++ {
				p := NodeOf(ranges, graph.Vertex(v))
				if !ranges[p].Contains(graph.Vertex(v)) {
					t.Fatalf("%s/%d: NodeOf(%d) = %d (%s), doesn't contain it", name, parts, v, p, ranges[p])
				}
			}
		}
	}
}

func TestSingleVertexGraph(t *testing.T) {
	g := graph.FromEdges(1, nil, false)
	ranges := EdgeBalanced(g, 4, Out)
	if err := Validate(ranges, 1); err != nil {
		t.Fatal(err)
	}
	// With no edges every shard is empty except the forced tail; the lone
	// vertex must still route to whichever shard contains it.
	if p := NodeOf(ranges, 0); !ranges[p].Contains(0) {
		t.Fatalf("NodeOf(0) = %d (%s) in %v", p, ranges[p], ranges)
	}
	// Measure over edgeless shards must stay finite — no 0/0 NaNs leak
	// into the balance stats.
	st := Measure(g, ranges, Out)
	if st.MaxAbsNormDiff != 0 {
		t.Fatalf("MaxAbsNormDiff = %v, want 0 on an edgeless graph", st.MaxAbsNormDiff)
	}
	for _, d := range st.NormDiff {
		if math.IsNaN(d) || math.IsInf(d, 0) {
			t.Fatalf("NormDiff = %v on an edgeless graph", st.NormDiff)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.FromEdges(0, nil, false)
	for name, ranges := range map[string][]Range{
		"vertex": VertexBalanced(0, 3),
		"edge":   EdgeBalanced(g, 3, In),
	} {
		if err := Validate(ranges, 0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, r := range ranges {
			if r.Len() != 0 {
				t.Fatalf("%s: nonempty range %s over an empty vertex space", name, r)
			}
		}
		b := Bounds(ranges)
		if len(b) != 4 || b[0] != 0 || b[3] != 0 {
			t.Fatalf("%s: bounds = %v", name, b)
		}
	}
}

func TestPartitionDeterminism(t *testing.T) {
	// Same dataset, two independent loads: a restarted run and a cold
	// engine recompute their layouts, so the split must be a pure
	// function of the graph for their bits to match.
	g1, err := gen.Load(gen.PowerLaw, gen.Tiny, false)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := gen.Load(gen.PowerLaw, gen.Tiny, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{1, 2, 5, 8} {
		for _, dir := range []Direction{Out, In} {
			a := EdgeBalanced(g1, parts, dir)
			b := EdgeBalanced(g2, parts, dir)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("parts=%d dir=%d: %v != %v", parts, dir, a, b)
			}
			if err := Validate(a, g1.NumVertices()); err != nil {
				t.Fatalf("parts=%d dir=%d: %v", parts, dir, err)
			}
		}
		if a, b := VertexBalanced(g1.NumVertices(), parts), VertexBalanced(g2.NumVertices(), parts); !reflect.DeepEqual(a, b) {
			t.Fatalf("VertexBalanced parts=%d nondeterministic", parts)
		}
	}
}

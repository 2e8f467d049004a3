package core

import (
	"testing"

	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/partition"
)

type edgeKey struct{ s, t graph.Vertex }

// collectLayoutEdges reassembles the (source, target) pairs stored in a
// layout. In push layouts, rows are sources and columns targets; in pull
// layouts the reverse.
func collectLayoutEdges(l *layoutBuild, push bool) map[edgeKey]int {
	out := make(map[edgeKey]int)
	for p := range l.perNode {
		nl := &l.perNode[p]
		for r := range nl.IDs {
			key := nl.IDs[r]
			for j := nl.Idx[r]; j < nl.Idx[r+1]; j++ {
				col := nl.Cols[j]
				if push {
					out[edgeKey{key, col}]++
				} else {
					out[edgeKey{col, key}]++
				}
			}
		}
	}
	return out
}

func graphEdges(g *graph.Graph) map[edgeKey]int {
	out := make(map[edgeKey]int)
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.OutNeighbors(graph.Vertex(v)) {
			out[edgeKey{graph.Vertex(v), u}]++
		}
	}
	return out
}

func sameEdgeMultiset(t *testing.T, a, b map[edgeKey]int) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("edge sets differ in size: %d vs %d", len(a), len(b))
	}
	for k, c := range a {
		if b[k] != c {
			t.Fatalf("edge %v count %d vs %d", k, c, b[k])
		}
	}
}

func TestLayoutPreservesAllEdges(t *testing.T) {
	n, edges := gen.RMAT(9, 8, 2)
	g := graph.FromEdges(n, edges, false)
	parts := partition.VertexBalanced(n, 4)
	for _, push := range []bool{true, false} {
		l := buildLayout(g, parts, push)
		sameEdgeMultiset(t, graphEdges(g), collectLayoutEdges(l, push))
	}
}

func TestLayoutColumnsAreLocal(t *testing.T) {
	n, edges := gen.Uniform(300, 2000, 4)
	g := graph.FromEdges(n, edges, false)
	parts := partition.VertexBalanced(n, 3)
	for _, push := range []bool{true, false} {
		l := buildLayout(g, parts, push)
		for p := range l.perNode {
			nl := &l.perNode[p]
			for _, col := range nl.Cols {
				if !parts[p].Contains(col) {
					t.Fatalf("push=%t node %d holds foreign column %d", push, p, col)
				}
			}
		}
	}
}

// ownerPartitions are the partitions the owner tests cut a graph of n
// vertices into: balanced, and with an empty node in the middle.
func ownerPartitions(n int) map[string][]partition.Range {
	return map[string][]partition.Range{
		"balanced":    partition.VertexBalanced(n, 4),
		"empty-node1": {{Lo: 0, Hi: n / 3}, {Lo: n / 3, Hi: n / 3}, {Lo: n / 3, Hi: n / 2}, {Lo: n / 2, Hi: n}},
	}
}

// Row keys ascend, and OwnerRows delimits each owner's run of them: row r
// lies in [OwnerRows[o], OwnerRows[o+1]) exactly when its key lies in
// partition o.
func TestLayoutRowsAscendingAndOwners(t *testing.T) {
	n, edges := gen.Powerlaw(400, 6, 2.0, 8)
	g := graph.FromEdges(n, edges, false)
	for name, parts := range ownerPartitions(n) {
		for _, push := range []bool{true, false} {
			l := buildLayout(g, parts, push)
			for p := range l.perNode {
				nl := &l.perNode[p]
				if len(nl.OwnerRows) != len(parts)+1 || nl.OwnerRows[0] != 0 || nl.OwnerRows[len(parts)] != len(nl.IDs) {
					t.Fatalf("%s push=%t node %d: OwnerRows %v over %d rows", name, push, p, nl.OwnerRows, len(nl.IDs))
				}
				for o := range parts {
					for r := nl.OwnerRows[o]; r < nl.OwnerRows[o+1]; r++ {
						if !parts[o].Contains(nl.IDs[r]) {
							t.Fatalf("%s push=%t node %d: row %d (key %d) counted for owner %d", name, push, p, r, nl.IDs[r], o)
						}
					}
				}
				for r := range nl.IDs {
					if r > 0 && nl.IDs[r] <= nl.IDs[r-1] {
						t.Fatal("row keys must be strictly ascending")
					}
				}
				if parts[p].Lo == parts[p].Hi && len(nl.IDs) != 0 {
					t.Fatalf("%s push=%t: empty node %d holds %d rows", name, push, p, len(nl.IDs))
				}
			}
		}
	}
}

// Segment covers a chunk of the rolling sweep row by row in sweep order,
// wrapping to row 0 after the last row, and cuts runs that never cross an
// owner boundary or the wrap.
func TestLayoutSegmentsCoverTheSweep(t *testing.T) {
	n, edges := gen.Uniform(300, 2400, 12)
	g := graph.FromEdges(n, edges, false)
	rng := gen.NewRNG(5)
	for name, parts := range ownerPartitions(n) {
		l := buildLayout(g, parts, false)
		for p := range l.perNode {
			nl := l.perNode[p]
			rows := len(nl.IDs)
			for trial := 0; trial < 50 && rows > 0; trial++ {
				nl.Start = rng.Intn(rows)
				lo := rng.Intn(rows)
				hi := lo + 1 + rng.Intn(rows-lo)
				next := lo // the sweep position the next segment must start at
				for next < hi {
					o, rlo, rhi := nl.Segment(next, hi)
					if want := (next + nl.Start) % rows; rlo != want || rhi <= rlo || rhi > rows {
						t.Fatalf("%s node %d: segment [%d, %d) after sweep position %d (start %d), want it to begin at row %d",
							name, p, rlo, rhi, next, nl.Start, want)
					}
					if rlo < nl.OwnerRows[o] || rhi > nl.OwnerRows[o+1] {
						t.Fatalf("%s node %d: segment [%d, %d) crosses owner %d's rows %v", name, p, rlo, rhi, o, nl.OwnerRows)
					}
					next += rhi - rlo
				}
				if next != hi {
					t.Fatalf("%s node %d: segments of chunk [%d, %d) stopped at %d", name, p, lo, hi, next)
				}
			}
		}
	}
}

// layoutBytes is pinned on a hand-built layout: per node, 4 bytes a row key,
// 8 an offset, 4 a column, 4 a weight, one byte a row for the owner table
// the host keeps as OwnerRows, and the n-entry RowOf table. Agents are 16
// bytes each.
func TestLayoutBytesPinned(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1, Wt: 1}, {Src: 0, Dst: 2, Wt: 2}, {Src: 1, Dst: 2, Wt: 3},
		{Src: 2, Dst: 3, Wt: 4}, {Src: 3, Dst: 0, Wt: 5}, {Src: 3, Dst: 1, Wt: 6}}
	parts := []partition.Range{{Lo: 0, Hi: 2}, {Lo: 2, Hi: 4}}
	// Both directions hold 2 rows of 3 edges on node 0 and 3 rows of 3
	// edges on node 1: 62 + 75 bytes unweighted, 12 more a node weighted;
	// 1 + 2 of those rows are agents.
	for weighted, want := range map[bool]int64{false: 137, true: 161} {
		g := graph.FromEdges(4, edges, weighted)
		for _, push := range []bool{true, false} {
			b := buildLayout(g, parts, push)
			if got := layoutBytes(b.perNode, b.n); got != want {
				t.Errorf("weighted=%t push=%t: layoutBytes = %d, want %d", weighted, push, got, want)
			}
			if b.agentBytes != 3*16 {
				t.Errorf("weighted=%t push=%t: agentBytes = %d, want 48", weighted, push, b.agentBytes)
			}
		}
	}
}

func TestLayoutRowOf(t *testing.T) {
	n, edges := gen.RMAT(8, 4, 6)
	g := graph.FromEdges(n, edges, false)
	parts := partition.VertexBalanced(n, 2)
	l := buildLayout(g, parts, true)
	for p := range l.perNode {
		nl := &l.perNode[p]
		seen := make(map[graph.Vertex]bool)
		for r, id := range nl.IDs {
			if nl.RowOf[id] != int32(r) {
				t.Fatalf("RowOf[%d] = %d, want %d", id, nl.RowOf[id], r)
			}
			seen[id] = true
		}
		for v := 0; v < n; v++ {
			if !seen[graph.Vertex(v)] && nl.RowOf[v] != -1 {
				t.Fatalf("RowOf[%d] should be -1", v)
			}
		}
	}
}

func TestLayoutAgentsCount(t *testing.T) {
	n, edges := gen.Uniform(200, 3000, 9)
	g := graph.FromEdges(n, edges, false)
	parts := partition.VertexBalanced(n, 4)
	l := buildLayout(g, parts, true)
	agents := 0
	for p := range l.perNode {
		for _, id := range l.perNode[p].IDs {
			if partition.NodeOf(parts, id) != p {
				agents++
			}
		}
	}
	if agents == 0 {
		t.Fatal("a multi-node uniform graph must create agents")
	}
	if l.agentBytes != int64(agents)*16 {
		t.Fatalf("agentBytes = %d, counted %d agents", l.agentBytes, agents)
	}
}

func TestLayoutStartRowRolling(t *testing.T) {
	n, edges := gen.Uniform(400, 4000, 10)
	g := graph.FromEdges(n, edges, false)
	parts := partition.VertexBalanced(n, 4)
	l := buildLayout(g, parts, true)
	for p := range l.perNode {
		nl := &l.perNode[p]
		if len(nl.IDs) == 0 {
			continue
		}
		sr := nl.Start
		if sr < len(nl.IDs) && int(nl.IDs[sr]) >= parts[p].Lo {
			// Every earlier row must be keyed before the local range.
			for r := 0; r < sr; r++ {
				if int(nl.IDs[r]) >= parts[p].Lo {
					t.Fatalf("node %d: row %d already local before Start %d", p, r, sr)
				}
			}
		}
	}
}

func TestLayoutWeights(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1, Wt: 2.5}, {Src: 1, Dst: 2, Wt: 3.5}, {Src: 2, Dst: 0, Wt: 4.5}}
	g := graph.FromEdges(3, edges, true)
	parts := partition.VertexBalanced(3, 2)
	l := buildLayout(g, parts, true)
	found := make(map[edgeKey]float32)
	for p := range l.perNode {
		nl := &l.perNode[p]
		for r := range nl.IDs {
			for j := nl.Idx[r]; j < nl.Idx[r+1]; j++ {
				found[edgeKey{nl.IDs[r], nl.Cols[j]}] = nl.Wts[j]
			}
		}
	}
	for _, e := range edges {
		if found[edgeKey{e.Src, e.Dst}] != e.Wt {
			t.Fatalf("weight of (%d,%d) = %v, want %v", e.Src, e.Dst, found[edgeKey{e.Src, e.Dst}], e.Wt)
		}
	}
}

func BenchmarkLayoutBuild(b *testing.B) {
	n, edges := gen.RMAT(13, 16, 1)
	g := graph.FromEdges(n, edges, false)
	parts := partition.EdgeBalanced(g, 4, partition.In)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildLayout(g, parts, true) // engines share builds; time the build itself
	}
}

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
		for r := range nl.rowIDs {
			key := nl.rowIDs[r]
			for j := nl.rowIdx[r]; j < nl.rowIdx[r+1]; j++ {
				col := nl.cols[j]
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
			for _, col := range nl.cols {
				if !parts[p].Contains(col) {
					t.Fatalf("push=%t node %d holds foreign column %d", push, p, col)
				}
			}
		}
	}
}

func TestLayoutRowsAscendingAndOwners(t *testing.T) {
	n, edges := gen.Powerlaw(400, 6, 2.0, 8)
	g := graph.FromEdges(n, edges, false)
	parts := partition.VertexBalanced(n, 4)
	l := buildLayout(g, parts, true)
	for p := range l.perNode {
		nl := &l.perNode[p]
		for r := range nl.rowIDs {
			if r > 0 && nl.rowIDs[r] <= nl.rowIDs[r-1] {
				t.Fatal("row keys must be strictly ascending")
			}
			want := partition.NodeOf(parts, nl.rowIDs[r])
			if int(nl.rowOwner[r]) != want {
				t.Fatalf("rowOwner mismatch for vertex %d: %d vs %d", nl.rowIDs[r], nl.rowOwner[r], want)
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
		for r, id := range nl.rowIDs {
			if nl.rowOf[id] != int32(r) {
				t.Fatalf("rowOf[%d] = %d, want %d", id, nl.rowOf[id], r)
			}
			seen[id] = true
		}
		for v := 0; v < n; v++ {
			if !seen[graph.Vertex(v)] && nl.rowOf[v] != -1 {
				t.Fatalf("rowOf[%d] should be -1", v)
			}
		}
	}
}

func TestLayoutAgentsCount(t *testing.T) {
	n, edges := gen.Uniform(200, 3000, 9)
	g := graph.FromEdges(n, edges, false)
	parts := partition.VertexBalanced(n, 4)
	l := buildLayout(g, parts, true)
	for p := range l.perNode {
		nl := &l.perNode[p]
		agents := 0
		for r := range nl.rowIDs {
			if int(nl.rowOwner[r]) != p {
				agents++
			}
		}
		if agents != nl.agents {
			t.Fatalf("node %d agents = %d, counted %d", p, nl.agents, agents)
		}
	}
	if l.agentBytes <= 0 {
		t.Fatal("a multi-node uniform graph must create agents")
	}
}

func TestLayoutStartRowRolling(t *testing.T) {
	n, edges := gen.Uniform(400, 4000, 10)
	g := graph.FromEdges(n, edges, false)
	parts := partition.VertexBalanced(n, 4)
	l := buildLayout(g, parts, true)
	for p := range l.perNode {
		nl := &l.perNode[p]
		if len(nl.rowIDs) == 0 {
			continue
		}
		sr := nl.startRow
		if sr < len(nl.rowIDs) && int(nl.rowIDs[sr]) >= nl.vr.Lo {
			// Every earlier row must be keyed before the local range.
			for r := 0; r < sr; r++ {
				if int(nl.rowIDs[r]) >= nl.vr.Lo {
					t.Fatalf("node %d: row %d already local before startRow %d", p, r, sr)
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
		for r := range nl.rowIDs {
			for j := nl.rowIdx[r]; j < nl.rowIdx[r+1]; j++ {
				found[edgeKey{nl.rowIDs[r], nl.cols[j]}] = nl.wts[j]
			}
		}
	}
	for _, e := range edges {
		if found[edgeKey{e.Src, e.Dst}] != e.Wt {
			t.Fatalf("weight of (%d,%d) = %v, want %v", e.Src, e.Dst, found[edgeKey{e.Src, e.Dst}], e.Wt)
		}
	}
}

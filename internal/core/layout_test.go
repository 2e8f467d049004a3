package core

import (
	"fmt"
	"slices"
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
// the host keeps as OwnerRows, and an n-entry lookup table of 4 bytes a
// vertex. Agents are 16 bytes each.
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

// The push build's agent index lists every (node, row) exactly once, under
// the row's key, nodes ascending per vertex; a vertex keying no row has an
// empty range. Pull builds carry no index.
func TestLayoutAgentIndex(t *testing.T) {
	n, edges := gen.RMAT(8, 4, 6)
	g := graph.FromEdges(n, edges, false)
	for name, parts := range ownerPartitions(n) {
		if b := buildLayout(g, parts, false); b.agents != nil {
			t.Fatalf("%s: a pull build carries an agent index", name)
		}
		b := buildLayout(g, parts, true)
		ag := b.agents
		if len(ag.Off) != n+1 || ag.Off[0] != 0 || int(ag.Off[n]) != len(ag.Part) || len(ag.Row) != len(ag.Part) {
			t.Fatalf("%s: %d offsets ending at %d over %d parts and %d rows", name, len(ag.Off), ag.Off[n], len(ag.Part), len(ag.Row))
		}
		type agent struct{ p, r int }
		seen := make(map[agent]bool)
		for v := 0; v < n; v++ {
			keyed := false
			for i := ag.Off[v]; i < ag.Off[v+1]; i++ {
				a := agent{int(ag.Part[i]), int(ag.Row[i])}
				if i > ag.Off[v] && a.p <= int(ag.Part[i-1]) {
					t.Fatalf("%s: vertex %d's agents are not in ascending node order", name, v)
				}
				if ids := b.perNode[a.p].IDs; a.r >= len(ids) || ids[a.r] != graph.Vertex(v) {
					t.Fatalf("%s: vertex %d's agent is node %d row %d, which it does not key", name, v, a.p, a.r)
				}
				seen[a], keyed = true, true
			}
			if want := g.OutDegree(graph.Vertex(v)) > 0; keyed != want {
				t.Fatalf("%s: vertex %d has agents %t, out-edges %t", name, v, keyed, want)
			}
		}
		rows := 0
		for p := range b.perNode {
			rows += len(b.perNode[p].IDs)
		}
		if len(seen) != rows || len(ag.Part) != rows {
			t.Fatalf("%s: %d distinct agents, %d entries, %d rows", name, len(seen), len(ag.Part), rows)
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

// sameBuild asserts a patched build equals a fresh one array for array:
// every part's rows, columns, weights, owner cuts and start, the agent
// index and the agent bytes.
func sameBuild(t *testing.T, what string, got, want *layoutBuild) {
	t.Helper()
	if len(got.perNode) != len(want.perNode) || got.agentBytes != want.agentBytes || got.n != want.n || got.weighted != want.weighted {
		t.Fatalf("%s: %d parts, %d agent bytes, n %d, weighted %t; want %d, %d, %d, %t", what,
			len(got.perNode), got.agentBytes, got.n, got.weighted, len(want.perNode), want.agentBytes, want.n, want.weighted)
	}
	for p := range want.perNode {
		g, w := &got.perNode[p], &want.perNode[p]
		if !slices.Equal(g.IDs, w.IDs) || !slices.Equal(g.Idx, w.Idx) || !slices.Equal(g.Cols, w.Cols) ||
			!slices.Equal(g.Wts, w.Wts) || (g.Wts == nil) != (w.Wts == nil) ||
			!slices.Equal(g.OwnerRows, w.OwnerRows) || g.Start != w.Start {
			t.Fatalf("%s node %d:\n got ids %v idx %v cols %v wts %v owners %v start %d\nwant ids %v idx %v cols %v wts %v owners %v start %d",
				what, p, g.IDs, g.Idx, g.Cols, g.Wts, g.OwnerRows, g.Start, w.IDs, w.Idx, w.Cols, w.Wts, w.OwnerRows, w.Start)
		}
	}
	if (got.agents == nil) != (want.agents == nil) {
		t.Fatalf("%s: agent index present %t, want %t", what, got.agents != nil, want.agents != nil)
	}
	if want.agents != nil && (!slices.Equal(got.agents.Off, want.agents.Off) ||
		!slices.Equal(got.agents.Part, want.agents.Part) || !slices.Equal(got.agents.Row, want.agents.Row)) {
		t.Fatalf("%s: agent index differs", what)
	}
}

// randomBatch draws one mutation batch on g: inserts of random edges, some
// of them duplicates of existing pairs or self-loops, and deletes of
// existing pairs, now and then every out-edge of one vertex.
func randomBatch(rng *gen.RNG, g *graph.Graph, ops int) (deleted, appended []graph.Edge) {
	n := g.NumVertices()
	for i := 0; i < ops; i++ {
		v := graph.Vertex(rng.Intn(n))
		nbrs := g.OutNeighbors(v)
		switch k := rng.Intn(8); {
		case k < 3 && len(nbrs) > 0:
			deleted = append(deleted, graph.Edge{Src: v, Dst: nbrs[rng.Intn(len(nbrs))]})
		case k == 3:
			for _, u := range nbrs {
				deleted = append(deleted, graph.Edge{Src: v, Dst: u})
			}
		case k == 4 && len(nbrs) > 0:
			appended = append(appended, graph.Edge{Src: v, Dst: nbrs[0], Wt: float32(rng.Intn(99) + 1)})
		case k == 5:
			appended = append(appended, graph.Edge{Src: v, Dst: v, Wt: float32(rng.Intn(99) + 1)})
		default:
			appended = append(appended, graph.Edge{Src: v, Dst: graph.Vertex(rng.Intn(n)), Wt: float32(rng.Intn(99) + 1)})
		}
	}
	return deleted, appended
}

// TestLayoutPatchMatchesBuild: along random batch streams, in both
// directions, weighted and not, over an edge-balanced partition and one
// with an empty node, each patched build equals buildLayout on the patched
// graph with the same partition, array for array.
func TestLayoutPatchMatchesBuild(t *testing.T) {
	n, edges := gen.Powerlaw(400, 6, 2.0, 17)
	gen.AddRandomWeights(edges, 18)
	for _, weighted := range []bool{false, true} {
		base := graph.FromEdges(n, edges, weighted)
		partitions := ownerPartitions(n)
		partitions["edge-balanced"] = partition.EdgeBalanced(base, 4, partition.In)
		for name, parts := range partitions {
			for _, push := range []bool{true, false} {
				rng := gen.NewRNG(uint64(len(name)) + 7)
				g, l := base, buildLayout(base, parts, push)
				for step := 0; step < 25; step++ {
					del, app := randomBatch(rng, g, 1+rng.Intn(40))
					g, l = g.Patch(del, app), l.Patch(del, app)
					sameBuild(t, fmt.Sprintf("weighted=%t %s push=%t step %d", weighted, name, push, step), l, buildLayout(g, parts, push))
				}
			}
		}
	}
}

// FuzzLayoutPatch drives a layout through patches, ops decoded three bytes
// at a time (flags, src, dst) and applied as one batch wherever the flag
// byte's top bit is set; every patched build, push and pull, weighted and
// not, over a partition with an empty node, must equal buildLayout on the
// patched graph.
func FuzzLayoutPatch(f *testing.F) {
	const (
		n      = 8
		insert = 0x01 // low two bits zero = delete, anything else = insert
		snap   = 0x80
	)
	f.Add([]byte{})                                                       // the empty batch
	f.Add([]byte{snap, 0, 1})                                             // delete every copy of a duplicated pair
	f.Add([]byte{insert, 3, 4, insert | snap, 3, 4})                      // duplicate inserts
	f.Add([]byte{insert | snap, 5, 5, snap, 5, 5})                        // a self-loop in, then out
	f.Add([]byte{insert | snap, 7, 0, insert | snap, 7, 6})               // vertex 7 keys a new row on each node
	f.Add([]byte{snap, 4, 0})                                             // row 4's last column goes
	f.Add([]byte{insert, 0, 1, 0, 0, 1, insert | 0x3c | snap, 0, 1})      // delete and re-insert in one batch
	f.Add([]byte{insert | snap, 2, 7, insert, 6, 3, snap, 2, 2, 0, 1, 0}) // the empty node's neighbours
	baseEdges := []graph.Edge{
		{Src: 4, Dst: 0, Wt: 1}, {Src: 0, Dst: 1, Wt: 2}, {Src: 0, Dst: 1, Wt: 3}, {Src: 0, Dst: 2, Wt: 4},
		{Src: 0, Dst: 3, Wt: 5}, {Src: 1, Dst: 2, Wt: 6}, {Src: 2, Dst: 2, Wt: 7}, {Src: 1, Dst: 0, Wt: 8},
		{Src: 6, Dst: 5, Wt: 9},
	}
	parts := []partition.Range{{Lo: 0, Hi: 3}, {Lo: 3, Hi: 3}, {Lo: 3, Hi: 6}, {Lo: 6, Hi: n}}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, weighted := range []bool{false, true} {
			for _, push := range []bool{true, false} {
				g := graph.FromEdges(n, baseEdges, weighted)
				l := buildLayout(g, parts, push)
				g, l = g.Patch(nil, nil), l.Patch(nil, nil)
				sameBuild(t, "the empty batch", l, buildLayout(g, parts, push))
				var del, app []graph.Edge
				for d := data; len(d) >= 3; d = d[3:] {
					e := graph.Edge{Src: graph.Vertex(d[1] % n), Dst: graph.Vertex(d[2] % n), Wt: float32(d[0]>>2&15) + 1}
					if d[0]&3 == 0 {
						del = append(del, e)
					} else {
						app = append(app, e)
					}
					if d[0]&snap == 0 {
						continue
					}
					g, l = g.Patch(del, app), l.Patch(del, app)
					sameBuild(t, fmt.Sprintf("weighted=%t push=%t after %v %v", weighted, push, del, app), l, buildLayout(g, parts, push))
					del, app = nil, nil
				}
			}
		}
	})
}

// BenchmarkLayoutPatch patches push and pull builds of the weighted
// power-law dataset at small scale across one 32-op batch, the shape of a
// serving commit: 24 inserts and 8 deletes of existing pairs.
func BenchmarkLayoutPatch(b *testing.B) {
	g, err := gen.Load(gen.PowerLaw, gen.Small, true)
	if err != nil {
		b.Fatal(err)
	}
	rng := gen.NewRNG(32)
	var del, app []graph.Edge
	for i := 0; i < 32; i++ {
		v := graph.Vertex(rng.Intn(g.NumVertices()))
		if nbrs := g.OutNeighbors(v); i%4 == 3 && len(nbrs) > 0 {
			del = append(del, graph.Edge{Src: v, Dst: nbrs[0]})
			continue
		}
		app = append(app, graph.Edge{Src: v, Dst: graph.Vertex(rng.Intn(g.NumVertices())), Wt: float32(rng.Intn(99) + 1)})
	}
	for _, push := range []bool{true, false} {
		dir := partition.Out
		if push {
			dir = partition.In
		}
		l := buildLayout(g, partition.EdgeBalanced(g, 8, dir), push)
		b.Run(fmt.Sprintf("push=%t", push), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.Patch(del, app)
			}
		})
	}
}

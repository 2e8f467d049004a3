package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
	"polymer/internal/partition"
	"polymer/internal/sg"
)

type edgeKey struct{ s, t graph.Vertex }

// chunks returns the number of chunks of pt.
func chunks(pt *sg.Part) int { return len(pt.ChunkRows) - 1 }

// flatRows is part nl's rows as one flat Rows: its chunks' keys, columns
// and weights end to end, with offsets into the whole.
func flatRows(nl *sg.Part) sg.Rows {
	var f sg.Rows
	for c := range chunks(nl) {
		ch := nl.Chunk(c)
		base := int64(len(f.Cols)) - ch.Idx[0]
		for r := range ch.IDs {
			f.Idx = append(f.Idx, base+ch.Idx[r])
		}
		f.IDs = append(f.IDs, ch.IDs...)
		f.Cols = append(f.Cols, ch.Cols[ch.Idx[0]:ch.Idx[len(ch.IDs)]]...)
		if ch.Wts != nil {
			f.Wts = append(f.Wts, ch.Wts[ch.Idx[0]:ch.Idx[len(ch.IDs)]]...)
		}
	}
	f.Idx = append(f.Idx, int64(len(f.Cols)))
	return f
}

// collectLayoutEdges reassembles the (source, target) pairs stored in a
// layout. In push layouts, rows are sources and columns targets; in pull
// layouts the reverse.
func collectLayoutEdges(l *layoutBuild, push bool) map[edgeKey]int {
	out := make(map[edgeKey]int)
	for p := range l.perNode {
		nl := flatRows(&l.perNode[p])
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
			for _, col := range flatRows(&l.perNode[p]).Cols {
				if !parts[p].Contains(col) {
					t.Fatalf("push=%t node %d holds foreign column %d", push, p, col)
				}
			}
		}
	}
}

// A namedPartition is one partition the owner tests cut a graph into.
type namedPartition struct {
	name  string
	parts []partition.Range
}

// ownerPartitions are the partitions the owner tests cut a graph of n
// vertices into, in a fixed order, so that a test drawing from one random
// stream across them draws the same inputs on every run: balanced, and
// with an empty node in the middle.
func ownerPartitions(n int) []namedPartition {
	return []namedPartition{
		{"balanced", partition.VertexBalanced(n, 4)},
		{"empty-node1", []partition.Range{{Lo: 0, Hi: n / 3}, {Lo: n / 3, Hi: n / 3}, {Lo: n / 3, Hi: n / 2}, {Lo: n / 2, Hi: n}}},
	}
}

// Row keys ascend, and OwnerRows delimits each owner's run of them: row r
// lies in [OwnerRows[o], OwnerRows[o+1]) exactly when its key lies in
// partition o. Chunk c holds the rows keyed in [c·K, (c+1)·K), rows
// [ChunkRows[c], ChunkRows[c+1]) of the part; a build lays them out flat.
func TestLayoutRowsAscendingAndOwners(t *testing.T) {
	n, edges := gen.Powerlaw(1000, 6, 2.0, 8)
	g := graph.FromEdges(n, edges, false)
	for _, np := range ownerPartitions(n) {
		name, parts := np.name, np.parts
		for _, push := range []bool{true, false} {
			l := buildLayout(g, parts, push)
			for p := range l.perNode {
				pt := &l.perNode[p]
				if chunks(pt) != (n+sg.ChunkKeys-1)/sg.ChunkKeys || pt.ChunkRows[0] != 0 || pt.Flat == nil || pt.Chunks != nil {
					t.Fatalf("%s push=%t node %d: %d chunks, ChunkRows %v, flat %t", name, push, p, chunks(pt), pt.ChunkRows, pt.Flat != nil)
				}
				for c := range chunks(pt) {
					ch := pt.Chunk(c)
					if ch.Len() != pt.ChunkRows[c+1]-pt.ChunkRows[c] || len(ch.Idx) != len(ch.IDs)+1 {
						t.Fatalf("%s push=%t node %d chunk %d: %d rows, offsets %v, ChunkRows %v",
							name, push, p, c, len(ch.IDs), ch.Idx, pt.ChunkRows)
					}
					for _, k := range ch.IDs {
						if int(k)/sg.ChunkKeys != c {
							t.Fatalf("%s push=%t node %d: chunk %d holds key %d", name, push, p, c, k)
						}
					}
				}
				nl := flatRows(pt)
				if len(pt.OwnerRows) != len(parts)+1 || pt.OwnerRows[0] != 0 || pt.OwnerRows[len(parts)] != len(nl.IDs) {
					t.Fatalf("%s push=%t node %d: OwnerRows %v over %d rows", name, push, p, pt.OwnerRows, len(nl.IDs))
				}
				for o := range parts {
					for r := pt.OwnerRows[o]; r < pt.OwnerRows[o+1]; r++ {
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

// Segments covers a stretch of the rolling sweep row by row in sweep
// order, wrapping to row 0 after the last row, and cuts runs of rows that
// never cross an owner boundary, the wrap or, on a patched node, a chunk
// boundary, and end only at one of those or the stretch's end. A build's
// node is swept as its flat rows, a patched node chunk by chunk. Every
// segment holds the part's rows, with their weights unless the cursor
// hides them. One cursor serves random stretches in any order.
func TestLayoutSegmentsCoverTheSweep(t *testing.T) {
	n, edges := gen.Uniform(1200, 4800, 12)
	gen.AddRandomWeights(edges, 13)
	g := graph.FromEdges(n, edges, true)
	rng := gen.NewRNG(5)
	for _, np := range ownerPartitions(n) {
		name, parts := np.name, np.parts
		built := buildLayout(g, parts, false)
		del, app := randomBatch(rng, g, 40)
		for _, l := range []*layoutBuild{built, built.Patch(del, app)} {
			for p := range l.perNode {
				nl := l.perNode[p]
				rows, flat := nl.Len(), flatRows(&nl)
				var view sg.Rows
				var seg sg.Segments // one cursor across stretches, as a thread keeps it
				for trial := 0; trial < 60 && rows > 0; trial++ {
					if trial%10 == 0 {
						nl.Start = rng.Intn(rows) // a new sweep
						seg = nl.Segments(&view, trial%20 == 0)
					}
					lo := rng.Intn(rows)
					hi := lo + 1 + rng.Intn(rows-lo)
					next := lo // the sweep position the next segment must start at
					for seg.Stretch(lo, hi); seg.Next(); {
						rlo, rhi := checkSegment(t, fmt.Sprintf("%s node %d wts=%t", name, p, trial%20 < 10), &nl, flat, seg, trial%20 < 10)
						if want := (next + nl.Start) % rows; rlo != want {
							t.Fatalf("%s node %d: segment [%d, %d) after sweep position %d (start %d), want it to begin at row %d",
								name, p, rlo, rhi, next, nl.Start, want)
						}
						next += rhi - rlo
						if next != hi && rhi != rows && !slices.Contains(nl.OwnerRows, rhi) && !slices.Contains(nl.ChunkRows, rhi) {
							t.Fatalf("%s node %d: segment [%d, %d) ends at no boundary", name, p, rlo, rhi)
						}
					}
					if next != hi {
						t.Fatalf("%s node %d: segments of stretch [%d, %d) stopped at %d", name, p, lo, hi, next)
					}
				}
			}
		}
	}
}

// checkSegment holds the cursor's segment to pt, whose rows laid flat are
// flat, and returns the part rows it holds: rows of one owner, of pt's
// flat rows or of one of its chunks, and the segment's rows are theirs,
// with their weights when wts is set.
func checkSegment(t *testing.T, what string, pt *sg.Part, flat sg.Rows, seg sg.Segments, wts bool) (rlo, rhi int) {
	t.Helper()
	c := 0 // the chunk the segment is of, on a part not laid out flat
	if pt.Flat == nil {
		c = slices.IndexFunc(pt.Chunks, func(ch *sg.Rows) bool { return &ch.Idx[0] == &seg.Rows.Idx[0] })
	}
	if c < 0 || seg.Lo < 0 || seg.Hi <= seg.Lo || seg.Hi > seg.Rows.Len() {
		t.Fatalf("%s: segment [%d, %d) of %d rows starts in chunk %d", what, seg.Lo, seg.Hi, seg.Rows.Len(), c)
	}
	rlo, rhi = pt.ChunkRows[c]+seg.Lo, pt.ChunkRows[c]+seg.Hi
	if o := seg.Owner; rlo < pt.OwnerRows[o] || rhi > pt.OwnerRows[o+1] {
		t.Fatalf("%s: segment [%d, %d) crosses owner %d's rows %v", what, rlo, rhi, o, pt.OwnerRows)
	}
	if (seg.Rows.Wts != nil) != wts {
		t.Fatalf("%s: segment carries weights %t", what, seg.Rows.Wts != nil)
	}
	for r := rlo; r < rhi; r++ {
		j := r - rlo + seg.Lo
		lo, hi := seg.Rows.Idx[j], seg.Rows.Idx[j+1]
		if seg.Rows.ID(j) != flat.IDs[r] || !slices.Equal(seg.Rows.Cols[lo:hi], flat.Cols[flat.Idx[r]:flat.Idx[r+1]]) ||
			wts && !slices.Equal(seg.Rows.Wts[lo:hi], flat.Wts[flat.Idx[r]:flat.Idx[r+1]]) {
			t.Fatalf("%s: segment row %d is not the part's row %d", what, j, r)
		}
	}
	return rlo, rhi
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
			if got := layoutBytes(b, weighted); got != want {
				t.Errorf("weighted=%t push=%t: layoutBytes = %d, want %d", weighted, push, got, want)
			}
			if b.agentBytes != 3*16 {
				t.Errorf("weighted=%t push=%t: agentBytes = %d, want 48", weighted, push, b.agentBytes)
			}
		}
	}
}

// The push build's agent index lists every (node, row) exactly once, under
// the row's key, in the agent chunk of the key's chunk, nodes ascending per
// vertex; a vertex keying no row, and a key of the last chunk beyond the
// graph, has an empty range. Pull builds carry no index.
func TestLayoutAgentIndex(t *testing.T) {
	n, edges := gen.RMAT(10, 4, 6)
	g := graph.FromEdges(n, edges, false)
	for _, np := range ownerPartitions(n) {
		name, parts := np.name, np.parts
		if b := buildLayout(g, parts, false); b.agents != nil {
			t.Fatalf("%s: a pull build carries an agent index", name)
		}
		b := buildLayout(g, parts, true)
		ag := b.agents
		if len(ag.Chunks) != (n+sg.ChunkKeys-1)/sg.ChunkKeys {
			t.Fatalf("%s: %d agent chunks over %d vertices", name, len(ag.Chunks), n)
		}
		type agent struct{ p, c, r int }
		seen := make(map[agent]bool)
		entries := 0
		for c, ac := range ag.Chunks {
			if ac.Off[0] != 0 || int(ac.Off[sg.ChunkKeys]) != len(ac.Part) || len(ac.Row) != len(ac.Part) {
				t.Fatalf("%s chunk %d: offsets from %d to %d over %d parts and %d rows", name, c, ac.Off[0], ac.Off[sg.ChunkKeys], len(ac.Part), len(ac.Row))
			}
			entries += len(ac.Part)
			for k := range sg.ChunkKeys {
				v := c*sg.ChunkKeys + k
				if ac.Off[k+1] < ac.Off[k] || v >= n && ac.Off[k+1] != ac.Off[k] {
					t.Fatalf("%s: key %d's agents are entries [%d, %d) of a graph of %d vertices", name, v, ac.Off[k], ac.Off[k+1], n)
				}
				if v >= n {
					continue
				}
				keyed := false
				for i := ac.Off[k]; i < ac.Off[k+1]; i++ {
					a := agent{int(ac.Part[i]), c, int(ac.Row[i])}
					if i > ac.Off[k] && a.p <= int(ac.Part[i-1]) {
						t.Fatalf("%s: vertex %d's agents are not in ascending node order", name, v)
					}
					if ids := b.perNode[a.p].Chunk(c).IDs; a.r >= len(ids) || ids[a.r] != graph.Vertex(v) {
						t.Fatalf("%s: vertex %d's agent is node %d row %d, which it does not key", name, v, a.p, a.r)
					}
					seen[a], keyed = true, true
				}
				if want := g.OutDegree(graph.Vertex(v)) > 0; keyed != want {
					t.Fatalf("%s: vertex %d has agents %t, out-edges %t", name, v, keyed, want)
				}
			}
		}
		rows := 0
		for p := range b.perNode {
			rows += b.perNode[p].Len()
		}
		if len(seen) != rows || entries != rows {
			t.Fatalf("%s: %d distinct agents, %d entries, %d rows", name, len(seen), entries, rows)
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
		for _, id := range flatRows(&l.perNode[p]).IDs {
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
		nl := flatRows(&l.perNode[p])
		if len(nl.IDs) == 0 {
			continue
		}
		sr := l.perNode[p].Start
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
		nl := flatRows(&l.perNode[p])
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

// sameBuild asserts a patched build equals a fresh one chunk for chunk:
// every part's chunk rows, each chunk's keys, offsets (from its first),
// columns and weights, the owner cuts and start, the edge total, the agent
// index and the agent bytes.
func sameBuild(t *testing.T, what string, got, want *layoutBuild) {
	t.Helper()
	everyRowHasAnEdge(t, what+" (patched)", got)
	everyRowHasAnEdge(t, what+" (built)", want)
	if len(got.perNode) != len(want.perNode) || got.agentBytes != want.agentBytes || got.edges != want.edges ||
		got.n != want.n || got.weighted != want.weighted {
		t.Fatalf("%s: %d parts, %d agent bytes, %d edges, n %d, weighted %t; want %d, %d, %d, %d, %t", what,
			len(got.perNode), got.agentBytes, got.edges, got.n, got.weighted,
			len(want.perNode), want.agentBytes, want.edges, want.n, want.weighted)
	}
	for p := range want.perNode {
		g, w := &got.perNode[p], &want.perNode[p]
		if !slices.Equal(g.ChunkRows, w.ChunkRows) || !slices.Equal(g.OwnerRows, w.OwnerRows) || g.Start != w.Start {
			t.Fatalf("%s node %d: chunk rows %v, owners %v, start %d; want %v, %v, %d",
				what, p, g.ChunkRows, g.OwnerRows, g.Start, w.ChunkRows, w.OwnerRows, w.Start)
		}
		for c := range chunks(w) {
			gr, wr := g.Chunk(c), w.Chunk(c)
			gc, wc := &gr, &wr
			gcols, gwts := chunkEdges(gc)
			wcols, wwts := chunkEdges(wc)
			if !slices.Equal(gc.IDs, wc.IDs) || !slices.Equal(offsets(gc), offsets(wc)) || !slices.Equal(gcols, wcols) ||
				!slices.Equal(gwts, wwts) || (gc.Wts == nil) != (wc.Wts == nil) {
				t.Fatalf("%s node %d chunk %d:\n got ids %v idx %v cols %v wts %v\nwant ids %v idx %v cols %v wts %v",
					what, p, c, gc.IDs, offsets(gc), gcols, gwts, wc.IDs, offsets(wc), wcols, wwts)
			}
		}
	}
	if (got.agents == nil) != (want.agents == nil) {
		t.Fatalf("%s: agent index present %t, want %t", what, got.agents != nil, want.agents != nil)
	}
	if want.agents == nil {
		return
	}
	if len(got.agents.Chunks) != len(want.agents.Chunks) {
		t.Fatalf("%s: %d agent chunks, want %d", what, len(got.agents.Chunks), len(want.agents.Chunks))
	}
	for c, w := range want.agents.Chunks {
		if g := got.agents.Chunks[c]; g.Off != w.Off || !slices.Equal(g.Part, w.Part) || !slices.Equal(g.Row, w.Row) {
			t.Fatalf("%s: agent chunk %d differs", what, c)
		}
	}
}

// chunkEdges returns the columns and weights of rs's rows.
func chunkEdges(rs *sg.Rows) (cols []graph.Vertex, wts []float32) {
	lo, hi := rs.Idx[0], rs.Idx[len(rs.Idx)-1]
	if rs.Wts != nil {
		wts = rs.Wts[lo:hi]
	}
	return rs.Cols[lo:hi], wts
}

// offsets returns rs's row offsets less its first.
func offsets(rs *sg.Rows) []int64 {
	o := slices.Clone(rs.Idx)
	for i := range o {
		o[i] -= rs.Idx[0]
	}
	return o
}

// everyRowHasAnEdge fails unless every row of every part of l holds at
// least one edge: a row exists for a key with edges on the node. The edge
// loops of the segment forms (sg.RowCursor) rely on it to never take their
// empty-row step on a Polymer part.
func everyRowHasAnEdge(t *testing.T, what string, l *layoutBuild) {
	t.Helper()
	for p := range l.perNode {
		for c := range chunks(&l.perNode[p]) {
			ch := l.perNode[p].Chunk(c)
			for r := range ch.Len() {
				if ch.Idx[r+1] <= ch.Idx[r] {
					t.Fatalf("%s node %d chunk %d: row %d (key %d) holds no edge", what, p, c, r, ch.ID(r))
				}
			}
		}
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
// graph with the same partition, array for array, and neither holds a row
// without an edge.
func TestLayoutPatchMatchesBuild(t *testing.T) {
	n, edges := gen.Powerlaw(1000, 6, 2.0, 17)
	gen.AddRandomWeights(edges, 18)
	for _, weighted := range []bool{false, true} {
		base := graph.FromEdges(n, edges, weighted)
		partitions := append(ownerPartitions(n), namedPartition{"edge-balanced", partition.EdgeBalanced(base, 4, partition.In)})
		for _, np := range partitions {
			name, parts := np.name, np.parts
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
// patched graph, and neither may hold a row without an edge. Vertex i of
// the decoded ops is vertex i·spread of the graph, so the eight keys fall
// in three chunks, and the nodes' ranges are the scaled ones.
func FuzzLayoutPatch(f *testing.F) {
	const (
		n      = 8
		spread = 97   // vertices 0-2 key chunk 0, 3-5 chunk 1, 6-7 chunk 2
		insert = 0x01 // low two bits zero = delete, anything else = insert
		snap   = 0x80
	)
	f.Add([]byte{})                                                       // the empty batch
	f.Add([]byte{snap, 0, 1})                                             // delete every copy of a duplicated pair
	f.Add([]byte{insert, 3, 4, insert | snap, 3, 4})                      // duplicate inserts
	f.Add([]byte{insert | snap, 5, 5, snap, 5, 5})                        // a self-loop in, then out
	f.Add([]byte{insert | snap, 7, 0, insert | snap, 7, 6})               // vertex 7 keys a new row on each node
	f.Add([]byte{snap, 4, 0})                                             // row 4's last column goes
	f.Add([]byte{0, 4, 0, insert | snap, 7, 6})                           // row 4 goes from key chunk 1, row 7 appears in chunk 2
	f.Add([]byte{insert, 0, 1, 0, 0, 1, insert | 0x3c | snap, 0, 1})      // delete and re-insert in one batch
	f.Add([]byte{insert | snap, 2, 7, insert, 6, 3, snap, 2, 2, 0, 1, 0}) // the empty node's neighbours
	baseEdges := []graph.Edge{
		{Src: 4, Dst: 0, Wt: 1}, {Src: 0, Dst: 1, Wt: 2}, {Src: 0, Dst: 1, Wt: 3}, {Src: 0, Dst: 2, Wt: 4},
		{Src: 0, Dst: 3, Wt: 5}, {Src: 1, Dst: 2, Wt: 6}, {Src: 2, Dst: 2, Wt: 7}, {Src: 1, Dst: 0, Wt: 8},
		{Src: 6, Dst: 5, Wt: 9},
	}
	for i := range baseEdges {
		baseEdges[i].Src *= spread
		baseEdges[i].Dst *= spread
	}
	parts := []partition.Range{{Lo: 0, Hi: 3 * spread}, {Lo: 3 * spread, Hi: 3 * spread}, {Lo: 3 * spread, Hi: 6 * spread}, {Lo: 6 * spread, Hi: n * spread}}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, weighted := range []bool{false, true} {
			for _, push := range []bool{true, false} {
				g := graph.FromEdges(n*spread, baseEdges, weighted)
				l := buildLayout(g, parts, push)
				g, l = g.Patch(nil, nil), l.Patch(nil, nil)
				sameBuild(t, "the empty batch", l, buildLayout(g, parts, push))
				var del, app []graph.Edge
				for d := data; len(d) >= 3; d = d[3:] {
					e := graph.Edge{Src: graph.Vertex(d[1]%n) * spread, Dst: graph.Vertex(d[2]%n) * spread, Wt: float32(d[0]>>2&15) + 1}
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

// TestLayoutPatchSharesUntouchedChunks: along random batch streams, in
// both directions, weighted and not, a patch rewrites exactly the chunks
// its edits key into, one per distinct (node, key/K), each into arrays of
// its own, and shares every other chunk with its predecessor: the same
// arrays, not a copy. The exception is a node whose chunks are still views
// of the build's arrays: the first edit to reach it gives all its chunks
// arrays of their own, so that no generation keeps the build's alive. A
// push build's agent chunk is its predecessor's, the same pointer, when no
// node's row keyed in its key chunk appeared or vanished, and new when one
// did.
func TestLayoutPatchSharesUntouchedChunks(t *testing.T) {
	n, edges := gen.Powerlaw(3000, 6, 2.0, 23)
	gen.AddRandomWeights(edges, 24)
	for _, weighted := range []bool{false, true} {
		base := graph.FromEdges(n, edges, weighted)
		parts := partition.EdgeBalanced(base, 4, partition.In)
		for _, push := range []bool{true, false} {
			rng := gen.NewRNG(41)
			g, l := base, buildLayout(base, parts, push)
			for step := 0; step < 10; step++ {
				del, app := randomBatch(rng, g, 1+rng.Intn(24))
				touched, reached := map[[2]int]bool{}, map[int]bool{}
				for _, e := range slices.Concat(del, app) {
					key, col := e.Dst, e.Src
					if push {
						key, col = e.Src, e.Dst
					}
					p := partition.NodeOf(parts, col)
					touched[[2]int{p, int(key) / sg.ChunkKeys}], reached[p] = true, true
				}
				flat := func(l *layoutBuild, p int) bool { return l.perNode[p].Flat != nil }
				for p := range reached {
					if flat(l, p) { // the first reach copies every chunk
						for c := range chunks(&l.perNode[p]) {
							touched[[2]int{p, c}] = true
						}
					}
				}
				next := l.Patch(del, app)
				for p := range parts {
					// A build's nodes are flat until an edit reaches them.
					if flat(next, p) != (flat(l, p) && !reached[p]) || step == 0 && !flat(l, p) {
						t.Fatalf("weighted=%t push=%t step %d: node %d flat %t, was %t", weighted, push, step, p, flat(next, p), flat(l, p))
					}
				}
				rewritten := 0
				for p := range next.perNode {
					for c := range chunks(&next.perNode[p]) {
						gc, wc := next.perNode[p].Chunk(c), l.perNode[p].Chunk(c)
						got, was := &gc, &wc
						what := fmt.Sprintf("weighted=%t push=%t step %d node %d chunk %d", weighted, push, step, p, c)
						switch {
						case !touched[[2]int{p, c}] && !sameArrays(got, was):
							t.Fatalf("%s: no edit reaches it, but it is not its predecessor's", what)
						case touched[[2]int{p, c}] && sharesArrays(got, was):
							t.Fatalf("%s: an edit reaches it, but it shares its predecessor's arrays", what)
						case touched[[2]int{p, c}]:
							rewritten++
						}
					}
				}
				if rewritten != len(touched) {
					t.Fatalf("weighted=%t push=%t step %d: %d chunks rewritten, edits name %d", weighted, push, step, rewritten, len(touched))
				}
				if push {
					sameAgentChunks(t, fmt.Sprintf("weighted=%t step %d", weighted, step), next, l)
				}
				g, l = g.Patch(del, app), next
			}
		}
	}
}

// sameAgentChunks fails unless each agent chunk of next, a patch of prev,
// is prev's when every node keys the same rows in its key chunk in both,
// and a new one when some node's rows there differ.
func sameAgentChunks(t *testing.T, what string, next, prev *layoutBuild) {
	t.Helper()
	moved := 0
	for c, ac := range next.agents.Chunks {
		same := true
		for p := range next.perNode {
			same = same && slices.Equal(next.perNode[p].Chunk(c).IDs, prev.perNode[p].Chunk(c).IDs)
		}
		switch kept := ac == prev.agents.Chunks[c]; {
		case same && !kept:
			t.Fatalf("%s: no row of key chunk %d appeared or vanished, but its agent chunk is new", what, c)
		case !same && kept:
			t.Fatalf("%s: a row of key chunk %d appeared or vanished, but its agent chunk is its predecessor's", what, c)
		case !same:
			moved++
		}
	}
	if moved == 0 && next.agents != prev.agents {
		t.Fatalf("%s: no row appeared or vanished, but the agent index is new", what)
	}
}

// sameArrays reports whether a and b are the same view of the same arrays.
func sameArrays(a, b *sg.Rows) bool {
	return sameSlice(a.IDs, b.IDs) && sameSlice(a.Idx, b.Idx) && sameSlice(a.Cols, b.Cols) && sameSlice(a.Wts, b.Wts)
}

// sharesArrays reports whether any of a's arrays starts where b's does.
func sharesArrays(a, b *sg.Rows) bool {
	return startsAt(a.IDs, b.IDs) || startsAt(a.Idx, b.Idx) || startsAt(a.Cols, b.Cols) || startsAt(a.Wts, b.Wts)
}

func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && cap(a) == cap(b) && unsafe.SliceData(a) == unsafe.SliceData(b)
}

func startsAt[T any](a, b []T) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// patchBatch is the weighted power-law dataset at small scale and one
// 32-op batch on it, the shape of a serving commit: 24 inserts and 8
// deletes of existing pairs.
func patchBatch(tb testing.TB) (g *graph.Graph, del, app []graph.Edge) {
	g, err := gen.Load(gen.PowerLaw, gen.Small, true)
	if err != nil {
		tb.Fatal(err)
	}
	rng := gen.NewRNG(32)
	for i := 0; i < 32; i++ {
		v := graph.Vertex(rng.Intn(g.NumVertices()))
		if nbrs := g.OutNeighbors(v); i%4 == 3 && len(nbrs) > 0 {
			del = append(del, graph.Edge{Src: v, Dst: nbrs[0]})
			continue
		}
		app = append(app, graph.Edge{Src: v, Dst: graph.Vertex(rng.Intn(g.NumVertices())), Wt: float32(rng.Intn(99) + 1)})
	}
	return g, del, app
}

// patchLayout is the layout patchBatch's commit patches: g's in one
// direction over eight edge-balanced nodes, as the serving layer's Polymer
// runs make it, built and then patched once, so that like a serving
// lineage's every node's chunks have arrays of their own. That patch
// appends a self-loop on each node's first vertex, which keeps every pair
// the commit deletes.
func patchLayout(g *graph.Graph, push bool) *layoutBuild {
	dir := partition.Out
	if push {
		dir = partition.In
	}
	parts := partition.EdgeBalanced(g, 8, dir)
	var loops []graph.Edge
	for _, pr := range parts {
		if pr.Lo < pr.Hi {
			loops = append(loops, graph.Edge{Src: graph.Vertex(pr.Lo), Dst: graph.Vertex(pr.Lo), Wt: 1})
		}
	}
	return buildLayout(g, parts, push).Patch(nil, loops)
}

// TestLayoutPatchAllocation bounds the bytes one patch allocates on
// BenchmarkLayoutPatch's commit. Rewriting every node's flat rows, a patch
// allocated 2.49 MB in either direction. Rewriting only the touched chunks,
// and in a push build only the agent chunks of key chunks whose rows
// moved, either patch allocates at most 10 % of that: 179,512 B pull and
// 180,248 B push when the bound was set. The first patch of a build, which
// copies the chunks of every node it reaches, is not bounded.
func TestLayoutPatchAllocation(t *testing.T) {
	const flat = 2_490_000 // bytes a patch of flat rows allocated
	g, del, app := patchBatch(t)
	for _, tc := range []struct {
		push  bool
		limit uint64
	}{{false, flat * 10 / 100}, {true, flat * 10 / 100}} {
		l := patchLayout(g, tc.push)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		patched := l.Patch(del, app)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(patched)
		if got := after.TotalAlloc - before.TotalAlloc; got > tc.limit {
			t.Errorf("push=%t: a patch allocated %d bytes, limit %d", tc.push, got, tc.limit)
		}
	}
}

// BenchmarkLayoutPatch patches push and pull builds of the weighted
// power-law dataset at small scale across patchBatch's 32-op commit.
func BenchmarkLayoutPatch(b *testing.B) {
	g, del, app := patchBatch(b)
	for _, push := range []bool{true, false} {
		l := patchLayout(g, push)
		b.Run(fmt.Sprintf("push=%t", push), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.Patch(del, app)
			}
		})
	}
}

// An agent chunk counts its entries in 16 bits (sg.AgentChunk.Off), at
// most ChunkKeys a node, and names a node in a byte, so New refuses a
// machine of maxLayoutNodes+1 nodes and builds on maxLayoutNodes (255 at
// 256 keys a chunk). There a graph whose first ChunkKeys vertices reach
// every vertex, one part a vertex (the last part the rest), has every node
// key every key of the first chunk: 255 x 256 = 65,280 entries, each
// key's agents in node order.
func TestNewRefusesMoreNodesThanAgentOffsetsCount(t *testing.T) {
	const keys = sg.ChunkKeys
	n := max(keys, maxLayoutNodes)
	edges := make([]graph.Edge, 0, keys*n)
	for s := range keys {
		for d := range n {
			edges = append(edges, graph.Edge{Src: graph.Vertex(s), Dst: graph.Vertex(d)})
		}
	}
	g := graph.FromEdges(n, edges, false)
	machine := func(nodes int) *numa.Machine {
		topo := numa.IntelXeon80()
		topo.Sockets = nodes
		topo.Levels = make([][]int, nodes)
		for i := range topo.Levels {
			topo.Levels[i] = make([]int, nodes)
			for j := range topo.Levels[i] {
				if i != j {
					topo.Levels[i][j] = 1
				}
			}
		}
		return numa.NewMachine(topo, nodes, 1)
	}
	if _, err := New(g, machine(maxLayoutNodes+1), DefaultOptions()); err == nil {
		t.Fatalf("New built on %d nodes", maxLayoutNodes+1)
	}
	e, err := New(g, machine(maxLayoutNodes), DefaultOptions())
	if err != nil {
		t.Fatalf("New refused %d nodes: %v", maxLayoutNodes, err)
	}
	e.Close()
	parts := make([]partition.Range, maxLayoutNodes)
	for p := range parts {
		parts[p] = partition.Range{Lo: p, Hi: p + 1}
	}
	parts[len(parts)-1].Hi = n
	ac := buildLayout(g, parts, true).agents.Chunks[0]
	if int(ac.Off[keys]) != keys*maxLayoutNodes || len(ac.Part) != keys*maxLayoutNodes {
		t.Fatalf("%d entries (%d parts listed), want %d", ac.Off[keys], len(ac.Part), keys*maxLayoutNodes)
	}
	for k := range keys {
		if int(ac.Off[k]) != k*maxLayoutNodes {
			t.Fatalf("key %d's agents start at entry %d, want %d", k, ac.Off[k], k*maxLayoutNodes)
		}
		for i := ac.Off[k]; i < ac.Off[k+1]; i++ {
			// Every part keys every source, so its row r is keyed by r.
			if p := int(i - ac.Off[k]); int(ac.Part[i]) != p || int(ac.Row[i]) != k {
				t.Fatalf("key %d's agent %d is part %d row %d, want part %d row %d", k, p, ac.Part[i], ac.Row[i], p, k)
			}
		}
	}
}

package core

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"polymer/internal/graph"
	"polymer/internal/partition"
	"polymer/internal/sg"
)

// layoutBuild holds the per-node grouped edge structures for one direction.
//
// In push mode, node p owns the targets in its partition; its edges are
// grouped by source vertex ("rows"), so sweeping the rows in ascending
// order reads every source's application data sequentially — the paper's
// SEQ|R|G pattern — while all writes stay in the local partition
// (RAND|W|L). Rows whose key vertex lives on another node are agents: the
// lightweight replicas of Section 4.2 that hold just the row's edge offset
// and degree. Pull mode is the mirror image: node p owns the sources in
// its partition and rows are keyed by target, giving local random reads
// and sequential global writes.
//
// As in the paper (§4.1), a build never changes once made: it is a
// function of the topology, its partition and the direction, so every
// engine on one topology shares one build through graph.Derived
// (DESIGN.md §7 item 9) and wraps it in its own layout.
//
// Node p's rows are part p of the engine's sweep (sg.Part), in chunks of
// sg.ChunkKeys keys: IDs holds the far-side key vertices, ascending; Idx
// delimits each row's columns; Cols holds the local vertices; Wts the edge
// weights aligned with Cols (nil when unweighted). A build lays each
// node's rows out flat, one array per node for each of the four
// (sg.Part.Flat), and a patch gives the node chunks of their own: it
// rewrites the chunks its edits key into and shares the rest. The first
// patch to reach a node of a build copies all its chunks out of the flat
// arrays, so no patched generation keeps a build's arrays alive beside the
// chunks that replaced most of them.
// OwnerRows cuts the rows by the partition of their keys, so a dense sweep
// counts rows per owner a segment at a time; Start is the first row keyed
// in the node's own partition, where the rolling-order sweep begins. A
// push build also carries the agent index (sg.Agents), vertex → (node,
// chunk row) across all nodes in one agent chunk per key chunk, through
// which sparse phases find an active vertex's rows; they read only push
// builds, so pull builds carry none.
type layoutBuild struct {
	perNode    []sg.Part
	agents     *sg.Agents // nil in a pull build
	agentBytes int64
	edges      int64 // over all nodes
	n          int   // vertices
	weighted   bool  // the build carries wts (its graph was weighted)
	// parts and push are the partition and direction the build groups by.
	parts []partition.Range
	push  bool
}

// layout is one engine's handle on a shared build: it holds the build
// strongly (the graph holds it only weakly) and adds what is the engine's
// own — the sweep's parts with their schedules, views of the build's parts
// without the weights when the engine's graph is an Unweighted view of a
// weighted build, and starting at row 0 when rolling is disabled.
type layout struct {
	shared *layoutBuild
	sg.Layout
}

// A build counts a node's edges in int32, and New refuses graphs and
// machines beyond the build's two node limits: the agent index names a
// node in a byte (sg.AgentChunk.Part), so at most MaxUint8 nodes, and an
// agent chunk's entries, at most ChunkKeys a node, are counted in 16 bits
// (sg.AgentChunk.Off), so at most MaxUint16/ChunkKeys nodes.
const (
	maxLayoutEdges = math.MaxInt32
	maxLayoutNodes = min(math.MaxUint8, math.MaxUint16/sg.ChunkKeys)
)

// buildLayout groups each node's incident edges by the far-side vertex.
// When push is true, node p's local vertices are the *targets* in its
// partition and rows are keyed by source (built from the in-CSR);
// otherwise local vertices are the sources and rows are keyed by target
// (built from the out-CSR). g and parts are within maxLayoutEdges and
// maxLayoutNodes.
func buildLayout(g *graph.Graph, parts []partition.Range, push bool) *layoutBuild {
	n := g.NumVertices()
	chunks := (n + sg.ChunkKeys - 1) >> sg.ChunkShift
	l := &layoutBuild{perNode: make([]sg.Part, len(parts)), n: n, weighted: g.Weighted(), parts: parts, push: push}
	// cnt is the build's counting scratch: per node, first the edges of
	// each key vertex, then the fill position inside the node's columns;
	// int32 halves its cache footprint. keyedBits marks a node's keys with
	// edges.
	cnt := make([]int32, n)
	keyedBits := make([]uint64, (n+63)/64)
	for p, vr := range parts {
		nl := &l.perNode[p]

		// Count edges per key vertex.
		clear(cnt)
		var edges int64
		for v := vr.Lo; v < vr.Hi; v++ {
			keys := keysOf(g, graph.Vertex(v), push)
			for _, k := range keys {
				cnt[k]++
			}
			edges += int64(len(keys))
		}

		// Collect non-empty rows in ascending key order. The keys with edges
		// are marked in keyedBits without a branch, and the placement visits
		// only the marked ones: on a skewed graph about half a node's keys
		// have edges, at random, and a branch on each key mispredicts.
		rows := 0
		for w := range keyedBits {
			var word uint64
			for j, c := range cnt[w*64 : min(w*64+64, n)] {
				word |= uint64(uint32(-c)>>31) << j // bit j set when c > 0
			}
			keyedBits[w] = word
			rows += bits.OnesCount64(word)
		}
		flat := &sg.Rows{IDs: make([]graph.Vertex, rows), Idx: make([]int64, rows+1)}
		r := 0
		var off int64
		for w, word := range keyedBits {
			for ; word != 0; word &= word - 1 {
				k := w*64 + bits.TrailingZeros64(word)
				flat.IDs[r], flat.Idx[r] = graph.Vertex(k), off
				off, cnt[k] = off+int64(cnt[k]), int32(off) // the row's first free slot
				r++
			}
		}
		flat.Idx[rows] = off

		// Fill columns: sweep local vertices ascending so each row's
		// columns come out ascending too.
		flat.Cols = make([]graph.Vertex, edges)
		if l.weighted {
			flat.Wts = make([]float32, edges)
		}
		for v := vr.Lo; v < vr.Hi; v++ {
			keys := keysOf(g, graph.Vertex(v), push)
			wts := weightsOf(g, graph.Vertex(v), push)
			for i, k := range keys {
				pos := cnt[k]
				cnt[k]++
				flat.Cols[pos] = graph.Vertex(v)
				if wts != nil {
					flat.Wts[pos] = wts[i]
				}
			}
		}

		nl.Flat, nl.ChunkRows = flat, chunkRows(keyedBits, chunks)
		l.edges += edges
		ownRows(nl, parts, p)
		l.agentBytes += agentBytes(nl, p)
	}
	if push {
		l.agents = &sg.Agents{Chunks: make([]*sg.AgentChunk, chunks)}
		for c := range chunks {
			l.agents.Chunks[c] = agentChunk(l.perNode, c)
		}
	}
	return l
}

// chunkRows returns where each of chunks chunks of sg.ChunkKeys keys
// starts among the rows of the keys set in keyedBits, and the row count
// after them.
func chunkRows(keyedBits []uint64, chunks int) []int {
	first := make([]int, chunks+1)
	for w, word := range keyedBits {
		first[w/(sg.ChunkKeys/64)+1] += bits.OnesCount64(word)
	}
	for c := range chunks {
		first[c+1] += first[c]
	}
	return first
}

// ownRows cuts node p's rows by the partition of their keys (OwnerRows)
// and sets the rolling-order start: the first row keyed inside the local
// range, or row 0 when there is none.
func ownRows(nl *sg.Part, parts []partition.Range, p int) {
	rows := nl.Len()
	nl.OwnerRows = make([]int, len(parts)+1)
	for o, pr := range parts {
		nl.OwnerRows[o] = rows
		if c := pr.Lo >> sg.ChunkShift; c < len(nl.ChunkRows)-1 {
			j, _ := slices.BinarySearch(nl.Chunk(c).IDs, graph.Vertex(pr.Lo))
			nl.OwnerRows[o] = nl.ChunkRows[c] + j
		}
	}
	nl.OwnerRows[len(parts)] = rows
	if nl.Start = nl.OwnerRows[p]; nl.Start == rows {
		nl.Start = 0
	}
}

// agentBytes is node p's replica footprint: an edge offset and a degree,
// 16 bytes, for every row keyed remotely.
func agentBytes(nl *sg.Part, p int) int64 {
	return int64(nl.Len()-(nl.OwnerRows[p+1]-nl.OwnerRows[p])) * 16
}

// layoutEdit is one edge edit as a build sees it: the row key (the
// far-side vertex), the local column, and an appended edge's weight.
type layoutEdit struct {
	key, col graph.Vertex
	wt       float32
}

// Patch returns the build of l's graph after graph.Patch(deleted,
// appended), with l's partition and direction: equal, chunk for chunk, to
// buildLayout on the patched graph. In the patched graph a vertex's
// adjacency is its surviving entries in the old order followed by its
// appended edges in order, and buildLayout fills a row's columns by
// sweeping the local vertices ascending; so a row keyed by a vertex no
// edit names is the old row, and a touched row is the old one without the
// deleted pairs, merged by column with its appended edges, old copies of a
// duplicated pair first. Per node, only the chunks an edit keys into are
// rewritten, their untouched rows copied; every other chunk is the old
// one, unless the node is a build's, laid out flat, whose chunks are all
// copied out (layoutBuild); a node no edit reaches shares its old part.
// The agent index copies its predecessor's chunk pointers and rebuilds the
// agent chunk of every key chunk where some node's row appeared or
// vanished (agentChunk); an agent chunk whose rows only changed columns
// names the same rows as before and is shared. With no row moved the whole
// index is shared.
func (l *layoutBuild) Patch(deleted, appended []graph.Edge) *layoutBuild {
	out := &layoutBuild{perNode: make([]sg.Part, len(l.parts)), n: l.n, weighted: l.weighted, parts: l.parts, push: l.push,
		agents: l.agents, edges: l.edges}
	dels, adds := l.editsByNode(deleted), l.editsByNode(appended)
	moved := make([]bool, (l.n+sg.ChunkKeys-1)>>sg.ChunkShift) // by key chunk: a row appeared or vanished
	for p := range l.parts {
		nl := &out.perNode[p]
		if len(dels[p]) == 0 && len(adds[p]) == 0 {
			*nl = l.perNode[p]
		} else {
			out.edges += patchPart(nl, &l.perNode[p], dels[p], adds[p], l.weighted, moved)
			ownRows(nl, l.parts, p)
		}
		out.agentBytes += agentBytes(nl, p)
	}
	if l.agents != nil && slices.Contains(moved, true) {
		out.agents = &sg.Agents{Chunks: slices.Clone(l.agents.Chunks)}
		for c, m := range moved {
			if m {
				out.agents.Chunks[c] = agentChunk(out.perNode, c)
			}
		}
	}
	return out
}

// editsByNode sorts edges into the node holding their local endpoint, as
// layoutEdits ordered by (key, column); edits that tie keep their order.
func (l *layoutBuild) editsByNode(edges []graph.Edge) [][]layoutEdit {
	by := make([][]layoutEdit, len(l.parts))
	for _, e := range edges {
		ed := layoutEdit{key: e.Dst, col: e.Src, wt: e.Wt}
		if l.push {
			ed.key, ed.col = e.Src, e.Dst
		}
		p := partition.NodeOf(l.parts, ed.col)
		by[p] = append(by[p], ed)
	}
	for _, eds := range by {
		slices.SortStableFunc(eds, func(a, b layoutEdit) int {
			if c := cmp.Compare(a.key, b.key); c != 0 {
				return c
			}
			return cmp.Compare(a.col, b.col)
		})
	}
	return by
}

// patchPart writes into nl the part prev with dels' pairs removed and adds
// appended, both ordered by (key, column) (editsByNode), in chunks of its
// own: the chunks the edits key into are rewritten (patchRows), the
// others are prev's, or, when prev is laid out flat, copies of them. It
// sets moved[c] when a row of chunk c appeared or vanished, and reports by
// how many edges the part grew. Chunks and ChunkRows are set; OwnerRows
// and Start are the caller's (ownRows).
func patchPart(nl, prev *sg.Part, dels, adds []layoutEdit, weighted bool, moved []bool) (edges int64) {
	if prev.Flat == nil {
		nl.Chunks = slices.Clone(prev.Chunks)
	} else {
		nl.Chunks = make([]*sg.Rows, len(prev.ChunkRows)-1)
	}
	for c := range nl.Chunks {
		last := graph.Vertex(c<<sg.ChunkShift | (sg.ChunkKeys - 1)) // the chunk's last key
		d, a := cut(&dels, last), cut(&adds, last)
		if len(d) == 0 && len(a) == 0 && prev.Flat == nil {
			continue
		}
		old, ch := prev.Chunk(c), new(sg.Rows)
		nl.Chunks[c] = ch
		if patchRows(ch, &old, d, a, weighted) {
			moved[c] = true
		}
		edges += ch.Edges() - old.Edges()
	}
	nl.ChunkRows = make([]int, len(nl.Chunks)+1)
	for c, ch := range nl.Chunks {
		nl.ChunkRows[c+1] = nl.ChunkRows[c] + ch.Len()
	}
	return edges
}

// patchRows writes into nl fresh arrays holding the rows of prev with
// dels' pairs removed and adds appended, both ordered by (key, column),
// its offsets from 0. It reports whether a row appeared or vanished.
func patchRows(nl, prev *sg.Rows, dels, adds []layoutEdit, weighted bool) (moved bool) {
	*nl = sg.Rows{
		IDs:  make([]graph.Vertex, 0, len(prev.IDs)+len(adds)),
		Idx:  make([]int64, 0, len(prev.IDs)+len(adds)+1),
		Cols: make([]graph.Vertex, 0, prev.Edges()+int64(len(adds))),
	}
	if weighted {
		nl.Wts = make([]float32, 0, cap(nl.Cols))
	}
	r := 0 // prev's first row not emitted yet
	for len(dels) > 0 || len(adds) > 0 {
		k := dels
		if len(dels) == 0 || (len(adds) > 0 && adds[0].key < dels[0].key) {
			k = adds
		}
		key := k[0].key
		d, a := cut(&dels, key), cut(&adds, key)

		rk, found := slices.BinarySearch(prev.IDs[r:], key)
		rk += r
		copyRows(nl, prev, r, rk)
		var cols []graph.Vertex
		var wts []float32
		r = rk
		if found {
			lo, hi := prev.Idx[rk], prev.Idx[rk+1]
			cols = prev.Cols[lo:hi]
			if weighted {
				wts = prev.Wts[lo:hi]
			}
			r = rk + 1
		}
		start := int64(len(nl.Cols))
		for i := 0; i < len(cols) || len(a) > 0; {
			if len(a) == 0 || (i < len(cols) && cols[i] <= a[0].col) {
				c := cols[i]
				for len(d) > 0 && d[0].col < c {
					d = d[1:]
				}
				if len(d) == 0 || d[0].col != c {
					nl.Cols = append(nl.Cols, c)
					if weighted {
						nl.Wts = append(nl.Wts, wts[i])
					}
				}
				i++
				continue
			}
			nl.Cols = append(nl.Cols, a[0].col)
			if weighted {
				nl.Wts = append(nl.Wts, a[0].wt)
			}
			a = a[1:]
		}
		kept := int64(len(nl.Cols)) > start
		if kept {
			nl.IDs = append(nl.IDs, key)
			nl.Idx = append(nl.Idx, start)
		}
		moved = moved || kept != found
	}
	copyRows(nl, prev, r, len(prev.IDs))
	nl.Idx = append(nl.Idx, int64(len(nl.Cols)))
	return moved
}

// cut removes the leading edits keyed at most last from *eds and returns
// them.
func cut(eds *[]layoutEdit, last graph.Vertex) []layoutEdit {
	i := 0
	for i < len(*eds) && (*eds)[i].key <= last {
		i++
	}
	head := (*eds)[:i]
	*eds = (*eds)[i:]
	return head
}

// copyRows appends prev's rows [from, to) to nl unchanged: their offsets
// move by however much the rows before them grew or shrank.
func copyRows(nl, prev *sg.Rows, from, to int) {
	if from == to {
		return
	}
	shift := int64(len(nl.Cols)) - prev.Idx[from]
	nl.IDs = append(nl.IDs, prev.IDs[from:to]...)
	base := len(nl.Idx)
	nl.Idx = append(nl.Idx, prev.Idx[from:to]...)
	if shift != 0 {
		for i := base; i < len(nl.Idx); i++ {
			nl.Idx[i] += shift
		}
	}
	lo, hi := prev.Idx[from], prev.Idx[to]
	nl.Cols = append(nl.Cols, prev.Cols[lo:hi]...)
	if nl.Wts != nil {
		nl.Wts = append(nl.Wts, prev.Wts[lo:hi]...)
	}
}

// agentChunk returns the agents of key chunk c over the nodes' parts: the
// build fills every chunk of its index with it, and a patch the chunks
// whose rows moved. Off[k+1] first counts the nodes with a row keyed by
// the chunk's key k; a prefix sum turns the counts into each key's first
// entry, one place up (Off[k+1] = the entries of keys below k), so placing
// the rows node by node, each advancing its key's Off[k+1], leaves
// Off[k+1] at the key's end and Off[k] at its first entry: entries come
// out in node order per key, with no scratch beside the chunk.
func agentChunk(perNode []sg.Part, c int) *sg.AgentChunk {
	ac := new(sg.AgentChunk)
	base := graph.Vertex(c << sg.ChunkShift)
	off := ac.Off[1:]
	for p := range perNode {
		for _, k := range perNode[p].Chunk(c).IDs {
			off[k-base]++
		}
	}
	var entries uint16
	for k := range off {
		off[k], entries = entries, entries+off[k]
	}
	buf := make([]uint8, 2*int(entries))
	part, row := buf[:entries:entries], buf[entries:]
	for p := range perNode {
		for r, k := range perNode[p].Chunk(c).IDs {
			i := off[k-base]
			off[k-base] = i + 1
			part[i], row[i] = uint8(p), uint8(r)
		}
	}
	ac.Part, ac.Row = part, row
	return ac
}

// keysOf returns the far-side vertices of v's local edges: in-neighbours
// when grouping for push (v is a target), out-neighbours for pull.
func keysOf(g *graph.Graph, v graph.Vertex, push bool) []graph.Vertex {
	if push {
		return g.InNeighbors(v)
	}
	return g.OutNeighbors(v)
}

func weightsOf(g *graph.Graph, v graph.Vertex, push bool) []float32 {
	if push {
		return g.InWeights(v)
	}
	return g.OutWeights(v)
}

// layoutBytes returns the simulated footprint of build l, its weights
// counted when wts is set. It is charged from the row and edge totals as
// if each node kept its rows in flat arrays: per node, 4 bytes a row key,
// 8 an offset with one more for the end, 4 a column and 4 a weight; the
// host's chunk headers and each chunk's end offset are not charged. Beside
// the rows it charges a one-byte owner per row, which the host keeps as the
// nodes+1 OwnerRows boundaries, and an n-entry, 4-byte agent lookup table
// per node in both directions: the paper's per-node lookup (§4.2), which
// the host keeps instead as one agent index across the nodes of a push
// build (sg.Agents). The charge stays because it is a recorded result —
// every simulated peak, both dump goldens and the benchmark's
// sim_peak_mb_polymer — and moving it is a deliberate re-baseline of the
// memory scorecard (EXPERIMENTS.md deviation 6), not a side effect of a
// host change.
func layoutBytes(l *layoutBuild, wts bool) int64 {
	var rows int64
	for p := range l.perNode {
		rows += int64(l.perNode[p].Len())
	}
	nodes := int64(len(l.perNode))
	b := rows*4 + (rows+nodes)*8 + l.edges*4 + rows + nodes*int64(l.n)*4
	if wts {
		b += l.edges * 4
	}
	return b
}

// layoutOf lazily wraps the push- or pull-direction build. If registering
// its simulated allocation fails (injected fault), the layout is not kept:
// the replay after recovery registers and charges the same shared build
// again, keeping the allocation accounting identical to a fault-free run.
func (e *Engine) layoutOf(push bool) *layout {
	slot := &e.pull
	if push {
		slot = &e.push
	}
	if *slot == nil {
		l := e.newLayout(push)
		if !e.registerLayout(l) {
			return l // e.err is set; the phase will abort uncharged
		}
		*slot = l
	}
	return *slot
}

// newLayout wraps the build its topology shares for the engine's partition
// and direction: a snapshot whose predecessor holds the build under the
// same partition patches it, anything else builds it (graph.Derived). An
// engine on an Unweighted view of a weighted graph gets the weighted build
// with its weights hidden (sg.Layout.Unweighted), so it charges exactly the
// bytes of an unweighted build; without rolling, every node sweeps from
// row 0, on a copy of the parts' headers. Neither copies a row.
func (e *Engine) newLayout(push bool) *layout {
	key := fmt.Sprintf("core.layout push=%t bounds=%v", push, e.Bounds())
	b := graph.Derived(e.G, key, func(root *graph.Graph) *layoutBuild {
		e.lineage.LayoutsBuilt++
		return buildLayout(root, e.parts, push)
	}, func(prev *layoutBuild, _ *graph.Graph, deleted, appended []graph.Edge) *layoutBuild {
		e.lineage.LayoutsPatched++
		return prev.Patch(deleted, appended)
	})
	parts := b.perNode
	if e.opt.DisableRolling {
		parts = slices.Clone(parts)
		for p := range parts {
			parts[p].Start = 0
		}
	}
	l := &layout{shared: b, Layout: sg.NewLayout(parts, b.agents, e.M.CoresPerNode)}
	l.Unweighted = b.weighted && !e.G.Weighted()
	return l
}

func (e *Engine) registerLayout(l *layout) bool {
	b := layoutBytes(l.shared, l.shared.weighted && !l.Unweighted)
	if err := e.M.Alloc().Grow("polymer/topology", b); err != nil {
		e.Fail(err)
		return false
	}
	agents := l.shared.agentBytes
	if agents > 0 {
		if err := e.M.Alloc().Grow("polymer/agents", agents); err != nil {
			e.Fail(err)
			e.M.Alloc().Release("polymer/topology", b)
			return false
		}
	}
	e.topoBytes += b
	e.Tier.Topo.GrowDemandEven(b + agents)
	return true
}

package core

import (
	"fmt"
	"slices"

	"polymer/internal/graph"
	"polymer/internal/par"
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
type layoutBuild struct {
	perNode    []nodeLayout
	agentBytes int64
	n          int  // vertices
	weighted   bool // the build carries wts (its graph was weighted)
}

// layout is one engine's handle on a shared build: it holds the build
// strongly (the graph holds it only weakly) and adds what is the engine's
// own — the row-sweep schedules, and per-node views without the weights
// when the engine's graph is an Unweighted view of a weighted build.
type layout struct {
	shared  *layoutBuild
	perNode []nodeLayout

	// strides[p] is node p's row-sweep schedule. Row counts are fixed once
	// the layout is built, so the schedule is computed here instead of per
	// phase. maxChunk is the longest chunk of any of them, the most rows a
	// segment can hold.
	strides  []par.Strided
	maxChunk int
}

type nodeLayout struct {
	vr partition.Range

	// The node's rows: IDs holds the far-side key vertices, ascending; Idx
	// delimits each row's columns; Cols holds the local vertices; Wts the
	// edge weights aligned with Cols (nil when unweighted).
	sg.Rows

	// ownerRows[o] is the first row keyed in node o's partition, and
	// ownerRows[nodes] the row count: rows ascend by key and partitions are
	// contiguous, so node o owns the keys of rows [ownerRows[o],
	// ownerRows[o+1]). A dense sweep cuts its chunks at these boundaries
	// and counts rows per owner a run at a time.
	ownerRows []int

	// rowOf maps a vertex id to its row index in this node (-1 if the
	// vertex has no edges here); it is the per-node agent lookup used by
	// sparse EdgeMap, which reads only the push build, so pull builds leave
	// it nil.
	rowOf []int32

	// startRow is the first row whose key belongs to this node's own
	// partition — where the rolling-order sweep begins.
	startRow int
}

// eachSegment cuts the chunk [lo, hi) of a sweep over the node's rows
// that starts at row start and wraps to row 0 into segments — runs of
// consecutive rows keyed by one owner — and calls f(o, rlo, rhi) for each
// in sweep order: rows [rlo, rhi), keyed in node o's partition.
func (nl *nodeLayout) eachSegment(start int, lo, hi int64, f func(o, rlo, rhi int)) {
	rows := len(nl.IDs)
	for i, end := int(lo), int(hi); i < end; {
		r := i + start
		if r >= rows {
			r -= rows
		}
		o := 0
		for nl.ownerRows[o+1] <= r {
			o++
		}
		rhi := min(r+end-i, nl.ownerRows[o+1])
		f(o, r, rhi)
		i += rhi - r
	}
}

// buildLayout groups each node's incident edges by the far-side vertex.
// When push is true, node p's local vertices are the *targets* in its
// partition and rows are keyed by source (built from the in-CSR);
// otherwise local vertices are the sources and rows are keyed by target
// (built from the out-CSR).
func buildLayout(g *graph.Graph, parts []partition.Range, push bool) *layoutBuild {
	n := g.NumVertices()
	l := &layoutBuild{perNode: make([]nodeLayout, len(parts)), n: n, weighted: g.Weighted()}
	// cnt is the build's one counting scratch: per node, first the edges of
	// each key vertex, then the fill position inside the key's row.
	cnt := make([]int64, n)
	for p, vr := range parts {
		nl := &l.perNode[p]
		nl.vr = vr

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

		// Collect non-empty rows in ascending key order.
		rows := 0
		for k := 0; k < n; k++ {
			if cnt[k] > 0 {
				rows++
			}
		}
		nl.IDs = make([]graph.Vertex, rows)
		nl.Idx = make([]int64, rows+1)
		if push {
			nl.rowOf = make([]int32, n)
			for i := range nl.rowOf {
				nl.rowOf[i] = -1
			}
		}
		r := 0
		var off int64
		for k := 0; k < n; k++ {
			if cnt[k] == 0 {
				continue
			}
			nl.IDs[r] = graph.Vertex(k)
			nl.Idx[r] = off
			if push {
				nl.rowOf[k] = int32(r)
			}
			off, cnt[k] = off+cnt[k], off // the row's first free slot
			r++
		}
		nl.Idx[rows] = off

		// Fill columns: sweep local vertices ascending so each row's
		// columns come out ascending too.
		nl.Cols = make([]graph.Vertex, edges)
		if l.weighted {
			nl.Wts = make([]float32, edges)
		}
		for v := vr.Lo; v < vr.Hi; v++ {
			keys := keysOf(g, graph.Vertex(v), push)
			wts := weightsOf(g, graph.Vertex(v), push)
			for i, k := range keys {
				pos := cnt[k]
				cnt[k]++
				nl.Cols[pos] = graph.Vertex(v)
				if wts != nil {
					nl.Wts[pos] = wts[i]
				}
			}
		}

		nl.ownerRows = make([]int, len(parts)+1)
		for o, pr := range parts {
			nl.ownerRows[o], _ = slices.BinarySearch(nl.IDs, graph.Vertex(pr.Lo))
		}
		nl.ownerRows[len(parts)] = rows

		// Rolling-order start: first row keyed inside the local range.
		if nl.startRow = nl.ownerRows[p]; nl.startRow == rows {
			nl.startRow = 0
		}

		agents := rows - (nl.ownerRows[p+1] - nl.ownerRows[p]) // rows keyed remotely
		l.agentBytes += int64(agents) * 16                     // replica: edge offset + degree
	}
	return l
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

// bytes returns the simulated footprint of the layout's arrays. The
// footprint has an n-entry rowOf table per node in both directions, as it
// always has, though only push builds allocate one on the host, and a
// one-byte owner per row, which the host keeps as the nodes+1 ownerRows
// boundaries.
func (l *layout) bytes() int64 {
	var b int64
	for i := range l.perNode {
		nl := &l.perNode[i]
		b += int64(len(nl.IDs))*4 + int64(len(nl.Idx))*8
		b += int64(len(nl.Cols))*4 + int64(len(nl.Wts))*4
		b += int64(len(nl.IDs)) + int64(l.shared.n)*4
	}
	return b
}

// ensurePush lazily wraps the push-direction build. If registering its
// simulated allocation fails (injected fault), the layout is not kept: the
// replay after recovery registers and charges the same shared build again,
// keeping the allocation accounting identical to a fault-free run.
func (e *Engine) ensurePush() *layout { return e.ensureLayout(&e.push, true) }

// ensurePull lazily wraps the pull-direction build.
func (e *Engine) ensurePull() *layout { return e.ensureLayout(&e.pull, false) }

func (e *Engine) ensureLayout(slot **layout, push bool) *layout {
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
// and direction. An engine on an Unweighted view of a weighted graph gets
// the weighted build with its weights hidden, so it charges exactly the
// bytes of an unweighted build.
func (e *Engine) newLayout(push bool) *layout {
	key := fmt.Sprintf("core.layout push=%t bounds=%v", push, e.bounds)
	b := graph.Derived(e.G, key, func(root *graph.Graph) *layoutBuild {
		return buildLayout(root, e.parts, push)
	})
	l := &layout{shared: b, perNode: b.perNode}
	if b.weighted && !e.G.Weighted() {
		l.perNode = slices.Clone(b.perNode)
		for p := range l.perNode {
			l.perNode[p].Wts = nil
		}
	}
	return l
}

func (e *Engine) registerLayout(l *layout) bool {
	l.strides = make([]par.Strided, len(l.perNode))
	for p := range l.perNode {
		rows := int64(len(l.perNode[p].IDs))
		l.strides[p] = par.MakeStrided(rows, par.ChunkSize(rows, e.M.CoresPerNode), e.M.CoresPerNode)
		l.maxChunk = max(l.maxChunk, int(l.strides[p].MaxChunk()))
	}
	b := l.bytes()
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
	e.TierTopo.GrowDemandEven(b + agents)
	return true
}

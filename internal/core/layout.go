package core

import (
	"fmt"
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
// Node p's rows are part p of the engine's sweep (sg.Part): IDs holds the
// far-side key vertices, ascending; Idx delimits each row's columns; Cols
// holds the local vertices; Wts the edge weights aligned with Cols (nil
// when unweighted). OwnerRows cuts the rows by the partition of their
// keys, so a dense sweep counts rows per owner a segment at a time; RowOf
// is the per-node agent lookup sparse phases use, which read only the push
// build, so pull builds leave it nil; Start is the first row keyed in the
// node's own partition, where the rolling-order sweep begins.
type layoutBuild struct {
	perNode    []sg.Part
	agentBytes int64
	n          int  // vertices
	weighted   bool // the build carries wts (its graph was weighted)
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

// buildLayout groups each node's incident edges by the far-side vertex.
// When push is true, node p's local vertices are the *targets* in its
// partition and rows are keyed by source (built from the in-CSR);
// otherwise local vertices are the sources and rows are keyed by target
// (built from the out-CSR).
func buildLayout(g *graph.Graph, parts []partition.Range, push bool) *layoutBuild {
	n := g.NumVertices()
	l := &layoutBuild{perNode: make([]sg.Part, len(parts)), n: n, weighted: g.Weighted()}
	// cnt is the build's one counting scratch: per node, first the edges of
	// each key vertex, then the fill position inside the key's row.
	cnt := make([]int64, n)
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
			nl.RowOf = make([]int32, n)
			for i := range nl.RowOf {
				nl.RowOf[i] = -1
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
				nl.RowOf[k] = int32(r)
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

		nl.OwnerRows = make([]int, len(parts)+1)
		for o, pr := range parts {
			nl.OwnerRows[o], _ = slices.BinarySearch(nl.IDs, graph.Vertex(pr.Lo))
		}
		nl.OwnerRows[len(parts)] = rows

		// Rolling-order start: first row keyed inside the local range.
		if nl.Start = nl.OwnerRows[p]; nl.Start == rows {
			nl.Start = 0
		}

		agents := rows - (nl.OwnerRows[p+1] - nl.OwnerRows[p]) // rows keyed remotely
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

// layoutBytes returns the simulated footprint of the arrays of parts, a
// layout over n vertices. The footprint has an n-entry RowOf table per
// node in both directions, as it always has, though only push builds
// allocate one on the host, and a one-byte owner per row, which the host
// keeps as the nodes+1 OwnerRows boundaries.
func layoutBytes(parts []sg.Part, n int) int64 {
	var b int64
	for i := range parts {
		pt := &parts[i]
		b += int64(len(pt.IDs))*4 + int64(len(pt.Idx))*8
		b += int64(len(pt.Cols))*4 + int64(len(pt.Wts))*4
		b += int64(len(pt.IDs)) + int64(n)*4
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
// and direction. An engine on an Unweighted view of a weighted graph gets
// the weighted build with its weights hidden, so it charges exactly the
// bytes of an unweighted build; without rolling, every node sweeps from
// row 0.
func (e *Engine) newLayout(push bool) *layout {
	key := fmt.Sprintf("core.layout push=%t bounds=%v", push, e.Bounds())
	b := graph.Derived(e.G, key, func(root *graph.Graph) *layoutBuild {
		return buildLayout(root, e.parts, push)
	})
	parts := b.perNode
	hideWts := b.weighted && !e.G.Weighted()
	if hideWts || e.opt.DisableRolling {
		parts = slices.Clone(parts)
		for p := range parts {
			if hideWts {
				parts[p].Wts = nil
			}
			if e.opt.DisableRolling {
				parts[p].Start = 0
			}
		}
	}
	return &layout{shared: b, Layout: sg.NewLayout(parts, e.M.CoresPerNode)}
}

func (e *Engine) registerLayout(l *layout) bool {
	b := layoutBytes(l.Parts, l.shared.n)
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

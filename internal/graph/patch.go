// Derived graphs that reuse their parent's arrays: the weightless view of a
// weighted graph, and the successor of a graph under a small set of edge
// deletions and insertions.

package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Unweighted returns g without its weights: a graph over the same chunks
// (shared, not copied) that hides their weights, so Weighted,
// TopologyBytes and every byte an engine charges read what a graph built
// by FromEdges(..., false) from the same edge list reads. It is built once
// per graph, on first use (like InvOutDegrees), and is g itself when g has
// no weights; safe for concurrent callers.
func (g *Graph) Unweighted() *Graph {
	if !g.Weighted() {
		return g
	}
	g.unweightedOnce.Do(func() {
		g.unweighted = &Graph{n: g.n, m: g.m, out: g.out, in: g.in, root: g}
	})
	return g.unweighted
}

// Patch returns g's successor as a new graph: every edge whose (Src, Dst)
// pair is in deleted is removed (all copies; Wt is ignored), then the edges
// of appended are added in order. Only the chunks whose rows a pair or an
// edge names are rewritten, their rows filtered and extended; every other
// chunk is g's, shared by header copy. The cost is the touched chunks plus
// one chunk header a chunk, not a copy of g — except on a graph FromEdges
// built, whose chunks the first patch copies out of its flat arrays.
//
// Each row of the result is the surviving entries of g's row in g's order,
// followed by the row's appended edges in appended's order. That is the row
// FromEdges builds from [g's edge list minus deleted] ++ appended only if g
// itself is FromEdges of that edge list: rows already [survivors in list
// order] ++ [earlier appends in insertion order], in both directions. A
// generated dataset is not — its in-rows are in generation order, not the
// source-major order of mutate.Flatten — so the first snapshot over a base
// must be folded (mutate.Store.GraphAt does); patching that snapshot and
// every one after it then equals the clean fold row for row.
// Weights of appended are kept iff g is weighted.
//
// The result is g's successor in g's lineage (lineage.go): a value it
// derives under a key g still holds is patched from g's with these edits,
// and g, superseded, drops its own link to its predecessor.
func (g *Graph) Patch(deleted, appended []Edge) *Graph {
	for _, edges := range [2][]Edge{deleted, appended} {
		for _, e := range edges {
			if int(e.Src) >= g.n || int(e.Dst) >= g.n {
				panic(fmt.Sprintf("graph: edge (%d,%d) outside [0,%d)", e.Src, e.Dst, g.n))
			}
		}
	}
	p := &Graph{n: g.n, weighted: g.weighted}
	p.out = g.out.patch(rowEdits(deleted, false), rowEdits(appended, false), g.weighted)
	p.in = g.in.patch(rowEdits(deleted, true), rowEdits(appended, true), g.weighted)
	p.m = p.out.before[len(p.out.chunks)]
	g.link(p, deleted, appended)
	return p
}

// rowEdit is one edge seen from one direction's CSR: the row it lives in
// and the endpoint stored there.
type rowEdit struct {
	row, far Vertex
	wt       float32
}

// rowEdits keys edges by source (or by destination when byDst), grouped by
// row in ascending order; within a row the input order is kept.
func rowEdits(edges []Edge, byDst bool) []rowEdit {
	out := make([]rowEdit, len(edges))
	for i, e := range edges {
		out[i] = rowEdit{row: e.Src, far: e.Dst, wt: e.Wt}
		if byDst {
			out[i].row, out[i].far = e.Dst, e.Src
		}
	}
	slices.SortStableFunc(out, func(a, b rowEdit) int { return cmp.Compare(a.row, b.row) })
	return out
}

// cut removes and returns the leading edits of *eds whose row is at most
// last.
func cut(eds *[]rowEdit, last Vertex) []rowEdit {
	k := 0
	for k < len(*eds) && (*eds)[k].row <= last {
		k++
	}
	head := (*eds)[:k]
	*eds = (*eds)[k:]
	return head
}

// patch returns the direction d with del's pairs removed and add's edges
// appended, both grouped by ascending row (rowEdits): the chunks they name
// are rewritten (patchChunk), the others are d's. When d's chunks view
// FromEdges' flat arrays, every chunk is copied out of them, so that no
// descendant keeps the flat arrays alive for the few chunks no edit has
// reached yet; from then on the chunks are their own.
func (d *csr) patch(del, add []rowEdit, weighted bool) csr {
	p := csr{chunks: slices.Clone(d.chunks), before: make([]int64, len(d.before))}
	for c := range p.chunks {
		first := Vertex(c << ChunkShift)
		dc, ac := cut(&del, first|chunkMask), cut(&add, first|chunkMask)
		if len(dc) > 0 || len(ac) > 0 || d.flat {
			p.chunks[c] = patchChunk(&d.chunks[c], first, dc, ac, weighted)
		}
		p.before[c+1] = p.before[c] + p.chunks[c].edges()
	}
	return p
}

// patchChunk returns chunk old, whose first row is vertex first's, in
// arrays of its own with del's pairs removed and add's edges appended,
// both its rows' edits grouped by ascending row.
func patchChunk(old *Chunk, first Vertex, del, add []rowEdit, weighted bool) Chunk {
	rows := len(old.Idx) - 1
	nc := Chunk{Idx: make([]int64, rows+1), Cols: make([]Vertex, 0, old.edges()+int64(len(add)))}
	if weighted {
		nc.Wts = make([]float32, 0, cap(nc.Cols))
	}
	for r := range rows {
		v := first + Vertex(r)
		nc.Idx[r] = int64(len(nc.Cols))
		lo, hi := old.Idx[r], old.Idx[r+1]
		if gone := cut(&del, v); len(gone) == 0 { // the row is copied whole
			nc.Cols = append(nc.Cols, old.Cols[lo:hi]...)
			if weighted {
				nc.Wts = append(nc.Wts, old.Wts[lo:hi]...)
			}
		} else {
			slices.SortFunc(gone, func(a, b rowEdit) int { return cmp.Compare(a.far, b.far) })
			for j := lo; j < hi; j++ {
				if _, hit := slices.BinarySearchFunc(gone, old.Cols[j], func(d rowEdit, far Vertex) int { return cmp.Compare(d.far, far) }); hit {
					continue
				}
				nc.Cols = append(nc.Cols, old.Cols[j])
				if weighted {
					nc.Wts = append(nc.Wts, old.Wts[j])
				}
			}
		}
		for _, a := range cut(&add, v) {
			nc.Cols = append(nc.Cols, a.far)
			if weighted {
				nc.Wts = append(nc.Wts, a.wt)
			}
		}
	}
	nc.Idx[rows] = int64(len(nc.Cols))
	return nc
}

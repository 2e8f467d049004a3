// Derived graphs that reuse their parent's arrays: the weightless view of a
// weighted graph, and the successor of a graph under a small set of edge
// deletions and insertions.

package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Unweighted returns g without its weights: a graph over the same index
// and neighbour arrays (shared, not copied) whose weight slices are nil, so
// Weighted, TopologyBytes and every byte an engine charges read what a
// graph built by FromEdges(..., false) from the same edge list reads. It is
// built once per graph, on first use (like InvOutDegrees), and is g itself
// when g has no weights; safe for concurrent callers.
func (g *Graph) Unweighted() *Graph {
	if !g.Weighted() {
		return g
	}
	g.unweightedOnce.Do(func() {
		g.unweighted = &Graph{
			n: g.n, m: g.m,
			OutIndex: g.OutIndex, OutNbrs: g.OutNbrs,
			InIndex: g.InIndex, InNbrs: g.InNbrs,
			root: g,
		}
	})
	return g.unweighted
}

// Patch returns g's successor as a new graph: every edge whose (Src, Dst)
// pair is in deleted is removed (all copies; Wt is ignored), then the edges
// of appended are added in order. Untouched rows are copied in runs; only
// the rows a pair or an edge names are filtered and extended, so the cost
// is a memory copy of g plus work proportional to the touched rows.
//
// Each row of the result is the surviving entries of g's row in g's order,
// followed by the row's appended edges in appended's order. That is the row
// FromEdges builds from [g's edge list minus deleted] ++ appended only if g
// itself is FromEdges of that edge list: rows already [survivors in list
// order] ++ [earlier appends in insertion order], in both directions. A
// generated dataset is not — its in-rows are in generation order, not the
// source-major order of mutate.Flatten — so the first snapshot over a base
// must be folded (mutate.Store.GraphAt does); patching that snapshot and
// every one after it then equals the clean fold array for array.
// Weights of appended are kept iff g is weighted.
func (g *Graph) Patch(deleted, appended []Edge) *Graph {
	for _, edges := range [2][]Edge{deleted, appended} {
		for _, e := range edges {
			if int(e.Src) >= g.n || int(e.Dst) >= g.n {
				panic(fmt.Sprintf("graph: edge (%d,%d) outside [0,%d)", e.Src, e.Dst, g.n))
			}
		}
	}
	p := &Graph{n: g.n}
	p.OutIndex, p.OutNbrs, p.OutWts = patchCSR(g.n, g.OutIndex, g.OutNbrs, g.OutWts,
		rowEdits(deleted, false), rowEdits(appended, false))
	p.InIndex, p.InNbrs, p.InWts = patchCSR(g.n, g.InIndex, g.InNbrs, g.InWts,
		rowEdits(deleted, true), rowEdits(appended, true))
	p.m = int64(len(p.OutNbrs))
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

// patchCSR builds one direction of Patch's result. del and add are grouped
// by ascending row (rowEdits); rows are visited ascending, the runs between
// touched rows copied whole.
func patchCSR(n int, index []int64, nbrs []Vertex, wts []float32, del, add []rowEdit) ([]int64, []Vertex, []float32) {
	newIndex := make([]int64, n+1)
	newNbrs := make([]Vertex, 0, len(nbrs)+len(add))
	var newWts []float32
	if wts != nil {
		newWts = make([]float32, 0, cap(newNbrs))
	}
	// copyRows emits rows [from, to) unchanged: their offsets move by
	// however much the rows before them grew or shrank.
	copyRows := func(from, to int) {
		shift := int64(len(newNbrs)) - index[from]
		for v := from; v < to; v++ {
			newIndex[v] = index[v] + shift
		}
		newNbrs = append(newNbrs, nbrs[index[from]:index[to]]...)
		if wts != nil {
			newWts = append(newWts, wts[index[from]:index[to]]...)
		}
	}
	next := 0 // first row not emitted yet
	for len(del) > 0 || len(add) > 0 {
		var r Vertex
		if len(add) == 0 || (len(del) > 0 && del[0].row < add[0].row) {
			r = del[0].row
		} else {
			r = add[0].row
		}
		copyRows(next, int(r))
		next = int(r) + 1
		newIndex[r] = int64(len(newNbrs))

		k := 0
		for k < len(del) && del[k].row == r {
			k++
		}
		gone := del[:k]
		del = del[k:]
		slices.SortFunc(gone, func(a, b rowEdit) int { return cmp.Compare(a.far, b.far) })
		for j := index[r]; j < index[r+1]; j++ {
			if _, hit := slices.BinarySearchFunc(gone, nbrs[j], func(d rowEdit, far Vertex) int { return cmp.Compare(d.far, far) }); hit {
				continue
			}
			newNbrs = append(newNbrs, nbrs[j])
			if wts != nil {
				newWts = append(newWts, wts[j])
			}
		}
		for ; len(add) > 0 && add[0].row == r; add = add[1:] {
			newNbrs = append(newNbrs, add[0].far)
			if wts != nil {
				newWts = append(newWts, add[0].wt)
			}
		}
	}
	copyRows(next, n)
	newIndex[n] = int64(len(newNbrs))
	return newIndex, newNbrs, newWts
}

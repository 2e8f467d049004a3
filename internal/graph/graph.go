// Package graph provides the immutable dual compressed-sparse-row (CSR)
// graph substrate shared by all engines.
//
// Following the paper's Figure 1, a graph holds both directions: the
// out-edges grouped by source vertex and the in-edges grouped by target
// vertex, plus per-vertex offsets and degrees. Each direction's rows live
// in chunks of ChunkSize consecutive vertices, so that a successor made by
// Patch rewrites only the chunks its edits touch and shares the others.
// Topology is immutable during computation (Section 4.1).
package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// Vertex is a vertex identifier. Graphs up to ~4 billion vertices are
// representable; edge counts use int64.
type Vertex = uint32

// Edge is one directed edge with an optional weight.
type Edge struct {
	Src, Dst Vertex
	Wt       float32
}

// ChunkSize is the number of vertices whose rows one chunk holds, per
// direction: vertex v's row is row v&(ChunkSize−1) of chunk v>>ChunkShift.
// A 32-edit commit on the serving layer's weighted power-law graph at
// small scale (16,000 vertices) rewrites about 13 % of the graph's bytes
// at 64 vertices a chunk, against 41 % at 256.
const (
	ChunkShift = 6
	ChunkSize  = 1 << ChunkShift
	chunkMask  = ChunkSize - 1
)

// Chunk is one direction's rows of ChunkSize consecutive vertices (fewer in
// a graph's last chunk): row r's far endpoints are Cols[Idx[r]:Idx[r+1]],
// its weights the same range of Wts. The offsets index the chunk's own
// Cols, which FromEdges makes a view of one flat array for every chunk and
// Patch an array of the chunk's own. Wts is meaningful only on a weighted
// graph: an Unweighted view shares its root's chunks, weights and all.
type Chunk struct {
	Idx  []int64
	Cols []Vertex
	Wts  []float32
}

// edges returns the number of edges in the chunk's rows.
func (c *Chunk) edges() int64 { return c.Idx[len(c.Idx)-1] - c.Idx[0] }

// csr is one direction of a graph, in chunks.
type csr struct {
	chunks []Chunk
	// before[c] counts the edges in chunks [0, c); the last entry is |E|.
	before []int64
	// flat reports that the chunks are views of FromEdges' flat arrays.
	flat bool
}

// row returns vertex v's row: its chunk and the row's offsets in it.
func (d *csr) row(v Vertex) (*Chunk, int64, int64) {
	c := &d.chunks[v>>ChunkShift]
	r := v & chunkMask
	return c, c.Idx[r], c.Idx[r+1]
}

// edgesBefore counts the edges in the rows of vertices [0, v), v <= |V|.
func (d *csr) edgesBefore(v int) int64 {
	c := v >> ChunkShift
	if c == len(d.chunks) {
		return d.before[c]
	}
	ch := &d.chunks[c]
	return d.before[c] + ch.Idx[v&chunkMask] - ch.Idx[0]
}

// Graph is an immutable directed graph in dual-CSR form, each direction in
// chunks (Chunk).
type Graph struct {
	n int
	m int64
	// weighted reports whether the chunks' weights are the graph's; an
	// Unweighted view of a weighted graph shares its chunks and hides them.
	weighted bool
	out, in  csr

	// invOut is InvOutDegrees' array, built on first use.
	invOutOnce sync.Once
	invOut     []float64

	// unweighted is Unweighted's view, built on first use; root is the
	// graph a view was taken of (nil on a root).
	unweightedOnce sync.Once
	unweighted     *Graph
	root           *Graph

	// memo holds Derived's values and the graph's lineage link (root
	// graphs only; lineage.go), made on first use.
	memoMu sync.Mutex
	memo   *memo
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns |E| (directed edge count).
func (g *Graph) NumEdges() int64 { return g.m }

// Weighted reports whether edge weights are present.
func (g *Graph) Weighted() bool { return g.weighted }

// OutDegree returns |Nout(v)|.
func (g *Graph) OutDegree(v Vertex) int64 {
	_, lo, hi := g.out.row(v)
	return hi - lo
}

// InDegree returns |Nin(v)|.
func (g *Graph) InDegree(v Vertex) int64 {
	_, lo, hi := g.in.row(v)
	return hi - lo
}

// OutEdgesBefore returns the out-degree sum of vertices [0, v), v <= |V|:
// the out-edges in a vertex range [lo, hi) are OutEdgesBefore(hi) −
// OutEdgesBefore(lo).
func (g *Graph) OutEdgesBefore(v int) int64 { return g.out.edgesBefore(v) }

// InEdgesBefore returns the in-degree sum of vertices [0, v), v <= |V|.
func (g *Graph) InEdgesBefore(v int) int64 { return g.in.edgesBefore(v) }

// OutEdge returns the i-th out-edge in source order, 0 <= i < |E|: the
// edge at position i of the list Edges returns, found by binary search.
func (g *Graph) OutEdge(i int64) (src, dst Vertex) {
	d := &g.out
	c := sort.Search(len(d.chunks), func(c int) bool { return d.before[c+1] > i })
	ch := &d.chunks[c]
	pos := ch.Idx[0] + i - d.before[c]
	r := sort.Search(len(ch.Idx)-1, func(r int) bool { return ch.Idx[r+1] > pos })
	return Vertex(c<<ChunkShift + r), ch.Cols[pos]
}

// OutChunks returns the out-rows' chunks and InChunks the in-rows' (do
// not modify): an engine that sweeps the graph's own rows, as Ligra does,
// reads them here. Chunk.Wts is meaningful only when Weighted.
func (g *Graph) OutChunks() []Chunk { return g.out.chunks }

// InChunks returns the in-rows' chunks (OutChunks).
func (g *Graph) InChunks() []Chunk { return g.in.chunks }

// InvOutDegrees returns 1/OutDegree(v) for every v, 0 where v has no
// out-edges: the per-source scale of every PageRank variant. It is built
// once per graph, on first use, and shared by every run on it (do not
// modify); safe for concurrent callers.
func (g *Graph) InvOutDegrees() []float64 {
	g.invOutOnce.Do(func() {
		g.invOut = make([]float64, g.n)
		for v := range g.invOut {
			if d := g.OutDegree(Vertex(v)); d > 0 {
				g.invOut[v] = 1 / float64(d)
			}
		}
	})
	return g.invOut
}

// OutNeighbors returns v's out-neighbour slice (do not modify).
func (g *Graph) OutNeighbors(v Vertex) []Vertex {
	c, lo, hi := g.out.row(v)
	return c.Cols[lo:hi]
}

// InNeighbors returns v's in-neighbour slice (do not modify).
func (g *Graph) InNeighbors(v Vertex) []Vertex {
	c, lo, hi := g.in.row(v)
	return c.Cols[lo:hi]
}

// OutWeights returns the weights aligned with OutNeighbors(v), or nil.
func (g *Graph) OutWeights(v Vertex) []float32 {
	if !g.weighted {
		return nil
	}
	c, lo, hi := g.out.row(v)
	return c.Wts[lo:hi]
}

// InWeights returns the weights aligned with InNeighbors(v), or nil.
func (g *Graph) InWeights(v Vertex) []float32 {
	if !g.weighted {
		return nil
	}
	c, lo, hi := g.in.row(v)
	return c.Wts[lo:hi]
}

// Edges flattens the graph back into an edge list in out-direction
// order, weights preserved (zero on an unweighted graph), so
// FromEdges(g.NumVertices(), g.Edges(), g.Weighted()) rebuilds g.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.NumEdges())
	for v := 0; v < g.n; v++ {
		wts := g.OutWeights(Vertex(v))
		for j, u := range g.OutNeighbors(Vertex(v)) {
			e := Edge{Src: Vertex(v), Dst: u}
			if wts != nil {
				e.Wt = wts[j]
			}
			edges = append(edges, e)
		}
	}
	return edges
}

// TopologyBytes returns the in-memory size of a flat dual CSR of the
// graph — per direction |V|+1 eight-byte offsets, |E| four-byte
// neighbours and, when weighted, |E| four-byte weights — used for Table
// 5-style memory accounting. It is a function of |V|, |E| and Weighted
// alone: a snapshot is charged its full size whatever chunks it shares
// with its predecessor.
func (g *Graph) TopologyBytes() int64 {
	b := 2*int64(g.n+1)*8 + 2*g.m*4
	if g.weighted {
		b += 2 * g.m * 4
	}
	return b
}

// String summarises the graph.
func (g *Graph) String() string {
	w := ""
	if g.Weighted() {
		w = ", weighted"
	}
	return fmt.Sprintf("graph{|V|=%d |E|=%d%s}", g.n, g.m, w)
}

// FromEdges builds the dual-CSR representation from a directed edge list
// over vertices [0, n). Self-loops and duplicate edges are kept (both
// occur in the paper's synthetic R-MAT inputs). If weighted is false, any
// weights in edges are ignored. Each direction is built flat and then cut
// into chunks that are views of the flat arrays (no copy).
func FromEdges(n int, edges []Edge, weighted bool) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	for _, e := range edges {
		if int(e.Src) >= n || int(e.Dst) >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) outside [0,%d)", e.Src, e.Dst, n))
		}
	}
	return &Graph{
		n: n, m: int64(len(edges)), weighted: weighted,
		out: chunked(buildCSR(n, edges, weighted, false)),
		in:  chunked(buildCSR(n, edges, weighted, true)),
	}
}

// chunked cuts a flat direction into chunks viewing it.
func chunked(index []int64, nbrs []Vertex, wts []float32) csr {
	n := len(index) - 1
	nc := (n + chunkMask) >> ChunkShift
	d := csr{chunks: make([]Chunk, nc), before: make([]int64, nc+1), flat: true}
	for c := range d.chunks {
		lo := c << ChunkShift
		d.chunks[c] = Chunk{Idx: index[lo : min(lo+ChunkSize, n)+1], Cols: nbrs, Wts: wts}
		d.before[c] = index[lo]
	}
	d.before[nc] = index[n]
	return d
}

// buildCSR counting-sorts edges by source (or by destination when byDst),
// producing offsets, the opposite endpoints, and optional weights.
func buildCSR(n int, edges []Edge, weighted, byDst bool) ([]int64, []Vertex, []float32) {
	index := make([]int64, n+1)
	for _, e := range edges {
		k := e.Src
		if byDst {
			k = e.Dst
		}
		index[k+1]++
	}
	for v := 0; v < n; v++ {
		index[v+1] += index[v]
	}
	nbrs := make([]Vertex, len(edges))
	var wts []float32
	if weighted {
		wts = make([]float32, len(edges))
	}
	cursor := make([]int64, n)
	for _, e := range edges {
		k, other := e.Src, e.Dst
		if byDst {
			k, other = e.Dst, e.Src
		}
		pos := index[k] + cursor[k]
		cursor[k]++
		nbrs[pos] = other
		if weighted {
			wts[pos] = e.Wt
		}
	}
	return index, nbrs, wts
}

// Symmetrized returns the undirected view of g as a new graph: every edge
// appears in both directions (weights preserved). Label-propagation
// connected components runs on this view, as in the evaluated systems.
func (g *Graph) Symmetrized() *Graph {
	edges := make([]Edge, 0, 2*g.m)
	for v := 0; v < g.n; v++ {
		nbrs := g.OutNeighbors(Vertex(v))
		wts := g.OutWeights(Vertex(v))
		for j, u := range nbrs {
			var w float32
			if wts != nil {
				w = wts[j]
			}
			edges = append(edges, Edge{Src: Vertex(v), Dst: u, Wt: w}, Edge{Src: u, Dst: Vertex(v), Wt: w})
		}
	}
	return FromEdges(g.n, edges, g.Weighted())
}

// MaxOutDegree returns the largest out-degree, used by skew statistics.
func (g *Graph) MaxOutDegree() int64 {
	var best int64
	for v := 0; v < g.n; v++ {
		if d := g.OutDegree(Vertex(v)); d > best {
			best = d
		}
	}
	return best
}

// Equal reports whether a and b are the same graph row for row: the same
// vertex and edge counts, weightedness, and in both directions every
// vertex's neighbours and weights (bit for bit) in the same order,
// whatever chunks hold them.
func Equal(a, b *Graph) bool {
	if a.n != b.n || a.m != b.m || a.weighted != b.weighted {
		return false
	}
	sameWts := func(x, y []float32) bool {
		return slices.EqualFunc(x, y, func(p, q float32) bool { return math.Float32bits(p) == math.Float32bits(q) })
	}
	for v := range Vertex(a.n) {
		if !slices.Equal(a.OutNeighbors(v), b.OutNeighbors(v)) || !slices.Equal(a.InNeighbors(v), b.InNeighbors(v)) ||
			!sameWts(a.OutWeights(v), b.OutWeights(v)) || !sameWts(a.InWeights(v), b.InWeights(v)) {
			return false
		}
	}
	return true
}

// Package graph provides the immutable compressed-sparse-row (CSR) graph
// substrate shared by all engines.
//
// Following the paper's Figure 1, a graph holds both directions: the
// out-edge array partitioned by source vertex and the in-edge array
// partitioned by target vertex, plus per-vertex offsets and degrees.
// Topology is immutable during computation (Section 4.1).
package graph

import (
	"fmt"
	"sync"
	"weak"
)

// Vertex is a vertex identifier. Graphs up to ~4 billion vertices are
// representable; edge counts use int64.
type Vertex = uint32

// Edge is one directed edge with an optional weight.
type Edge struct {
	Src, Dst Vertex
	Wt       float32
}

// Graph is an immutable directed graph in dual-CSR form. For unweighted
// graphs the weight slices are nil.
type Graph struct {
	n int
	m int64

	// OutIndex[v]..OutIndex[v+1] delimit v's out-neighbours in OutNbrs.
	OutIndex []int64
	OutNbrs  []Vertex
	OutWts   []float32

	// InIndex[v]..InIndex[v+1] delimit v's in-neighbours in InNbrs.
	InIndex []int64
	InNbrs  []Vertex
	InWts   []float32

	// invOut is InvOutDegrees' array, built on first use.
	invOutOnce sync.Once
	invOut     []float64

	// unweighted is Unweighted's view, built on first use; root is the
	// graph a view was taken of (nil on a root).
	unweightedOnce sync.Once
	unweighted     *Graph
	root           *Graph

	// derived holds Derived's slots, one per key (root graphs only).
	derivedMu sync.Mutex
	derived   map[string]*derivedSlot
}

// derivedSlot is one key's memo: its mutex serialises the key's builds,
// ptr is the weak.Pointer[T] to the last one (nil before the first).
type derivedSlot struct {
	mu  sync.Mutex
	ptr any
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns |E| (directed edge count).
func (g *Graph) NumEdges() int64 { return g.m }

// Weighted reports whether edge weights are present.
func (g *Graph) Weighted() bool { return g.OutWts != nil }

// OutDegree returns |Nout(v)|.
func (g *Graph) OutDegree(v Vertex) int64 { return g.OutIndex[v+1] - g.OutIndex[v] }

// InDegree returns |Nin(v)|.
func (g *Graph) InDegree(v Vertex) int64 { return g.InIndex[v+1] - g.InIndex[v] }

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

// Derived returns the value build derives from g's topology under key.
// The memo lives on the root graph, so g and its Unweighted view share it,
// and build always receives the root (it carries the weights when there
// are any). Every caller with the same key gets the same *T, built once;
// concurrent callers wait on that one build (do not modify it).
//
// The graph holds each value through a weak pointer: a value is shared
// while some caller keeps it and is freed by the next GC after the last
// one drops it; the call after that builds again. The graph itself never
// keeps a derived value alive. key must name T and every input of build
// besides the topology; build must not ask for its own key.
func Derived[T any](g *Graph, key string, build func(root *Graph) *T) *T {
	if g.root != nil {
		g = g.root
	}
	g.derivedMu.Lock()
	s := g.derived[key]
	if s == nil {
		if g.derived == nil {
			g.derived = make(map[string]*derivedSlot)
		}
		s = &derivedSlot{}
		g.derived[key] = s
	}
	g.derivedMu.Unlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.ptr.(weak.Pointer[T]); ok {
		if v := p.Value(); v != nil {
			return v
		}
	}
	v := build(g)
	s.ptr = weak.Make(v)
	return v
}

// OutNeighbors returns v's out-neighbour slice (do not modify).
func (g *Graph) OutNeighbors(v Vertex) []Vertex {
	return g.OutNbrs[g.OutIndex[v]:g.OutIndex[v+1]]
}

// InNeighbors returns v's in-neighbour slice (do not modify).
func (g *Graph) InNeighbors(v Vertex) []Vertex {
	return g.InNbrs[g.InIndex[v]:g.InIndex[v+1]]
}

// OutWeights returns the weights aligned with OutNeighbors(v), or nil.
func (g *Graph) OutWeights(v Vertex) []float32 {
	if g.OutWts == nil {
		return nil
	}
	return g.OutWts[g.OutIndex[v]:g.OutIndex[v+1]]
}

// InWeights returns the weights aligned with InNeighbors(v), or nil.
func (g *Graph) InWeights(v Vertex) []float32 {
	if g.InWts == nil {
		return nil
	}
	return g.InWts[g.InIndex[v]:g.InIndex[v+1]]
}

// TopologyBytes returns the in-memory size of the topology arrays, used
// for Table 5-style memory accounting.
func (g *Graph) TopologyBytes() int64 {
	b := int64(len(g.OutIndex)+len(g.InIndex)) * 8
	b += int64(len(g.OutNbrs)+len(g.InNbrs)) * 4
	b += int64(len(g.OutWts)+len(g.InWts)) * 4
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
// weights in edges are ignored.
func FromEdges(n int, edges []Edge, weighted bool) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	for _, e := range edges {
		if int(e.Src) >= n || int(e.Dst) >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) outside [0,%d)", e.Src, e.Dst, n))
		}
	}
	g := &Graph{n: n, m: int64(len(edges))}
	g.OutIndex, g.OutNbrs, g.OutWts = buildCSR(n, edges, weighted, false)
	g.InIndex, g.InNbrs, g.InWts = buildCSR(n, edges, weighted, true)
	return g
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

// Symmetrize returns the undirected view of g: each edge is present in
// both directions (the paper's treatment of undirected graphs).
func Symmetrize(n int, edges []Edge, weighted bool) *Graph {
	sym := make([]Edge, 0, 2*len(edges))
	for _, e := range edges {
		sym = append(sym, e, Edge{Src: e.Dst, Dst: e.Src, Wt: e.Wt})
	}
	return FromEdges(n, sym, weighted)
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

package xstream

import (
	"testing"

	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
	"polymer/internal/sg"
)

func testMachine(nodes, cores int) *numa.Machine {
	return numa.NewMachine(numa.IntelXeon80(), nodes, cores)
}

// sumKernel accumulates 1.0 per incoming edge into next; destinations
// always activate.
type sumKernel struct{ next []float64 }

func (k *sumKernel) StreamBlock(active []uint64, src, dst []graph.Vertex, wts []float32, next []uint64) (activated, fresh int64) {
	return kernelFunc(func(_, d graph.Vertex, _ float32) bool {
		k.next[d] += 1
		return true
	}).StreamBlock(active, src, dst, wts, next)
}

// kernelFunc is a Kernel written one edge at a time: it is called for
// each edge with an active source, in order, and reports whether the edge
// activates its target.
type kernelFunc func(s, d graph.Vertex, w float32) bool

func (f kernelFunc) StreamBlock(active []uint64, src, dst []graph.Vertex, wts []float32, next []uint64) (activated, fresh int64) {
	for i, s := range src {
		if !IsActive(active, s) {
			continue
		}
		var w float32
		if wts != nil {
			w = wts[i]
		}
		if f(s, dst[i], w) {
			fresh += Activate(next, dst[i])
			activated++
		}
	}
	return activated, fresh
}

func TestIterateCountsInDegrees(t *testing.T) {
	n, edges := gen.RMAT(9, 8, 4)
	g := graph.FromEdges(n, edges, false)
	e := MustNew(g, testMachine(4, 2), DefaultOptions(), sg.Hints{})
	defer e.Close()
	e.SetAllActive()
	k := &sumKernel{next: make([]float64, n)}
	count := e.Iterate(k, nil)
	for v := 0; v < n; v++ {
		if k.next[v] != float64(g.InDegree(graph.Vertex(v))) {
			t.Fatalf("next[%d] = %v, want %d", v, k.next[v], g.InDegree(graph.Vertex(v)))
		}
	}
	// Everything with an in-edge is active next round.
	var want int64
	for v := 0; v < n; v++ {
		if g.InDegree(graph.Vertex(v)) > 0 {
			want++
		}
	}
	if count != want {
		t.Fatalf("active = %d, want %d", count, want)
	}
}

func TestScatterScansAllEdgesEvenWhenSparse(t *testing.T) {
	// X-Stream's defining weakness: one active vertex still scans |E|.
	n, edges := gen.RoadGrid(30, 30, 1)
	g := graph.FromEdges(n, edges, true)
	e := MustNew(g, testMachine(2, 2), DefaultOptions(), sg.Hints{Weighted: true})
	defer e.Close()
	e.SetActive([]graph.Vertex{0})
	k := &sumKernel{next: make([]float64, n)}
	e.Iterate(k, nil)
	if e.EdgesProcessed() != g.NumEdges() {
		t.Fatalf("scanned %d edges, must scan all %d", e.EdgesProcessed(), g.NumEdges())
	}
}

func TestInactiveSourcesEmitNothing(t *testing.T) {
	n, edges := gen.Star(50)
	g := graph.FromEdges(n, edges, false)
	e := MustNew(g, testMachine(2, 1), DefaultOptions(), sg.Hints{})
	defer e.Close()
	e.SetActive([]graph.Vertex{5}) // a leaf: no out-edges
	k := &sumKernel{next: make([]float64, n)}
	if count := e.Iterate(k, nil); count != 0 {
		t.Fatalf("leaf frontier must produce 0 actives, got %d", count)
	}
	for v, x := range k.next {
		if x != 0 {
			t.Fatalf("vertex %d received update without active source", v)
		}
	}
}

func TestApplyPhaseControlsNextFrontier(t *testing.T) {
	n, edges := gen.Cycle(64)
	g := graph.FromEdges(n, edges, false)
	e := MustNew(g, testMachine(2, 1), DefaultOptions(), sg.Hints{})
	defer e.Close()
	e.SetAllActive()
	k := &sumKernel{next: make([]float64, n)}
	count := e.Iterate(k, func(v graph.Vertex) bool { return v < 10 })
	if count != 10 {
		t.Fatalf("apply filtered count = %d, want 10", count)
	}
	if e.ActiveCount() != 10 {
		t.Fatal("ActiveCount must match")
	}
}

func TestTilesRespectLLC(t *testing.T) {
	n, edges := gen.Uniform(100000, 100000, 2)
	g := graph.FromEdges(n, edges, false)
	m := testMachine(2, 1)
	e := MustNew(g, m, DefaultOptions(), sg.Hints{})
	defer e.Close()
	if e.Tiles() < 2 {
		t.Fatalf("100k vertices must need multiple tiles with a %dB LLC", m.Topo.LLCBytes)
	}
}

func TestWeightedScatter(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1, Wt: 2}, {Src: 0, Dst: 2, Wt: 3}}
	g := graph.FromEdges(3, edges, true)
	e := MustNew(g, testMachine(1, 1), DefaultOptions(), sg.Hints{Weighted: true})
	defer e.Close()
	e.SetAllActive()
	got := make([]float64, 3)
	e.Iterate(kernelFunc(func(_, d graph.Vertex, w float32) bool { got[d] += float64(w); return false }), nil)
	if got[1] != 2 || got[2] != 3 {
		t.Fatalf("weights not delivered: %v", got)
	}
}

func TestSimTimeAndMemory(t *testing.T) {
	n, edges := gen.RMAT(8, 8, 3)
	g := graph.FromEdges(n, edges, false)
	m := testMachine(4, 2)
	e := MustNew(g, m, DefaultOptions(), sg.Hints{})
	e.SetAllActive()
	e.Iterate(&sumKernel{next: make([]float64, n)}, nil)
	if e.SimSeconds() <= 0 {
		t.Fatal("sim time must advance")
	}
	if m.Alloc().Peak() <= m.Alloc().Current() {
		t.Fatal("shuffle buffers must raise the peak above steady state")
	}
	e.Close()
	if m.Alloc().Current() != 0 {
		t.Fatalf("Close must release, %d left", m.Alloc().Current())
	}
}

func TestSetActiveCount(t *testing.T) {
	n, edges := gen.Chain(100)
	g := graph.FromEdges(n, edges, false)
	e := MustNew(g, testMachine(1, 1), DefaultOptions(), sg.Hints{})
	defer e.Close()
	e.SetActive([]graph.Vertex{1, 1, 50, 99})
	if e.ActiveCount() != 3 {
		t.Fatalf("ActiveCount = %d, want 3 (dedup)", e.ActiveCount())
	}
}

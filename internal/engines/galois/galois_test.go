package galois

import (
	"container/heap"
	"math"
	"testing"

	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
)

func testMachine(nodes, cores int) *numa.Machine {
	return numa.NewMachine(numa.IntelXeon80(), nodes, cores)
}

func TestBFSOnGrid(t *testing.T) {
	n, edges := gen.RoadGrid(15, 15, 1)
	g := graph.FromEdges(n, edges, true)
	e := MustNew(g, testMachine(2, 2), DefaultOptions())
	defer e.Close()
	dist := e.BFS(0)
	want := refBFS(g, 0)
	for v := range dist {
		if dist[v] != want[v] {
			t.Fatalf("BFS dist[%d] = %d, want %d", v, dist[v], want[v])
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1}}, false)
	e := MustNew(g, testMachine(1, 1), DefaultOptions())
	defer e.Close()
	dist := e.BFS(0)
	if dist[0] != 0 || dist[1] != 1 || dist[2] != -1 || dist[3] != -1 {
		t.Fatalf("dist = %v", dist)
	}
}

func TestCCGridOneComponent(t *testing.T) {
	n, edges := gen.RoadGrid(10, 10, 2)
	g := graph.FromEdges(n, edges, true)
	e := MustNew(g, testMachine(2, 2), DefaultOptions())
	defer e.Close()
	labels := e.CC()
	for v, l := range labels {
		if l != 0 {
			t.Fatalf("connected grid: label[%d] = %d, want 0", v, l)
		}
	}
}

func TestCCMultipleComponents(t *testing.T) {
	// Two directed chains and one isolated vertex.
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 3, Dst: 4}}
	g := graph.FromEdges(6, edges, false)
	e := MustNew(g, testMachine(2, 2), DefaultOptions())
	defer e.Close()
	labels := e.CC()
	want := []graph.Vertex{0, 0, 0, 3, 3, 5}
	for v := range want {
		if labels[v] != want[v] {
			t.Fatalf("labels = %v, want %v", labels, want)
		}
	}
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	n, edges := gen.RoadGrid(12, 12, 3)
	g := graph.FromEdges(n, edges, true)
	e := MustNew(g, testMachine(2, 2), DefaultOptions())
	defer e.Close()
	dist := e.SSSP(0)
	want := refDijkstra(g, 0)
	for v := range dist {
		if math.Abs(dist[v]-want[v]) > 1e-6 {
			t.Fatalf("SSSP dist[%d] = %v, want %v", v, dist[v], want[v])
		}
	}
}

func TestSSSPUnweightedDefaultsToHops(t *testing.T) {
	n, edges := gen.Chain(10)
	g := graph.FromEdges(n, edges, false)
	e := MustNew(g, testMachine(1, 1), DefaultOptions())
	defer e.Close()
	dist := e.SSSP(0)
	for v := 0; v < n; v++ {
		if dist[v] != float64(v) {
			t.Fatalf("chain dist[%d] = %v", v, dist[v])
		}
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	n, edges := gen.RMAT(8, 8, 5)
	g := graph.FromEdges(n, edges, false)
	e := MustNew(g, testMachine(2, 2), DefaultOptions())
	defer e.Close()
	ranks := e.PageRank(5, 0.85)
	var sum, dangling float64
	for v := 0; v < n; v++ {
		sum += ranks[v]
		if g.OutDegree(graph.Vertex(v)) == 0 {
			dangling += ranks[v]
		}
	}
	// Without dangling-mass redistribution the sum is <= 1 and positive.
	if sum <= 0 || sum > 1.0001 {
		t.Fatalf("rank sum = %v", sum)
	}
	for v, r := range ranks {
		if r < (1-0.85)/float64(n)-1e-12 {
			t.Fatalf("rank[%d] = %v below random-surfer floor", v, r)
		}
	}
}

func TestSpMV(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1, Wt: 2}, {Src: 1, Dst: 2, Wt: 3}, {Src: 0, Dst: 2, Wt: 5}}
	g := graph.FromEdges(3, edges, true)
	e := MustNew(g, testMachine(1, 1), DefaultOptions())
	defer e.Close()
	x0 := []float64{1, 10, 100}
	y, err := e.SpMV(1, x0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// y[0]=0; y[1]=2*x[0]=2; y[2]=3*x[1]+5*x[0]=35.
	if y[0] != 0 || y[1] != 2 || y[2] != 35 {
		t.Fatalf("SpMV = %v", y)
	}
}

func TestBPBounded(t *testing.T) {
	n, edges := gen.RoadGrid(8, 8, 4)
	g := graph.FromEdges(n, edges, true)
	e := MustNew(g, testMachine(2, 1), DefaultOptions())
	defer e.Close()
	beliefs, err := e.BP(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v, b := range beliefs {
		if b < 0 || b > 1 {
			t.Fatalf("belief[%d] = %v out of [0,1]", v, b)
		}
	}
}

func TestSimAccountingAndClose(t *testing.T) {
	n, edges := gen.RMAT(8, 8, 6)
	g := graph.FromEdges(n, edges, false)
	m := testMachine(4, 2)
	e := MustNew(g, m, DefaultOptions())
	e.PageRank(2, 0.85)
	if e.SimSeconds() <= 0 {
		t.Fatal("sim time must advance")
	}
	if e.EdgesProcessed() != 2*g.NumEdges() {
		t.Fatalf("edges processed = %d, want %d", e.EdgesProcessed(), 2*g.NumEdges())
	}
	st := e.RunStats()
	if st.RemoteRate < 0.5 {
		t.Fatalf("galois is NUMA-oblivious; remote rate = %v", st.RemoteRate)
	}
	e.Close()
	if m.Alloc().Current() != 0 {
		t.Fatalf("Close must release, %d left", m.Alloc().Current())
	}
}

// refBFS is a sequential BFS.
func refBFS(g *graph.Graph, src graph.Vertex) []int64 {
	dist := make([]int64, g.NumVertices())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	q := []graph.Vertex{src}
	for len(q) > 0 {
		v := q[0]
		q = q[1:]
		for _, u := range g.OutNeighbors(v) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				q = append(q, u)
			}
		}
	}
	return dist
}

// refDijkstra is a sequential Dijkstra.
type pqItem struct {
	v graph.Vertex
	d float64
}
type pq []pqItem

func (p pq) Len() int            { return len(p) }
func (p pq) Less(i, j int) bool  { return p[i].d < p[j].d }
func (p pq) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x interface{}) { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() interface{} {
	old := *p
	n := len(old)
	it := old[n-1]
	*p = old[:n-1]
	return it
}

func refDijkstra(g *graph.Graph, src graph.Vertex) []float64 {
	dist := make([]float64, g.NumVertices())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	h := &pq{{src, 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(pqItem)
		if it.d > dist[it.v] {
			continue
		}
		nbrs := g.OutNeighbors(it.v)
		wts := g.OutWeights(it.v)
		for j, u := range nbrs {
			w := 1.0
			if wts != nil {
				w = float64(wts[j])
			}
			if nd := it.d + w; nd < dist[u] {
				dist[u] = nd
				heap.Push(h, pqItem{u, nd})
			}
		}
	}
	return dist
}

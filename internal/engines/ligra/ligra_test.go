package ligra

import (
	"testing"

	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
	"polymer/internal/sg"
	"polymer/internal/state"
)

func testMachine(nodes, cores int) *numa.Machine {
	return numa.NewMachine(numa.IntelXeon80(), nodes, cores)
}

type addKernel struct{ next []float64 }

func (k *addKernel) Update(s, d graph.Vertex, w float32) bool {
	k.next[d]++
	return true
}
func (k *addKernel) Cond(graph.Vertex) bool { return true }

// rowAddKernel is addKernel in segment form; it counts the rows its
// PushRows calls cover.
type rowAddKernel struct {
	addKernel
	rows int64
}

func (k *rowAddKernel) PushRows(rs *sg.Rows, lo, hi int, active []uint64, base int) (activeRows, edges int64) {
	k.rows += int64(hi - lo)
	for r := lo; r < hi; r++ {
		s := rs.ID(r)
		if !sg.InLeaf(active, base, s) {
			continue
		}
		activeRows++
		for _, d := range rs.Cols[rs.Idx[r]:rs.Idx[r+1]] {
			k.Update(s, d, 0)
			edges++
		}
	}
	return activeRows, edges
}

// TestDensePushUsesRowsUnderNoOutput pins when dense push uses a kernel's
// segment form: under NoOutput only, covering every vertex's row once; the
// counts the phase charges do not depend on it.
func TestDensePushUsesRowsUnderNoOutput(t *testing.T) {
	n, edges := gen.RMAT(9, 8, 1)
	g := graph.FromEdges(n, edges, false)
	var sims [2]float64
	for i, noOutput := range []bool{false, true} {
		e := MustNew(g, testMachine(4, 2), DefaultOptions())
		k := &rowAddKernel{addKernel: addKernel{next: make([]float64, n)}}
		e.EdgeMap(state.NewAll(e.Bounds()), k, sg.Hints{DensePush: true, NoOutput: noOutput})
		wantRows := int64(0)
		if noOutput {
			wantRows = int64(n)
		}
		if k.rows != wantRows {
			t.Fatalf("NoOutput=%v: PushRows covered %d rows, want %d", noOutput, k.rows, wantRows)
		}
		for v := 0; v < n; v++ {
			if k.next[v] != float64(g.InDegree(graph.Vertex(v))) {
				t.Fatalf("NoOutput=%v: next[%d] = %v, want %d", noOutput, v, k.next[v], g.InDegree(graph.Vertex(v)))
			}
		}
		if e.EdgesProcessed() != g.NumEdges() {
			t.Fatalf("NoOutput=%v: %d edges processed, want %d", noOutput, e.EdgesProcessed(), g.NumEdges())
		}
		sims[i] = e.SimSeconds()
		e.Close()
	}
	if sims[0] != sims[1] {
		t.Fatalf("row path charged %x, per-edge path %x", sims[1], sims[0])
	}
}

func TestLigraSlowerThanPolymerShape(t *testing.T) {
	// Not a strict engine-vs-engine comparison (that lives in the bench
	// package); here we just pin Ligra's NUMA-oblivious signature: its
	// remote access rate on many nodes must be high (paper Table 4: 83%).
	n, edges := gen.TwitterLike(20000, 4)
	g := graph.FromEdges(n, edges, false)
	e := MustNew(g, testMachine(8, 2), DefaultOptions())
	defer e.Close()
	k := &addKernel{next: make([]float64, n)}
	e.EdgeMap(state.NewAll(e.Bounds()), k, sg.Hints{DensePush: true})
	st := e.RunStats()
	if st.RemoteRate < 0.5 {
		t.Fatalf("ligra remote rate = %v, want high (NUMA-oblivious)", st.RemoteRate)
	}
	if e.SimSeconds() <= 0 {
		t.Fatal("sim time must advance")
	}
}

func TestMemoryAccounting(t *testing.T) {
	n, edges := gen.Chain(100)
	g := graph.FromEdges(n, edges, false)
	m := testMachine(2, 1)
	e := MustNew(g, m, DefaultOptions())
	if m.Alloc().Label("ligra/topology") != g.TopologyBytes() {
		t.Fatal("topology bytes must be tracked")
	}
	d := e.NewData("x")
	if d.Len() != n {
		t.Fatal("NewData length")
	}
	e.Close()
	if m.Alloc().Current() != 0 {
		t.Fatalf("Close must release, %d left", m.Alloc().Current())
	}
}

func TestAccessorsAndSparseVertexMap(t *testing.T) {
	n, edges := gen.Chain(120)
	g := graph.FromEdges(n, edges, false)
	m := testMachine(2, 2)
	e := MustNew(g, m, DefaultOptions())
	defer e.Close()
	if e.Graph() != g || e.Machine() != m {
		t.Fatal("accessors must return construction arguments")
	}
	if e.NewData32("x").Len() != n {
		t.Fatal("NewData32 length")
	}
	e.AddSimSeconds(0.25)
	if e.SimSeconds() < 0.25 {
		t.Fatal("AddSimSeconds must advance the clock")
	}
	// Sparse VertexMap path.
	sp := state.FromVertices(e.Bounds(), []graph.Vertex{1, 3, 5, 99})
	out := e.VertexMap(sp, func(v graph.Vertex) bool { return v < 50 })
	if out.Count() != 3 {
		t.Fatalf("sparse VertexMap count = %d", out.Count())
	}
	k := &addKernel{next: make([]float64, n)}
	e.EdgeMap(state.NewAll(e.Bounds()), k, sg.Hints{Weighted: true, DensePush: true})
	if e.EdgesProcessed() == 0 {
		t.Fatal("EdgesProcessed must count")
	}
	var busy float64
	for _, s := range e.ThreadSeconds() {
		busy += s
	}
	if busy <= 0 {
		t.Fatal("ThreadSeconds must accumulate")
	}
}

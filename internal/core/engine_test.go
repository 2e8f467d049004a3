package core

import (
	"testing"

	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/mem"
	"polymer/internal/numa"
	"polymer/internal/sg"
	"polymer/internal/state"
)

func testMachine(nodes, cores int) *numa.Machine {
	return numa.NewMachine(numa.IntelXeon80(), nodes, cores)
}

// addKernel accumulates 1.0 into next[d] per applied edge and records the
// applied (s,d) pairs; always activates the destination.
type addKernel struct {
	next []float64
	seen map[edgeKey]int
}

func newAddKernel(n int) *addKernel {
	return &addKernel{next: make([]float64, n), seen: make(map[edgeKey]int)}
}

func (k *addKernel) Update(s, d graph.Vertex, w float32) bool {
	k.next[d]++
	k.seen[edgeKey{s, d}]++
	return true
}

func (k *addKernel) Cond(graph.Vertex) bool { return true }

// claimKernel marks destinations once (BFS-style claim), exercising Cond.
type claimKernel struct{ parent []uint32 }

func (k *claimKernel) Update(s, d graph.Vertex, w float32) bool {
	if k.parent[d] == ^uint32(0) {
		k.parent[d] = s
		return true
	}
	return false
}

func (k *claimKernel) Cond(d graph.Vertex) bool {
	return k.parent[d] == ^uint32(0)
}

func TestEdgeMapCondFiltersClaimed(t *testing.T) {
	n, edges := gen.Star(100)
	g := graph.FromEdges(n, edges, false)
	m := testMachine(2, 2)
	e := MustNew(g, m, DefaultOptions())
	defer e.Close()

	k := &claimKernel{parent: make([]uint32, n)}
	for i := range k.parent {
		k.parent[i] = ^uint32(0)
	}
	k.parent[0] = 0
	out := e.EdgeMap(state.NewSingle(e.Bounds(), 0), k, sg.Hints{})
	if out.Count() != int64(n-1) {
		t.Fatalf("star frontier = %d, want %d", out.Count(), n-1)
	}
	// Second round: everything claimed, no updates.
	out2 := e.EdgeMap(out, k, sg.Hints{})
	if !out2.IsEmpty() {
		t.Fatalf("second round must be empty, got %d", out2.Count())
	}
}

func TestVertexMapFilters(t *testing.T) {
	n := 200
	g := graph.FromEdges(n, []graph.Edge{{Src: 0, Dst: 1}}, false)
	m := testMachine(2, 2)
	e := MustNew(g, m, DefaultOptions())
	defer e.Close()

	all := state.NewAll(e.Bounds())
	evens := e.VertexMap(all, func(v graph.Vertex) bool { return v%2 == 0 })
	if evens.Count() != int64(n/2) {
		t.Fatalf("evens = %d, want %d", evens.Count(), n/2)
	}
	evens.ForEach(func(v graph.Vertex) {
		if v%2 != 0 {
			t.Fatalf("odd vertex %d in result", v)
		}
	})
	// Sparse input path.
	sp := evens.ToSparse()
	quarters := e.VertexMap(sp, func(v graph.Vertex) bool { return v%4 == 0 })
	if quarters.Count() != int64(n/4) {
		t.Fatalf("quarters = %d, want %d", quarters.Count(), n/4)
	}
}

func TestSimTimeAdvancesAndStatsAccumulate(t *testing.T) {
	n, edges := gen.RMAT(9, 8, 7)
	g := graph.FromEdges(n, edges, false)
	m := testMachine(4, 2)
	e := MustNew(g, m, DefaultOptions())
	defer e.Close()
	e.EdgeMap(state.NewAll(e.Bounds()), newAddKernel(n), sg.Hints{DensePush: true})
	if e.SimSeconds() <= 0 {
		t.Fatal("simulated time must advance")
	}
	st := e.RunStats()
	if st.LocalCount+st.RemoteCount == 0 {
		t.Fatal("accesses must be recorded")
	}
	if st.RemoteRate <= 0 || st.RemoteRate >= 1 {
		t.Fatalf("remote rate = %v, want in (0,1)", st.RemoteRate)
	}
	ths := e.ThreadSeconds()
	var busy float64
	for _, s := range ths {
		busy += s
	}
	if busy <= 0 {
		t.Fatal("thread seconds must accumulate")
	}
}

func TestCoLocatedFasterThanInterleavedAblation(t *testing.T) {
	n, edges := gen.TwitterLike(4000, 1)
	g := graph.FromEdges(n, edges, false)

	run := func(layout mem.Placement) float64 {
		m := testMachine(8, 2)
		opt := DefaultOptions()
		opt.Mode = Push
		opt.Adaptive = false
		opt.Layout = layout
		e := MustNew(g, m, opt)
		defer e.Close()
		all := state.NewAll(e.Bounds())
		for i := 0; i < 3; i++ {
			e.EdgeMap(all, newAddKernel(n), sg.Hints{DensePush: true})
		}
		return e.SimSeconds()
	}
	co := run(mem.CoLocated)
	il := run(mem.Interleaved)
	if !(co < il) {
		t.Fatalf("co-located (%v) must beat interleaved (%v) — the paper's core claim", co, il)
	}
}

func TestDisableAgentsSlower(t *testing.T) {
	// The vertex data must exceed the (scaled) LLC for the random-vs-
	// sequential remote distinction to matter, as at paper scale.
	n, edges := gen.TwitterLike(40000, 2)
	g := graph.FromEdges(n, edges, false)
	run := func(disable bool) float64 {
		m := testMachine(8, 2)
		opt := DefaultOptions()
		opt.Mode = Push
		opt.Adaptive = false
		opt.DisableAgents = disable
		e := MustNew(g, m, opt)
		defer e.Close()
		all := state.NewAll(e.Bounds())
		for i := 0; i < 3; i++ {
			e.EdgeMap(all, newAddKernel(n), sg.Hints{DensePush: true})
		}
		return e.SimSeconds()
	}
	with, without := run(false), run(true)
	if !(with < without) {
		t.Fatalf("agents (%v) must beat no-agents (%v): sequential remote beats random remote", with, without)
	}
}

func TestAgentMemoryTracked(t *testing.T) {
	n, edges := gen.Uniform(500, 5000, 5)
	g := graph.FromEdges(n, edges, false)
	m := testMachine(4, 1)
	e := MustNew(g, m, DefaultOptions())
	e.EdgeMap(state.NewAll(e.Bounds()), newAddKernel(n), sg.Hints{DensePush: true})
	if m.Alloc().Label("polymer/agents") <= 0 {
		t.Fatal("agent memory must be tracked (Table 5)")
	}
	if m.Alloc().Label("polymer/topology") <= 0 {
		t.Fatal("topology memory must be tracked")
	}
	e.Close()
	if m.Alloc().Current() != 0 {
		t.Fatalf("Close must release simulated memory, %d left", m.Alloc().Current())
	}
}

func TestNewDataPlacement(t *testing.T) {
	n, edges := gen.Chain(100)
	g := graph.FromEdges(n, edges, false)
	m := testMachine(2, 1)
	e := MustNew(g, m, DefaultOptions())
	defer e.Close()
	d := e.NewData("ranks")
	if d.Placement() != mem.CoLocated || d.Len() != n {
		t.Fatal("NewData must be co-located over all vertices")
	}
	d32 := e.NewData32("labels")
	if d32.Placement() != mem.CoLocated || d32.Len() != n {
		t.Fatal("NewData32 must be co-located over all vertices")
	}

	opt := DefaultOptions()
	opt.Layout = mem.Interleaved
	e2 := MustNew(g, m, opt)
	defer e2.Close()
	if e2.NewData("x").Placement() != mem.Interleaved {
		t.Fatal("layout override must apply to NewData")
	}
}

func TestCloseIdempotent(t *testing.T) {
	n, edges := gen.Chain(10)
	g := graph.FromEdges(n, edges, false)
	m := testMachine(1, 1)
	e := MustNew(g, m, DefaultOptions())
	e.Close()
	e.Close()
}

func TestEngineAccessors(t *testing.T) {
	n, edges := gen.Chain(16)
	g := graph.FromEdges(n, edges, false)
	m := testMachine(2, 2)
	opt := DefaultOptions()
	e := MustNew(g, m, opt)
	defer e.Close()
	if e.Graph() != g || e.Machine() != m {
		t.Fatal("accessors must return the construction arguments")
	}
	if got := e.Options(); got.Barrier != opt.Barrier || got.Mode != opt.Mode {
		t.Fatalf("Options() = %+v", got)
	}
	parts := e.Parts()
	if len(parts) != m.Nodes || parts[0].Lo != 0 || parts[len(parts)-1].Hi != n {
		t.Fatalf("Parts() = %v", parts)
	}
	e.AddSimSeconds(1.5)
	if e.SimSeconds() < 1.5 {
		t.Fatal("AddSimSeconds must advance the clock")
	}
}

func TestTopologyValidatedOnMachine(t *testing.T) {
	// numa.Machine construction validates; engine relies on it.
	topo := numa.IntelXeon80()
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
}

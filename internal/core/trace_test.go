package core

import (
	"testing"

	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/obs"
	"polymer/internal/sg"
	"polymer/internal/state"
)

func TestTraceRecordsPhases(t *testing.T) {
	n, edges := gen.RMAT(8, 8, 3)
	g := graph.FromEdges(n, edges, false)
	m := testMachine(2, 2)
	opt := DefaultOptions()
	opt.Mode = Push
	opt.Adaptive = false
	e := MustNew(g, m, opt)
	defer e.Close()
	var log obs.PhaseLog
	e.SetTracer(obs.New(&log))

	all := state.NewAll(e.Bounds())
	e.EdgeMap(all, newAddKernel(n), sg.Hints{DensePush: true})
	e.VertexMap(all, func(graph.Vertex) bool { return true })

	tr := log.Events
	if len(tr) != 2 {
		t.Fatalf("trace has %d events, want 2", len(tr))
	}
	em, vm := tr[0], tr[1]
	if em.Name != "edgemap" || !em.Dense || !em.Push || em.Active != int64(n) {
		t.Fatalf("edgemap event wrong: %+v", em)
	}
	if vm.Name != "vertexmap" || vm.Active != int64(n) {
		t.Fatalf("vertexmap event wrong: %+v", vm)
	}
	if em.Dur <= 0 || vm.Dur <= 0 {
		t.Fatal("phase times must be positive")
	}
	// Phase times (simulated microseconds) must sum to the engine clock.
	var sum float64
	for _, ev := range tr {
		sum += ev.Dur / 1e6
	}
	if diff := sum - e.SimSeconds(); diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("trace sum %v != clock %v", sum, e.SimSeconds())
	}
}

func TestTraceDistinguishesSparsePhases(t *testing.T) {
	n, edges := gen.RoadGrid(20, 20, 2)
	g := graph.FromEdges(n, edges, true)
	m := testMachine(2, 2)
	e := MustNew(g, m, DefaultOptions())
	defer e.Close()
	var log obs.PhaseLog
	e.SetTracer(obs.New(&log))

	k := &claimKernel{parent: make([]uint32, n)}
	for i := range k.parent {
		k.parent[i] = ^uint32(0)
	}
	k.parent[0] = 0
	frontier := state.NewSingle(e.Bounds(), 0)
	for !frontier.IsEmpty() {
		frontier = e.EdgeMap(frontier, k, sg.Hints{})
	}
	sparse, dense := 0, 0
	for _, ev := range log.Events {
		if ev.Dense {
			dense++
		} else {
			sparse++
		}
	}
	// BFS on a grid from a corner: small frontiers throughout -> sparse.
	if sparse == 0 {
		t.Fatal("grid BFS must run sparse phases")
	}
	if sparse+dense != len(log.Events) {
		t.Fatal("phase counts inconsistent")
	}
}

package algorithms

import (
	"math"
	"testing"

	"polymer/internal/core"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
	"polymer/internal/sg"
)

func newPolymer(g *graph.Graph) sg.Engine {
	return core.MustNew(g, numa.NewMachine(numa.IntelXeon80(), 2, 2), core.DefaultOptions())
}

// TestRepairMakesBothLayouts pins that a repair makes the layouts a cold
// traversal makes, whatever phases it takes: with no edits it seeds
// nothing and runs no phase, and still makes the push and the pull layout.
// Otherwise a snapshot's layouts, and so whether its successor patches or
// builds them, would depend on how far behind the prior was.
func TestRepairMakesBothLayouts(t *testing.T) {
	n, edges := gen.Uniform(200, 800, 3)
	gen.AddRandomWeights(edges, 4)
	cold := newPolymer(graph.FromEdges(n, edges, true))
	prior, err := SSSP(cold, 0, nil)
	cold.Close()
	if err != nil {
		t.Fatal(err)
	}
	levels, err := BFSE(newPolymer(graph.FromEdges(n, edges, false)), 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Fresh graphs, so no layout of the cold runs is found and reused.
	e := newPolymer(graph.FromEdges(n, edges, true)).(*core.Engine)
	dist, err := RepairSSSP(e, 0, prior, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := range dist {
		if math.Float64bits(dist[v]) != math.Float64bits(prior[v]) {
			t.Fatalf("sssp dist[%d] = %v, want %v", v, dist[v], prior[v])
		}
	}
	if l := e.Lineage(); l.LayoutsBuilt != 2 {
		t.Fatalf("sssp repair made %d layouts, want push and pull", l.LayoutsBuilt)
	}

	e = newPolymer(graph.FromEdges(n, edges, false)).(*core.Engine)
	got, err := RepairBFS(e, 0, levels, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := range got {
		if got[v] != levels[v] {
			t.Fatalf("bfs level[%d] = %d, want %d", v, got[v], levels[v])
		}
	}
	if l := e.Lineage(); l.LayoutsBuilt != 2 {
		t.Fatalf("bfs repair made %d layouts, want push and pull", l.LayoutsBuilt)
	}
}

// TestRepairRefuses pins the inputs a repair must refuse rather than
// answer: a weight that breaks the order-of-distance argument, a prior
// that cannot be an answer from src on the graph, and BFS levels on a
// weighted graph. None of these edits seeds a frontier, so without the
// refusal each call would return its prior as the answer.
func TestRepairRefuses(t *testing.T) {
	const n = 6
	chain := func(last float32) *graph.Graph {
		var edges []graph.Edge
		for v := graph.Vertex(0); v+1 < n; v++ {
			edges = append(edges, graph.Edge{Src: v, Dst: v + 1, Wt: 1})
		}
		edges[len(edges)-1].Wt = last
		return graph.FromEdges(n, edges, true)
	}
	prior := func(length int, atSrc float64) []float64 {
		p := make([]float64, length)
		p[0] = atSrc
		return p
	}
	sssp := func(g *graph.Graph, src graph.Vertex, p []float64) func() error {
		return func() error {
			e := newPolymer(g)
			defer e.Close()
			_, err := RepairSSSP(e, src, p, nil, nil)
			return err
		}
	}
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"negative weight", sssp(chain(-1), 0, prior(n, 0))},
		{"NaN weight", sssp(chain(float32(math.NaN())), 0, prior(n, 0))},
		{"prior too short", sssp(chain(1), 0, prior(n-1, 0))},
		{"source not at 0", sssp(chain(1), 0, prior(n, 2))},
		{"source outside the graph", sssp(chain(1), n, prior(n, 0))},
		{"bfs on a weighted graph", func() error {
			e := newPolymer(chain(1))
			defer e.Close()
			_, err := RepairBFS(e, 0, make([]int64, n), nil, nil)
			return err
		}},
	} {
		if c.run() == nil {
			t.Errorf("%s: repair answered, want a refusal", c.name)
		}
	}
}

// TestRepairableFollowsLineage pins that Repairable, carried across a
// lineage's edits, turns false when an edit appends a negative weight and
// true again when a later edit deletes that edge.
func TestRepairableFollowsLineage(t *testing.T) {
	n, edges := gen.Uniform(40, 160, 5)
	gen.AddRandomWeights(edges, 4)
	g := graph.FromEdges(n, edges, true)
	bad := graph.Edge{Src: 1, Dst: 2, Wt: -3}
	for i, step := range []struct {
		deleted, appended []graph.Edge
		want              bool
	}{
		{nil, nil, true},
		{nil, []graph.Edge{bad}, false},
		{nil, []graph.Edge{{Src: 3, Dst: 4, Wt: 2}}, false},
		{[]graph.Edge{bad}, nil, true},
	} {
		if i > 0 {
			g = g.Patch(step.deleted, step.appended)
		}
		// A lineage head holds Repairable's value strongly, so the next
		// snapshot patches it instead of building afresh.
		g.MarkHead(uint64(i + 1))
		if got := Repairable(g); got != step.want {
			t.Fatalf("step %d: Repairable = %v, want %v", i, got, step.want)
		}
	}
}

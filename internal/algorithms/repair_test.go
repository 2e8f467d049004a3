package algorithms

import (
	"math"
	"testing"

	"polymer/internal/core"
	"polymer/internal/gen"
	"polymer/internal/graph"
)

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

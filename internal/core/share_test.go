package core

import (
	"runtime"
	"testing"
	"weak"

	"polymer/internal/gen"
	"polymer/internal/graph"
)

// weightedPowerlaw is a small weighted power-law graph and its edge list.
func weightedPowerlaw() (int, []graph.Edge, *graph.Graph) {
	n, edges := gen.Powerlaw(600, 6, 2.0, 31)
	gen.AddRandomWeights(edges, 32)
	return n, edges, graph.FromEdges(n, edges, true)
}

// Engines on a weighted graph and on its Unweighted view read one build:
// the same parts, the view's with their weights hidden. Each charges what
// a private build over its own graph charges.
func TestLayoutSharedAcrossWeightViews(t *testing.T) {
	n, edges, g := weightedPowerlaw()
	ew := MustNew(g, testMachine(4, 2), DefaultOptions())
	defer ew.Close()
	eu := MustNew(g.Unweighted(), testMachine(4, 2), DefaultOptions())
	defer eu.Close()
	private := graph.FromEdges(n, edges, false)

	var want int64
	for _, push := range []bool{true, false} {
		lw, lu := ew.layoutOf(push), eu.layoutOf(push)
		if lw.shared != lu.shared {
			t.Fatalf("push=%t: the view built its own layout", push)
		}
		if &lw.Parts[0] != &lu.Parts[0] || lw.Parts[0].Flat.Wts == nil {
			t.Fatalf("push=%t: the view reads other parts, or the build carries no weights", push)
		}
		if lw.Unweighted || !lu.Unweighted {
			t.Fatalf("push=%t: weighted engine hides weights %t, view %t", push, lw.Unweighted, lu.Unweighted)
		}
		b := buildLayout(private, eu.parts, push)
		want += layoutBytes(b, false)
	}
	if eu.topoBytes != want {
		t.Fatalf("view charged %d topology bytes, a private unweighted build %d", eu.topoBytes, want)
	}
	if ew.topoBytes <= want {
		t.Fatalf("weighted engine charged %d bytes, not more than the unweighted %d", ew.topoBytes, want)
	}
}

// The graph holds a build weakly: once every engine on it has closed, a GC
// frees it, and the next engine builds again.
func TestLayoutFreedAfterLastEngine(t *testing.T) {
	_, _, g := weightedPowerlaw()
	e1 := MustNew(g, testMachine(4, 2), DefaultOptions())
	e2 := MustNew(g.Unweighted(), testMachine(4, 2), DefaultOptions())
	if e1.layoutOf(true).shared != e2.layoutOf(true).shared {
		t.Fatal("second engine built its own layout")
	}
	wp := weak.Make(e1.push.shared)
	e1.Close()
	e2.Close()
	runtime.GC()
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("the graph kept a layout alive after its last engine closed")
	}
	e3 := MustNew(g, testMachine(4, 2), DefaultOptions())
	defer e3.Close()
	rebuilt := e3.layoutOf(true)
	sameEdgeMultiset(t, graphEdges(g), collectLayoutEdges(rebuilt.shared, true))
}

package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// sameArrays asserts two graphs are equal array for array.
func sameArrays(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("shape %v, want %v", got, want)
	}
	if !slices.Equal(got.OutIndex, want.OutIndex) || !slices.Equal(got.OutNbrs, want.OutNbrs) ||
		!slices.Equal(got.InIndex, want.InIndex) || !slices.Equal(got.InNbrs, want.InNbrs) {
		t.Fatalf("topology differs:\n got out %v %v in %v %v\nwant out %v %v in %v %v",
			got.OutIndex, got.OutNbrs, got.InIndex, got.InNbrs,
			want.OutIndex, want.OutNbrs, want.InIndex, want.InNbrs)
	}
	if !slices.Equal(got.OutWts, want.OutWts) || !slices.Equal(got.InWts, want.InWts) ||
		(got.OutWts == nil) != (want.OutWts == nil) || (got.InWts == nil) != (want.InWts == nil) {
		t.Fatalf("weights differ: got %v %v, want %v %v", got.OutWts, got.InWts, want.OutWts, want.InWts)
	}
}

// editList is Patch's reference: drop every copy of the deleted pairs from
// an edge list, keep the order of the rest, append.
func editList(list, deleted, appended []Edge) []Edge {
	var out []Edge
	for _, e := range list {
		if !slices.ContainsFunc(deleted, func(d Edge) bool { return d.Src == e.Src && d.Dst == e.Dst }) {
			out = append(out, e)
		}
	}
	return append(out, appended...)
}

// TestPatchMatchesFromEdges: patching FromEdges(list) equals FromEdges of
// the edited list, every array, weighted and not, one edit after another.
func TestPatchMatchesFromEdges(t *testing.T) {
	const n = 6
	// Not source-major on purpose: in-rows keep the list's order, not the
	// rows' order, and Patch must preserve whichever the list has.
	start := []Edge{
		{4, 0, 1}, {0, 1, 2}, {0, 1, 3}, {2, 2, 4}, {1, 3, 5}, {0, 3, 6}, {3, 0, 7}, {1, 0, 8}, {5, 4, 9},
	}
	steps := []struct {
		name              string
		deleted, appended []Edge
	}{
		{"empty patch", nil, nil},
		{"append to a fresh row and to a full one", nil, []Edge{{Src: 5, Dst: 5, Wt: 10}, {Src: 0, Dst: 2, Wt: 11}}},
		{"duplicate of a base pair", nil, []Edge{{Src: 0, Dst: 1, Wt: 12}}},
		{"delete takes every copy", []Edge{{Src: 0, Dst: 1}}, nil},
		{"delete of an absent pair", []Edge{{Src: 3, Dst: 5}, {Src: 2, Dst: 0}}, nil},
		{"delete a self-loop, add another", []Edge{{Src: 2, Dst: 2}}, []Edge{{Src: 4, Dst: 4, Wt: 13}}},
		{"delete and re-insert one pair", []Edge{{Src: 1, Dst: 3}}, []Edge{{Src: 1, Dst: 3, Wt: 14}}},
		{"empty a row", []Edge{{Src: 0, Dst: 2}, {Src: 0, Dst: 3}, {Src: 0, Dst: 2}}, nil},
		{"first and last row at once", []Edge{{Src: 5, Dst: 4}}, []Edge{{Src: 0, Dst: 5, Wt: 15}, {Src: 5, Dst: 0, Wt: 16}, {Src: 0, Dst: 5, Wt: 17}}},
		{"delete everything left in the last rows", []Edge{{Src: 5, Dst: 5}, {Src: 5, Dst: 0}, {Src: 4, Dst: 4}, {Src: 4, Dst: 0}}, nil},
	}
	for _, weighted := range []bool{false, true} {
		list := start
		g := FromEdges(n, list, weighted)
		for _, s := range steps {
			list = editList(list, s.deleted, s.appended)
			next := g.Patch(s.deleted, s.appended)
			if next == g {
				t.Fatalf("%s: Patch returned its receiver", s.name)
			}
			t.Run(s.name, func(t *testing.T) { sameArrays(t, next, FromEdges(n, list, weighted)) })
			g = next
		}
	}
	sameArrays(t, FromEdges(0, nil, true).Patch(nil, nil), FromEdges(0, nil, true))
}

// TestPatchMatchesFromEdgesRandomized: the same property on seeded random
// streams, with enough deletes per patch that rows with several removed
// endpoints and hub rows occur.
func TestPatchMatchesFromEdgesRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		randEdge := func() Edge {
			return Edge{Src: Vertex(rng.Intn(n)), Dst: Vertex(rng.Intn(n)), Wt: float32(rng.Intn(9) + 1)}
		}
		var list []Edge
		for i := rng.Intn(4 * n); i > 0; i-- {
			list = append(list, randEdge())
		}
		weighted := trial%2 == 0
		g := FromEdges(n, list, weighted)
		for step := 0; step < 6; step++ {
			var deleted, appended []Edge
			for i := rng.Intn(n); i > 0; i-- {
				deleted = append(deleted, randEdge())
			}
			for i := rng.Intn(n); i > 0; i-- {
				appended = append(appended, randEdge())
			}
			list = editList(list, deleted, appended)
			g = g.Patch(deleted, appended)
			sameArrays(t, g, FromEdges(n, list, weighted))
		}
	}
}

// TestPatchKeepsThePredecessorsRowOrder is why a generated base is never
// patched directly: its in-rows are in generation order, Patch keeps them
// so, and the clean fold (FromEdges over the out-order list) does not. Once
// the predecessor is itself FromEdges of the out-order list, the two agree.
func TestPatchKeepsThePredecessorsRowOrder(t *testing.T) {
	generated := FromEdges(3, []Edge{{2, 0, 1}, {1, 0, 2}}, true) // in-row 0 = [2 1]
	appended := []Edge{{Src: 0, Dst: 1, Wt: 3}}
	fold := FromEdges(3, editList(generated.Edges(), nil, appended), true) // in-row 0 = [1 2]

	direct := generated.Patch(nil, appended)
	if !slices.Equal(direct.OutNbrs, fold.OutNbrs) {
		t.Fatalf("out-rows differ: %v vs %v", direct.OutNbrs, fold.OutNbrs)
	}
	if slices.Equal(direct.InNbrs, fold.InNbrs) {
		t.Fatalf("patching a base in generation order gave the fold's in-rows %v; the precondition on Patch is vacuous", fold.InNbrs)
	}
	canonical := FromEdges(3, generated.Edges(), true)
	sameArrays(t, canonical.Patch(nil, appended), fold)
}

func TestPatchPanicsOutOfRange(t *testing.T) {
	g := paperSample()
	for name, call := range map[string]func(){
		"deleted":  func() { g.Patch([]Edge{{Src: 6, Dst: 0}}, nil) },
		"appended": func() { g.Patch(nil, []Edge{{Src: 0, Dst: 6}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s edge outside the vertex range accepted", name)
				}
			}()
			call()
		}()
	}
}

// TestUnweightedViewSharesTopology: the view is the same arrays minus the
// weights, reports what an unweighted build reports, and is built once.
func TestUnweightedViewSharesTopology(t *testing.T) {
	edges := []Edge{{0, 1, 2}, {1, 2, 3}, {2, 0, 4}, {0, 2, 5}}
	w := FromEdges(3, edges, true)
	plain := FromEdges(3, edges, false)
	if plain.Unweighted() != plain {
		t.Fatal("an unweighted graph is its own view")
	}
	got := make(chan *Graph, 8)
	for i := 0; i < cap(got); i++ {
		go func() { got <- w.Unweighted() }()
	}
	u := w.Unweighted()
	for i := 0; i < cap(got); i++ {
		if v := <-got; v != u {
			t.Fatal("two callers got two views")
		}
	}
	if u.Weighted() || u.OutWeights(0) != nil || u.InWeights(0) != nil {
		t.Fatal("the view has weights")
	}
	if &u.OutNbrs[0] != &w.OutNbrs[0] || &u.InNbrs[0] != &w.InNbrs[0] ||
		&u.OutIndex[0] != &w.OutIndex[0] || &u.InIndex[0] != &w.InIndex[0] {
		t.Fatal("the view copied an array")
	}
	sameArrays(t, u, plain)
	if u.TopologyBytes() != plain.TopologyBytes() || u.String() != plain.String() {
		t.Fatalf("view reports %d bytes %v, unweighted build %d bytes %v",
			u.TopologyBytes(), u, plain.TopologyBytes(), plain)
	}
	if !w.Weighted() || w.TopologyBytes() <= u.TopologyBytes() {
		t.Fatal("taking the view changed the weighted graph")
	}
}

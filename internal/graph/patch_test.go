package graph

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// sameGraph asserts two graphs are equal row for row (Equal).
func sameGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	if !Equal(got, want) {
		t.Fatalf("graphs differ:\n got %v %v\nwant %v %v", got, got.Edges(), want, want.Edges())
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
// the edited list, row for row, weighted and not, one edit after another.
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
			t.Run(s.name, func(t *testing.T) { sameGraph(t, next, FromEdges(n, list, weighted)) })
			g = next
		}
	}
	sameGraph(t, FromEdges(0, nil, true).Patch(nil, nil), FromEdges(0, nil, true))
}

// boundaryVertices are the vertices on either side of the chunk boundaries
// of a graph of 3·ChunkSize+5 vertices, and its partial last chunk's.
var boundaryVertices = []Vertex{0, ChunkSize - 1, ChunkSize, ChunkSize + 1, 2*ChunkSize - 1, 2 * ChunkSize, 3*ChunkSize - 1, 3 * ChunkSize, 3*ChunkSize + 4}

// TestPatchMatchesFromEdgesRandomized: the same property on seeded random
// streams, with enough deletes per patch that rows with several removed
// endpoints and hub rows occur, on single-chunk graphs and on edits that
// land on either side of chunk boundaries.
func TestPatchMatchesFromEdgesRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 70; trial++ {
		n := 1 + rng.Intn(12)
		vertex := func() Vertex { return Vertex(rng.Intn(n)) }
		if trial >= 50 { // three chunks and a partial one, edits on their boundaries
			n = 3*ChunkSize + 5
			vertex = func() Vertex { return boundaryVertices[rng.Intn(len(boundaryVertices))] }
		}
		randEdge := func() Edge {
			return Edge{Src: vertex(), Dst: vertex(), Wt: float32(rng.Intn(9) + 1)}
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
			sameGraph(t, g, FromEdges(n, list, weighted))
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
	if !slices.Equal(direct.Edges(), fold.Edges()) {
		t.Fatalf("out-rows differ: %v vs %v", direct.Edges(), fold.Edges())
	}
	if slices.Equal(direct.InNeighbors(0), fold.InNeighbors(0)) {
		t.Fatalf("patching a base in generation order gave the fold's in-row %v; the precondition on Patch is vacuous", fold.InNeighbors(0))
	}
	canonical := FromEdges(3, generated.Edges(), true)
	sameGraph(t, canonical.Patch(nil, appended), fold)
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

// TestUnweightedViewSharesTopology: the view is the same chunks minus the
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
	if &u.OutChunks()[0] != &w.OutChunks()[0] || &u.InChunks()[0] != &w.InChunks()[0] {
		t.Fatal("the view copied its chunks")
	}
	sameGraph(t, u, plain)
	if u.TopologyBytes() != plain.TopologyBytes() || u.String() != plain.String() {
		t.Fatalf("view reports %d bytes %v, unweighted build %d bytes %v",
			u.TopologyBytes(), u, plain.TopologyBytes(), plain)
	}
	if !w.Weighted() || w.TopologyBytes() <= u.TopologyBytes() {
		t.Fatal("taking the view changed the weighted graph")
	}
}

// FuzzPatch decodes its input into a chain of patch batches on a graph of
// 3·ChunkSize+5 vertices, three bytes an op: insert, delete, a duplicate
// of a live edge, a self-loop, a delete and re-insert of one pair in one
// batch, or the end of a batch. Every patched graph, weighted and not,
// must equal FromEdges of the edited list row for row; every chunk no
// edit touched must be its predecessor's, the same arrays, and every other
// chunk arrays of its own — all of them on the first patch, which copies
// the chunks out of FromEdges' flat arrays.
func FuzzPatch(f *testing.F) {
	f.Add([]byte{0, 63, 64, 0, 64, 65, 1, 3, 4, 5, 0, 0, 3, 196, 0, 4, 63, 64})
	f.Add([]byte{1, 0, 1, 2, 63, 0, 5, 0, 0, 4, 64, 63, 3, 128, 0, 1, 127, 128, 0, 195, 192})
	f.Add([]byte{4, 65, 196, 2, 9, 0, 2, 1, 0, 5, 0, 0, 1, 65, 196, 1, 196, 65})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		const n = 3*ChunkSize + 5
		in = in[:min(len(in), 3*64)] // editList is quadratic
		var base []Edge
		for v := range Vertex(n) {
			base = append(base, Edge{Src: v, Dst: (v*7 + 1) % n, Wt: float32(v%5) + 1}, Edge{Src: v, Dst: (v + ChunkSize) % n, Wt: 2})
		}
		var batches [][2][]Edge
		var del, add []Edge
		live := base
		for ; len(in) >= 3; in = in[3:] {
			s, d := Vertex(in[1])%n, Vertex(in[2])%n
			e := Edge{Src: s, Dst: d, Wt: float32(in[0] >> 3)}
			switch in[0] % 6 {
			case 0:
				add = append(add, e)
			case 1:
				del = append(del, e)
			case 2:
				add = append(add, live[(int(in[1])<<8|int(in[2]))%len(live)])
			case 3:
				add = append(add, Edge{Src: s, Dst: s, Wt: e.Wt})
			case 4:
				del, add = append(del, e), append(add, e)
			case 5:
				batches = append(batches, [2][]Edge{del, add})
				live = editList(live, del, add)
				del, add = nil, nil
			}
		}
		batches = append(batches, [2][]Edge{del, add})
		for _, weighted := range []bool{false, true} {
			list, g := base, FromEdges(n, base, weighted)
			for _, b := range batches {
				list = editList(list, b[0], b[1])
				next := g.Patch(b[0], b[1])
				sameGraph(t, next, FromEdges(n, list, weighted))
				touched := [2]map[Vertex]bool{{}, {}}
				for _, e := range append(slices.Clone(b[0]), b[1]...) {
					touched[0][e.Src>>ChunkShift], touched[1][e.Dst>>ChunkShift] = true, true
				}
				for dir, pair := range [2][2]*csr{{&g.out, &next.out}, {&g.in, &next.in}} {
					for c := range pair[0].chunks {
						was, now := &pair[0].chunks[c], &pair[1].chunks[c]
						shared := &was.Idx[0] == &now.Idx[0] && unsafe.SliceData(was.Cols) == unsafe.SliceData(now.Cols)
						if want := !touched[dir][Vertex(c)] && !pair[0].flat; shared != want {
							t.Fatalf("direction %d, chunk %d: shared %t, want %t (touched %t, predecessor flat %t)",
								dir, c, shared, want, touched[dir][Vertex(c)], pair[0].flat)
						}
					}
				}
				g = next
			}
		}
	})
}

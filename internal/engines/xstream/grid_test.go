package xstream

import (
	"errors"
	"slices"
	"testing"

	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/sg"
)

// TestGridLayout holds the tile grid to its definition: the blocks of a
// tile partition its edges, block u is the tile's CSR stream filtered to
// the targets of tile u (so every buffer receives its updates in the
// order a per-edge routing would give), and the tile count and the
// simulated topology footprint are functions of the graph and the tile
// width alone — the footprint still counts the paper's n*4-byte vertex ->
// tile table the host no longer keeps.
func TestGridLayout(t *testing.T) {
	rmatN, rmatE := gen.RMAT(9, 8, 5)
	weighted := append([]graph.Edge(nil), rmatE...)
	gen.AddRandomWeights(weighted, 6)
	// Vertices 64..127 have no out-edges: the middle tile of three is empty.
	gap := []graph.Edge{{Src: 0, Dst: 130, Wt: 2}, {Src: 3, Dst: 70, Wt: 3}, {Src: 3, Dst: 1, Wt: 4},
		{Src: 140, Dst: 2, Wt: 5}, {Src: 191, Dst: 191, Wt: 6}, {Src: 191, Dst: 64, Wt: 7}}
	cases := []struct {
		name      string
		n         int
		edges     []graph.Edge
		weighted  bool
		tileVerts int
	}{
		{"empty", 0, nil, false, 0},
		{"below one word", 40, []graph.Edge{{Src: 1, Dst: 39}, {Src: 39, Dst: 0}, {Src: 1, Dst: 1}}, false, 0},
		{"edgeless tile", 192, gap, false, 64},
		{"weighted edgeless tile", 192, gap, true, 64},
		{"width rounds up to a word", rmatN, rmatE, false, 100},
		{"rmat/64", rmatN, rmatE, false, 64},
		{"rmat/256 weighted", rmatN, weighted, true, 256},
		{"rmat/default", rmatN, rmatE, false, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := graph.FromEdges(c.n, c.edges, c.weighted)
			m := testMachine(2, 2)
			opt := DefaultOptions()
			opt.TileVertices = c.tileVerts
			h := sg.Hints{Weighted: c.weighted}.Normalize()
			e := MustNew(g, m, opt, h)
			defer e.Close()

			width := c.tileVerts
			if width <= 0 {
				width = int(m.Topo.LLCBytes) / (2 * h.DataBytes)
			}
			width = max((width+63)&^63, 64)
			wantTiles := max((c.n+width-1)/width, 1)
			if e.Tiles() != wantTiles {
				t.Fatalf("Tiles() = %d, want %d", e.Tiles(), wantTiles)
			}
			wantTopo := g.NumEdges()*8 + int64(c.n)*4
			if c.weighted {
				wantTopo += g.NumEdges() * 4
			}
			if e.topoB != wantTopo {
				t.Fatalf("topology footprint = %d bytes, want %d", e.topoB, wantTopo)
			}

			for ti := range e.tiles {
				tl := &e.tiles[ti]
				if tl.loVertex != min(ti*width, c.n) || tl.hiVertex != min((ti+1)*width, c.n) {
					t.Fatalf("tile %d covers [%d,%d)", ti, tl.loVertex, tl.hiVertex)
				}
				if len(tl.blk) != wantTiles+1 || tl.blk[0] != 0 || tl.blk[wantTiles] != len(tl.src) {
					t.Fatalf("tile %d: blocks %v do not span its %d edges", ti, tl.blk, len(tl.src))
				}
				if len(tl.dst) != len(tl.src) || (c.weighted && len(tl.wts) != len(tl.src)) || (!c.weighted && tl.wts != nil) {
					t.Fatalf("tile %d: %d sources, %d targets, %d weights", ti, len(tl.src), len(tl.dst), len(tl.wts))
				}
				for u := 0; u < wantTiles; u++ {
					var src, dst []graph.Vertex
					var wts []float32
					for v := tl.loVertex; v < tl.hiVertex; v++ {
						ws := g.OutWeights(graph.Vertex(v))
						for j, d := range g.OutNeighbors(graph.Vertex(v)) {
							if int(d)/width != u {
								continue
							}
							src, dst = append(src, graph.Vertex(v)), append(dst, d)
							if ws != nil {
								wts = append(wts, ws[j])
							}
						}
					}
					b0, b1 := tl.blk[u], tl.blk[u+1]
					if b0 > b1 || !slices.Equal(tl.src[b0:b1], src) || !slices.Equal(tl.dst[b0:b1], dst) ||
						(c.weighted && !slices.Equal(tl.wts[b0:b1], wts)) {
						t.Fatalf("block (%d,%d) = edges [%d,%d), not the tile's CSR stream into tile %d", ti, u, b0, b1, u)
					}
				}
			}
		})
	}
}

// TestFailedIterationKeepsTheSpareBitmap fails the gather phase and the
// apply phase in turn: the iteration must leave the active set as it was
// and hand the next-active bitmap it took back, so the replay after
// recovery reuses it (no allocation) and ends where a run that never
// failed ends.
func TestFailedIterationKeepsTheSpareBitmap(t *testing.T) {
	n, edges := gen.RMAT(8, 6, 9)
	g := graph.FromEdges(n, edges, false)
	keep := func(v graph.Vertex) bool { return v%3 != 0 }
	// Thread 0 always runs on the calling goroutine, so counting its
	// dispatches counts phases: scatter, gather, apply.
	for _, c := range []struct {
		name      string
		failPhase int
		apply     Applier
	}{{"gather", 2, nil}, {"apply", 3, keep}} {
		t.Run(c.name, func(t *testing.T) {
			run := func(fail bool) *Engine {
				opt := DefaultOptions()
				opt.TileVertices = 64
				e := MustNew(g, testMachine(2, 2), opt, sg.Hints{})
				t.Cleanup(e.Close)
				k := &sumKernel{next: make([]float64, n)}
				e.SetActive([]graph.Vertex{1, 2, 3, 70, 200})
				e.Iterate(k, c.apply) // retires a bitmap into the spare slot
				if !fail {
					e.Iterate(k, c.apply)
					return e
				}
				before, spare := slices.Clone(e.active), e.spare
				if spare == nil {
					t.Fatal("no spare bitmap after a committed iteration")
				}
				phase := 0
				e.SetFaultHook(func(th int) error {
					if th == 0 {
						if phase++; phase == c.failPhase {
							return errors.New("injected")
						}
					}
					return nil
				})
				e.Iterate(k, c.apply)
				if e.Err() == nil {
					t.Fatal("the injected fault did not fail the iteration")
				}
				if !slices.Equal(e.active, before) {
					t.Fatal("a failed iteration replaced the active set")
				}
				if len(e.spare) == 0 || &e.spare[0] != &spare[0] {
					t.Fatal("a failed iteration dropped the spare bitmap")
				}
				e.SetFaultHook(nil)
				e.ClearErr()
				e.Iterate(k, c.apply)
				if &e.active[0] != &spare[0] {
					t.Fatal("the replay allocated a fresh active bitmap")
				}
				return e
			}
			faulted, clean := run(true), run(false)
			if !slices.Equal(faulted.active, clean.active) || faulted.ActiveCount() != clean.ActiveCount() {
				t.Fatalf("active set after recovery differs from a fault-free run (%d vs %d active)",
					faulted.ActiveCount(), clean.ActiveCount())
			}
		})
	}
}

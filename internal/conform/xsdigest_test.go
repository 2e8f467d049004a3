package conform

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"polymer/internal/algorithms"
	"polymer/internal/engines/xstream"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
	"polymer/internal/obs"
	"polymer/internal/sg"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/xstream.digests")

// xsPhases is a sink that keeps the X-Stream phases' kinds and counts in
// emission order: per round, the scatter's active sources, the shuffled
// updates, the applied updates and, after an apply phase, the vertices it
// visited.
type xsPhases struct {
	log    []string
	rounds int
}

func (p *xsPhases) Emit(ev obs.Event) {
	if ev.Pid == obs.PidSim && ev.Cat == "xstream" && ev.Ph == obs.PhSpan && ev.Step == -1 {
		p.log = append(p.log, fmt.Sprintf("%s:%d", ev.Name, ev.Active))
		if ev.Name == "scatter" {
			p.rounds++
		}
	}
}

// xsDigest is one cell's line: the simulated clock's bits, the edge count
// and the simulated peak bytes in the clear, and FNV-64a digests of the
// access statistics, of the per-round counts and of the value bits.
func xsDigest(e *xstream.Engine, rounds []int64, phases *xsPhases, values []uint64) string {
	sum := func(write func(h func(string))) uint64 {
		h := fnv.New64a()
		write(func(s string) { h.Write([]byte(s)) })
		return h.Sum64()
	}
	counts := sum(func(w func(string)) {
		w(fmt.Sprint(rounds))
		w(strings.Join(phases.log, " "))
	})
	vals := sum(func(w func(string)) {
		for _, v := range values {
			w(fmt.Sprintf("%x,", v))
		}
	})
	stats := sum(func(w func(string)) { w(fmt.Sprintf("%+v", e.RunStats())) })
	return fmt.Sprintf("rounds=%d sim=%x edges=%d peak=%d stats=%016x counts=%016x values=%016x",
		phases.rounds, math.Float64bits(e.SimSeconds()), e.EdgesProcessed(), e.Machine().Alloc().Peak(), stats, counts, vals)
}

func f64Bits(vs []float64) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = math.Float64bits(v)
	}
	return out
}

// TestXStreamDigests pins X-Stream's Iterate and its traversal drivers
// bit for bit, cell by cell, against testdata/xstream.digests: value bits,
// per-round active and update counts, the simulated clock, access
// statistics, edges processed and simulated peak bytes. The host loops
// may change shape; none of these may move.
//
// Iterate rows drive the PR, SpMV and BP kernels the X-Stream drivers
// iterate for three rounds with no apply phase, from every vertex and
// from a subset: from the second round on the active set is whatever the
// gather activated, so the active-source test is exercised on both
// starts. Driver rows run XSBFS, XSSSSP, XSCC (on the symmetrized graph)
// and XSPageRankDelta. Both sets run on a weighted and an unweighted
// R-MAT graph at tile widths 64 (more tiles than threads, so the order a
// destination's blocks are streamed in shows), 256 and the LLC's. One
// thread gathers each tile, so the lines hold at any GOMAXPROCS.
//
// go test -run XStreamDigests -update ./internal/conform rewrites the
// file, for a deliberate cost-model or kernel change only.
func TestXStreamDigests(t *testing.T) {
	n, edges := gen.RMAT(10, 6, 31)
	ug := graph.FromEdges(n, edges, false)
	gen.AddRandomWeights(edges, 32)
	wg := graph.FromEdges(n, edges, true)
	var subset []graph.Vertex
	for v := 0; v < n; v++ {
		if v%7 < 2 {
			subset = append(subset, graph.Vertex(v))
		}
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{{"weighted", wg}, {"unweighted", ug}}
	tiles := []struct {
		name  string
		verts int
	}{{"tile64", 64}, {"tile256", 256}, {"tileLLC", 0}}
	newEngine := func(g *graph.Graph, tileVerts int, h sg.Hints) (*xstream.Engine, *xsPhases) {
		opt := xstream.DefaultOptions()
		opt.TileVertices = tileVerts
		e := xstream.MustNew(g, numa.NewMachine(numa.IntelXeon80(), 4, 2), opt, h)
		phases := &xsPhases{}
		e.SetTracer(obs.New(phases))
		return e, phases
	}

	// A cell is one line of the file: its name and how to compute the
	// rest.
	type cell struct {
		name   string
		digest func(t *testing.T) string
	}
	var cells []cell

	hints := []struct {
		algo string
		h    sg.Hints
	}{
		{"pr", algorithms.PRHints()},
		{"spmv", sg.Hints{DataBytes: 8, Weighted: true}},
		{"bp", sg.Hints{DataBytes: 16, Weighted: true}},
	}
	const rounds = 3
	for _, a := range hints {
		for _, gr := range graphs {
			for _, tl := range tiles {
				for _, start := range []string{"all", "subset"} {
					cells = append(cells, cell{"iterate/" + a.algo + "/" + gr.name + "/" + tl.name + "/" + start, func(t *testing.T) string {
						e, phases := newEngine(gr.g, tl.verts, a.h)
						defer e.Close()
						ks := algorithms.NewXSKernels(e)[a.algo]
						rng := gen.NewRNG(77)
						for v := range ks.In {
							ks.In[v] = rng.Float64()
						}
						if start == "all" {
							e.SetAllActive()
						} else {
							e.SetActive(subset)
						}
						active := make([]int64, rounds)
						for r := range active {
							active[r] = e.Iterate(ks.Kernel, nil)
						}
						if err := e.Err(); err != nil {
							t.Fatal(err)
						}
						if start == "subset" && active[0] == int64(n) {
							t.Fatal("the subset start activated every vertex: no partial active set was scattered")
						}
						return xsDigest(e, active, phases, append(f64Bits(ks.In), f64Bits(ks.Out)...))
					}})
				}
			}
		}
	}

	drivers := []struct {
		name string
		sym  bool // CC runs on the symmetrized graph
		run  func(e *xstream.Engine) []uint64
	}{
		{"bfs", false, func(e *xstream.Engine) []uint64 {
			levels := algorithms.XSBFS(e, 0)
			out := make([]uint64, len(levels))
			for i, l := range levels {
				out[i] = uint64(l)
			}
			return out
		}},
		{"sssp", false, func(e *xstream.Engine) []uint64 { return f64Bits(algorithms.XSSSSP(e, 0)) }},
		{"cc", true, func(e *xstream.Engine) []uint64 {
			labels := algorithms.XSCC(e)
			out := make([]uint64, len(labels))
			for i, l := range labels {
				out[i] = uint64(l)
			}
			return out
		}},
		{"prdelta", false, func(e *xstream.Engine) []uint64 {
			ranks, iters := algorithms.XSPageRankDelta(e, 1e-10, 250)
			return append(f64Bits(ranks), uint64(iters))
		}},
	}
	for _, d := range drivers {
		for _, gr := range graphs {
			for _, tl := range tiles {
				cells = append(cells, cell{"driver/" + d.name + "/" + gr.name + "/" + tl.name, func(t *testing.T) string {
					g := gr.g
					if d.sym {
						g = g.Symmetrized()
					}
					e, phases := newEngine(g, tl.verts, sg.Hints{DataBytes: 8, Weighted: g.Weighted()})
					defer e.Close()
					values := d.run(e)
					if err := e.Err(); err != nil {
						t.Fatal(err)
					}
					return xsDigest(e, nil, phases, values)
				}})
			}
		}
	}

	path := filepath.Join("testdata", "xstream.digests")
	if *updateDigests {
		var buf bytes.Buffer
		for _, c := range cells {
			fmt.Fprintf(&buf, "%s %s\n", c.name, c.digest(t))
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	var recorded []string
	for _, l := range strings.Split(strings.TrimSuffix(string(file), "\n"), "\n") {
		name, digest, _ := strings.Cut(l, " ")
		want[name] = digest
		recorded = append(recorded, name)
	}
	var names []string
	for _, c := range cells {
		names = append(names, c.name)
	}
	if !slices.Equal(names, recorded) {
		t.Fatalf("cells %v, recorded %v", names, recorded)
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			if got := c.digest(t); got != want[c.name] {
				t.Errorf("got  %s\nwant %s", got, want[c.name])
			}
		})
	}
}

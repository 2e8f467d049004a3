package conform

import (
	"math"
	"slices"
	"testing"

	"polymer/internal/algorithms"
	"polymer/internal/engines/xstream"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
	"polymer/internal/sg"
)

// perEdgeXS hides a kernel's block loops: embedding the interface
// promotes only Scatter and Gather.
type perEdgeXS struct{ xstream.Kernel }

// TestBlockKernelEquivalence holds the xstream.BlockKernel contract at
// engine level: the PR, SpMV and BP kernels the X-Stream drivers iterate,
// run through their block loops and through the per-edge loops, leave the
// same value bits, active counts, simulated clock, access statistics and
// edge count. No apply phase runs, so from the second round on the active
// set is whatever the gather activated and the active-source test is
// exercised on both starts. One thread gathers each tile, so values are
// exact at any GOMAXPROCS.
func TestBlockKernelEquivalence(t *testing.T) {
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
	hints := map[string]sg.Hints{
		"pr":   algorithms.PRHints(),
		"spmv": {DataBytes: 8, Weighted: true},
		"bp":   {DataBytes: 16, Weighted: true},
	}
	const rounds = 3

	type outcome struct {
		in, out []float64
		active  [rounds]int64
		sim     float64
		stats   numa.Stats
		edges   int64
	}
	for algo, h := range hints {
		for gname, g := range map[string]*graph.Graph{"weighted": wg, "unweighted": ug} {
			for _, tileVerts := range []int{64, 256, 0} {
				for _, start := range []string{"all", "subset"} {
					name := algo + "/" + gname + "/" + map[int]string{64: "tile64", 256: "tile256", 0: "tileLLC"}[tileVerts] + "/" + start
					t.Run(name, func(t *testing.T) {
						run := func(block bool) outcome {
							opt := xstream.DefaultOptions()
							opt.TileVertices = tileVerts
							e := xstream.MustNew(g, numa.NewMachine(numa.IntelXeon80(), 4, 2), opt, h)
							defer e.Close()
							ks := algorithms.NewXSKernels(e)[algo]
							rng := gen.NewRNG(77)
							for v := range ks.In {
								ks.In[v] = rng.Float64()
							}
							k := ks.Kernel
							if _, ok := k.(xstream.BlockKernel); !ok {
								t.Fatalf("the %s kernel has no block loops", algo)
							}
							if !block {
								k = perEdgeXS{k}
								if _, ok := k.(xstream.BlockKernel); ok {
									t.Fatal("perEdgeXS does not hide the block loops")
								}
							}
							if start == "all" {
								e.SetAllActive()
							} else {
								e.SetActive(subset)
							}
							var o outcome
							for r := range o.active {
								o.active[r] = e.Iterate(k, nil)
							}
							if err := e.Err(); err != nil {
								t.Fatal(err)
							}
							o.in, o.out = slices.Clone(ks.In), slices.Clone(ks.Out)
							o.sim, o.stats, o.edges = e.SimSeconds(), e.RunStats(), e.EdgesProcessed()
							return o
						}
						blk, edge := run(true), run(false)

						if blk.active != edge.active {
							t.Errorf("active counts: block %v, per-edge %v", blk.active, edge.active)
						}
						if start == "subset" && blk.active[0] == int64(n) {
							t.Error("the subset start activated every vertex: no partial active set was scattered")
						}
						if math.Float64bits(blk.sim) != math.Float64bits(edge.sim) {
							t.Errorf("SimSeconds: block %x, per-edge %x", blk.sim, edge.sim)
						}
						if blk.stats != edge.stats {
							t.Errorf("RunStats: block %+v, per-edge %+v", blk.stats, edge.stats)
						}
						if want := rounds * g.NumEdges(); blk.edges != want || edge.edges != want {
							t.Errorf("EdgesProcessed: block %d, per-edge %d, want %d", blk.edges, edge.edges, want)
						}
						for _, arr := range []struct {
							name      string
							blk, edge []float64
						}{{"scattered", blk.in, edge.in}, {"gathered", blk.out, edge.out}} {
							for v := range arr.blk {
								if math.Float64bits(arr.blk[v]) != math.Float64bits(arr.edge[v]) {
									t.Fatalf("%s[%d]: block %x, per-edge %x", arr.name, v, arr.blk[v], arr.edge[v])
								}
							}
						}
					})
				}
			}
		}
	}
}

package algorithms

import (
	"testing"

	"polymer/internal/engines/xstream"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/mem"
	"polymer/internal/numa"
	"polymer/internal/sg"
)

// BenchmarkXStreamIterate times one PageRank iteration on X-Stream, as
// XSPageRankE steps it (scatter, shuffle, gather and the normalising
// apply), on RMAT(15,16) with the default tiles on the 8x10 IntelXeon80
// machine: engine-dense's X-Stream leg, one iteration a b.N. It reports
// host ns per edge and the bytes an iteration allocates, the first
// iteration's included: host update lists or per-tile scratch would show
// there.
func BenchmarkXStreamIterate(b *testing.B) {
	n, edges := gen.RMAT(15, 16, 7)
	g := graph.FromEdges(n, edges, false)
	topo := numa.IntelXeon80()
	e := xstream.MustNew(g, numa.NewMachine(topo, topo.Sockets, topo.CoresPerSocket), xstream.DefaultOptions(), prHints)
	defer e.Close()
	k := newPRKernel(newRun(e), 0.85)
	step, apply := xsStepper(e, k).step, k.apply
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		step(apply, false)
		k.curr, k.next = k.next, k.curr
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.NumEdges()), "ns/edge")
}

// BenchmarkXStreamTraversal times one whole X-Stream traversal a b.N on
// the 8x10 IntelXeon80 machine with the default tiles: BFS across
// RoadGrid(100,100) from its corner (about 200 rounds of tiny active
// sets, each still streaming every edge), SSSP on a weighted RMAT(14,8)
// and CC on its symmetrized twin. Each answer goes back to the spare
// list, so the bytes reported are the run's own.
func BenchmarkXStreamTraversal(b *testing.B) {
	topo := numa.IntelXeon80()
	machine := func() *numa.Machine { return numa.NewMachine(topo, topo.Sockets, topo.CoresPerSocket) }
	rn, redges := gen.RoadGrid(100, 100, 7)
	road := graph.FromEdges(rn, redges, false)
	n, edges := gen.RMAT(14, 8, 7)
	gen.AddRandomWeights(edges, 8)
	rmat := graph.FromEdges(n, edges, true)
	cases := []struct {
		name string
		g    *graph.Graph
		run  func(e *xstream.Engine)
	}{
		{"bfs-road", road, func(e *xstream.Engine) { mem.Recycle(XSBFS(e, 99)) }},
		{"sssp-rmat", rmat, func(e *xstream.Engine) { mem.Recycle(XSSSSP(e, 0)) }},
		{"cc-rmat", rmat.Symmetrized(), func(e *xstream.Engine) { mem.Recycle(XSCC(e)) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			e := xstream.MustNew(c.g, machine(), xstream.DefaultOptions(), sg.Hints{DataBytes: 8, Weighted: c.g.Weighted()})
			defer e.Close()
			c.run(e) // warm up: run arrays, active bitmaps
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				c.run(e)
			}
		})
	}
}

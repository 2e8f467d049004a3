package algorithms

import (
	"testing"

	"polymer/internal/engines/xstream"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
)

// BenchmarkXStreamIterate times one PageRank iteration on X-Stream, as
// XSPageRankE steps it (scatter, shuffle, gather and the normalising
// apply), on RMAT(15,16) with the default tiles on the 8x10 IntelXeon80
// machine: engine-dense's X-Stream leg, one iteration a b.N. It reports
// host ns per edge and the bytes an iteration allocates, the first
// iteration's included: that is where a kernel on the per-edge path grows
// its update lists.
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

package core

import (
	"testing"

	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/partition"
	"polymer/internal/sg"
	"polymer/internal/state"
)

// Wall-clock benchmarks of the engine's hot loops (the simulated clock is
// benchmarked separately in the repository root's bench_test.go).

func benchSetup(b *testing.B, mode Mode) (*Engine, *state.Subset, int) {
	b.Helper()
	n, edges := gen.RMAT(13, 16, 1)
	g := graph.FromEdges(n, edges, false)
	m := testMachine(4, 2)
	opt := DefaultOptions()
	opt.Mode = mode
	opt.Adaptive = false
	e := MustNew(g, m, opt)
	b.Cleanup(e.Close)
	return e, state.NewAll(e.Bounds()), n
}

func BenchmarkEdgeMapDensePush(b *testing.B) {
	e, all, n := benchSetup(b, Push)
	k := newAddKernel(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EdgeMap(all, k, sg.Hints{DensePush: true})
	}
	b.ReportMetric(float64(e.Graph().NumEdges()), "edges/op")
}

func BenchmarkEdgeMapDensePull(b *testing.B) {
	e, all, n := benchSetup(b, Pull)
	k := newAddKernel(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EdgeMap(all, k, sg.Hints{})
	}
	b.ReportMetric(float64(e.Graph().NumEdges()), "edges/op")
}

func BenchmarkEdgeMapSparse(b *testing.B) {
	n, edges := gen.RMAT(13, 16, 1)
	g := graph.FromEdges(n, edges, false)
	e := MustNew(g, testMachine(4, 2), DefaultOptions())
	b.Cleanup(e.Close)
	frontier := make([]graph.Vertex, 0, 64)
	for v := 0; v < 64; v++ {
		frontier = append(frontier, graph.Vertex(v*97%n))
	}
	in := state.FromVertices(e.Bounds(), frontier)
	k := newAddKernel(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EdgeMap(in, k, sg.Hints{DensePush: true})
	}
}

func BenchmarkVertexMapDense(b *testing.B) {
	e, all, _ := benchSetup(b, Push)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.VertexMap(all, func(v graph.Vertex) bool { return v%2 == 0 })
	}
}

func BenchmarkLayoutBuild(b *testing.B) {
	n, edges := gen.RMAT(13, 16, 1)
	g := graph.FromEdges(n, edges, false)
	parts := partition.EdgeBalanced(g, 4, partition.In)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildLayout(g, parts, true) // engines share builds; time the build itself
	}
}

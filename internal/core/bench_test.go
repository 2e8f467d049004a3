package core_test

import (
	"testing"

	"polymer/internal/algorithms"
	"polymer/internal/core"
	"polymer/internal/engines/ligra"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
	"polymer/internal/sg"
	"polymer/internal/state"
)

// Wall-clock benchmarks of the engine's hot loops (the simulated clock is
// benchmarked separately in the repository root's bench_test.go).

// countKernel counts the edges applied to each target; every update
// reports true.
type countKernel struct{ next []float64 }

func (k *countKernel) Update(s, d graph.Vertex, w float32) bool {
	k.next[d]++
	return true
}

func (k *countKernel) Cond(graph.Vertex) bool { return true }

func benchMachine() *numa.Machine { return numa.NewMachine(numa.IntelXeon80(), 4, 2) }

// paperMachine is the paper's whole 8x10 machine.
func paperMachine() *numa.Machine {
	topo := numa.IntelXeon80()
	return numa.NewMachine(topo, topo.Sockets, topo.CoresPerSocket)
}

func benchSetup(b *testing.B, mode core.Mode) (*core.Engine, *state.Subset, *countKernel) {
	b.Helper()
	n, edges := gen.RMAT(13, 16, 1)
	g := graph.FromEdges(n, edges, false)
	opt := core.DefaultOptions()
	opt.Mode = mode
	opt.Adaptive = false
	e := core.MustNew(g, benchMachine(), opt)
	b.Cleanup(e.Close)
	return e, state.NewAll(e.Bounds()), &countKernel{next: make([]float64, n)}
}

func BenchmarkEdgeMapDensePush(b *testing.B) {
	e, all, k := benchSetup(b, core.Push)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EdgeMap(all, k, sg.Hints{DensePush: true})
	}
	b.ReportMetric(float64(e.Graph().NumEdges()), "edges/op")
}

func BenchmarkEdgeMapDensePull(b *testing.B) {
	e, all, k := benchSetup(b, core.Pull)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EdgeMap(all, k, sg.Hints{})
	}
	b.ReportMetric(float64(e.Graph().NumEdges()), "edges/op")
}

func BenchmarkEdgeMapSparse(b *testing.B) {
	n, edges := gen.RMAT(13, 16, 1)
	g := graph.FromEdges(n, edges, false)
	e := core.MustNew(g, benchMachine(), core.DefaultOptions())
	b.Cleanup(e.Close)
	frontier := make([]graph.Vertex, 0, 64)
	for v := 0; v < 64; v++ {
		frontier = append(frontier, graph.Vertex(v*97%n))
	}
	in := state.FromVertices(e.Bounds(), frontier)
	k := &countKernel{next: make([]float64, n)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EdgeMap(in, k, sg.Hints{DensePush: true})
	}
}

func BenchmarkVertexMapDense(b *testing.B) {
	e, all, _ := benchSetup(b, core.Push)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.VertexMap(all, func(v graph.Vertex) bool { return v%2 == 0 })
	}
}

// BenchmarkSweepNsPerEdge is the host cost of a dense sweep per edge it
// processes, on Polymer and Ligra with the algorithms' own kernels and
// hints: PageRank's push EdgeMap over the full frontier and one SSSP pull
// superstep out of every third vertex (which also resets the distances,
// O(|V|)), on the serving layer's weighted power-law graph (small scale:
// 16,000 vertices, 162,773 edges) and its 8x10 machine.
func BenchmarkSweepNsPerEdge(b *testing.B) {
	g, err := gen.Load(gen.PowerLaw, gen.Small, true)
	if err != nil {
		b.Fatal(err)
	}
	sources := make([]graph.Vertex, 0, g.NumVertices()/3+1)
	for v := 0; v < g.NumVertices(); v += 3 {
		sources = append(sources, graph.Vertex(v))
	}
	type engine interface {
		sg.Engine
		EdgesProcessed() int64
	}
	engines := []struct {
		name string
		new  func() engine
	}{
		{"core", func() engine { return core.MustNew(g, paperMachine(), core.DefaultOptions()) }},
		{"ligra", func() engine { return ligra.MustNew(g, paperMachine(), ligra.DefaultOptions()) }},
	}
	sweeps := []struct {
		name string
		step func(sg.Engine) func()
	}{
		{"pr-push", algorithms.PRSweep},
		{"sssp-pull", func(e sg.Engine) func() {
			superstep := algorithms.TraversalSuperstep(e, true, sources)
			return func() { superstep() }
		}},
	}
	for _, eng := range engines {
		for _, sw := range sweeps {
			b.Run(eng.name+"/"+sw.name, func(b *testing.B) {
				e := eng.new()
				defer e.Close()
				step := sw.step(e)
				step() // warm up: layouts, scratch arenas
				before := e.EdgesProcessed()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step()
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(e.EdgesProcessed()-before), "ns/edge")
			})
		}
	}
}

// BenchmarkSparseBFS is the host cost of one BFS across a weighted road
// grid (RoadGrid 200x200, graph seed 7) from its top-right corner, on
// Polymer and Ligra on the 8x10 machine: about 400 supersteps of small
// frontiers, almost all sparse pushes. It is the engine-sparse workload's
// Polymer and Ligra legs without the harness.
func BenchmarkSparseBFS(b *testing.B) {
	const side = 200
	n, edges := gen.RoadGrid(side, side, 7)
	g := graph.FromEdges(n, edges, true)
	engines := []struct {
		name string
		new  func() sg.Engine
	}{
		{"core", func() sg.Engine { return core.MustNew(g, paperMachine(), core.DefaultOptions()) }},
		{"ligra", func() sg.Engine { return ligra.MustNew(g, paperMachine(), ligra.DefaultOptions()) }},
	}
	for _, eng := range engines {
		b.Run(eng.name, func(b *testing.B) {
			e := eng.new()
			defer e.Close()
			algorithms.BFS(e, side-1) // warm up: layouts, scratch arenas
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				algorithms.BFS(e, side-1)
			}
		})
	}
}

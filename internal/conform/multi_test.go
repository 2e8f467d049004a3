package conform

import (
	"testing"

	"polymer/internal/gen"
	"polymer/internal/graph"
)

// TestMultiSourceDifferential asserts the batching invisibility
// contract on both corpus graphs, both topologies and both
// scatter-gather engines: every per-source output of a MultiBFS /
// MultiSSSP sweep is bit-identical to the same engine's single-source
// run, and conforms to every other engine and the sequential oracle
// under the algorithm's policy.
func TestMultiSourceDifferential(t *testing.T) {
	srcs := []graph.Vertex{3, 0, 17, 3, 101} // includes a duplicate source
	for _, ng := range corpusGraphs() {
		for _, topo := range Topos() {
			for _, eng := range []Engine{Polymer, Ligra} {
				for _, alg := range []Algo{BFS, SSSP} {
					t.Run(ng.name+"/"+string(eng)+"/"+string(alg)+"/"+topo.Topology().Name, func(t *testing.T) {
						if d := CheckMultiSource(eng, alg, topo, ng.g, srcs); d != nil {
							t.Fatal(d)
						}
					})
				}
			}
		}
	}
}

// TestMultiSourceAdversarial sweeps the single-source == multi-source
// property over the adversarial shapes (self-loops, stars, disconnected
// pieces): every reachable and unreachable vertex must agree bit-for-bit
// with the independent runs.
func TestMultiSourceAdversarial(t *testing.T) {
	for _, shape := range gen.Adversarial() {
		if shape.N == 0 {
			continue // no valid source exists
		}
		g := graph.FromEdges(shape.N, shape.Edges, false)
		srcs := []graph.Vertex{0}
		if shape.N > 1 {
			srcs = append(srcs, graph.Vertex(shape.N-1))
		}
		for _, alg := range []Algo{BFS, SSSP} {
			t.Run(shape.Name+"/"+string(alg), func(t *testing.T) {
				if d := CheckMultiSource(Polymer, alg, Intel80, g, srcs); d != nil {
					t.Fatal(d)
				}
			})
		}
	}
}

// TestMultiSourceBounds pins the batch-size and validation contract.
func TestMultiSourceBounds(t *testing.T) {
	ng := corpusGraphs()[0]
	if _, err := RunMultiSource(Polymer, BFS, Intel80, ng.g, nil); err == nil {
		t.Fatal("empty source batch accepted")
	}
	too := make([]graph.Vertex, 65)
	if _, err := RunMultiSource(Polymer, BFS, Intel80, ng.g, too); err == nil {
		t.Fatal("65-source batch accepted (bound is 64)")
	}
	if _, err := RunMultiSource(Polymer, SSSP, Intel80, ng.g, []graph.Vertex{1 << 30}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	// A full 64-source batch is legal (the mask exactly fills a uint64).
	full := make([]graph.Vertex, 64)
	for i := range full {
		full[i] = graph.Vertex(i)
	}
	if _, err := RunMultiSource(Ligra, BFS, Intel80, ng.g, full); err != nil {
		t.Fatalf("64-source batch rejected: %v", err)
	}
}

package core

import (
	"testing"

	"polymer/internal/engines/ligra"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
	"polymer/internal/sg"
	"polymer/internal/state"
)

// The shared sweep (sg.Sweep) held to its definition on both engines that
// run it: Polymer, one part per node, and Ligra, one part of the CSR.

// sweepEngines builds each engine adaptive or all-dense, its dense
// direction left to the hints.
var sweepEngines = []struct {
	name string
	new  func(g *graph.Graph, m *numa.Machine, adaptive bool) sg.Engine
}{
	{"polymer", func(g *graph.Graph, m *numa.Machine, adaptive bool) sg.Engine {
		opt := DefaultOptions()
		opt.Adaptive = adaptive
		return MustNew(g, m, opt)
	}},
	{"ligra", func(g *graph.Graph, m *numa.Machine, adaptive bool) sg.Engine {
		opt := ligra.DefaultOptions()
		opt.Adaptive = adaptive
		return ligra.MustNew(g, m, opt)
	}},
}

// expectApplied returns the edges whose source is in the active set.
func expectApplied(g *graph.Graph, active func(graph.Vertex) bool) map[edgeKey]int {
	out := make(map[edgeKey]int)
	for v := 0; v < g.NumVertices(); v++ {
		if !active(graph.Vertex(v)) {
			continue
		}
		for _, u := range g.OutNeighbors(graph.Vertex(v)) {
			out[edgeKey{graph.Vertex(v), u}]++
		}
	}
	return out
}

func TestEdgeMapDensePushAppliesAllActiveEdges(t *testing.T) {
	n, edges := gen.RMAT(9, 8, 5)
	g := graph.FromEdges(n, edges, false)
	for _, eng := range sweepEngines {
		t.Run(eng.name, func(t *testing.T) {
			e := eng.new(g, testMachine(4, 2), false)
			defer e.Close()
			k := newAddKernel(n)
			out := e.EdgeMap(state.NewAll(e.Bounds()), k, sg.Hints{DensePush: true})

			sameEdgeMultiset(t, expectApplied(g, func(graph.Vertex) bool { return true }), k.seen)
			for v := 0; v < n; v++ {
				// Every vertex with an in-edge is in the output frontier, and
				// next[v] is its in-degree.
				in := g.InDegree(graph.Vertex(v))
				if got := out.Contains(graph.Vertex(v)); got != (in > 0) {
					t.Fatalf("frontier membership of %d = %t, want %t", v, got, in > 0)
				}
				if k.next[v] != float64(in) {
					t.Fatalf("next[%d] = %v, want %d", v, k.next[v], in)
				}
			}
		})
	}
}

func TestEdgeMapDensePullMatchesPush(t *testing.T) {
	n, edges := gen.Uniform(400, 3000, 3)
	g := graph.FromEdges(n, edges, false)
	for _, eng := range sweepEngines {
		t.Run(eng.name, func(t *testing.T) {
			e := eng.new(g, testMachine(2, 2), false)
			defer e.Close()
			kPush, kPull := newAddKernel(n), newAddKernel(n)
			e.EdgeMap(state.NewAll(e.Bounds()), kPush, sg.Hints{DensePush: true})
			e.EdgeMap(state.NewAll(e.Bounds()), kPull, sg.Hints{})
			for v := 0; v < n; v++ {
				if kPush.next[v] != kPull.next[v] {
					t.Fatalf("push/pull mismatch at %d: %v vs %v", v, kPush.next[v], kPull.next[v])
				}
			}
		})
	}
}

func TestEdgeMapSparseMatchesDense(t *testing.T) {
	n, edges := gen.Powerlaw(600, 6, 2.0, 11)
	g := graph.FromEdges(n, edges, false)
	// A small frontier takes the sparse path under the adaptive policy.
	frontier := []graph.Vertex{1, 5, 9, 100, 101, 599}
	for _, eng := range sweepEngines {
		t.Run(eng.name, func(t *testing.T) {
			run := func(adaptive bool) (*addKernel, *state.Subset) {
				e := eng.new(g, testMachine(2, 2), adaptive)
				defer e.Close()
				k := newAddKernel(n)
				out := e.EdgeMap(state.FromVertices(e.Bounds(), frontier), k, sg.Hints{DensePush: true})
				if p, ok := e.(*Engine); ok && (p.Metrics().SparsePhases == 1) != adaptive {
					t.Fatalf("adaptive=%t: ran %+v", adaptive, p.Metrics())
				}
				return k, out
			}
			kA, outA := run(true)
			kB, outB := run(false)
			sameEdgeMultiset(t, kB.seen, kA.seen)
			if outA.Count() != outB.Count() {
				t.Fatalf("sparse/dense frontier sizes differ: %d vs %d", outA.Count(), outB.Count())
			}
			outA.ForEach(func(v graph.Vertex) {
				if !outB.Contains(v) {
					t.Fatalf("frontier member %d missing from dense result", v)
				}
			})
		})
	}
}

func TestVertexMapVisitsEachActiveOnce(t *testing.T) {
	n := 137
	g := graph.FromEdges(n, nil, false)
	for _, eng := range sweepEngines {
		t.Run(eng.name, func(t *testing.T) {
			e := eng.new(g, testMachine(4, 2), true)
			defer e.Close()
			counts := make([]int64, n)
			out := e.VertexMap(state.NewAll(e.Bounds()), func(v graph.Vertex) bool {
				counts[v]++
				return v%3 == 0
			})
			for v, c := range counts {
				if c != 1 {
					t.Fatalf("vertex %d visited %d times", v, c)
				}
			}
			if want := int64((n + 2) / 3); out.Count() != want {
				t.Fatalf("filtered count = %d, want %d", out.Count(), want)
			}
		})
	}
}

func TestEmptyInputsShortCircuit(t *testing.T) {
	n, edges := gen.Chain(50)
	g := graph.FromEdges(n, edges, false)
	for _, eng := range sweepEngines {
		t.Run(eng.name, func(t *testing.T) {
			e := eng.new(g, testMachine(2, 1), true)
			defer e.Close()
			empty := state.NewEmpty(e.Bounds())
			if out := e.EdgeMap(empty, newAddKernel(n), sg.Hints{}); !out.IsEmpty() {
				t.Fatal("EdgeMap on empty must be empty")
			}
			if out := e.VertexMap(empty, func(graph.Vertex) bool { return true }); !out.IsEmpty() {
				t.Fatal("VertexMap on empty must be empty")
			}
			if e.SimSeconds() != 0 {
				t.Fatalf("empty input charged %v sim seconds", e.SimSeconds())
			}
			if p, ok := e.(*Engine); ok && p.Metrics().EdgeMaps != 0 {
				t.Fatal("empty input must not count as a phase")
			}
		})
	}
}

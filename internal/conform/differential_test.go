package conform

import (
	"math"
	"testing"

	"polymer/internal/gen"
	"polymer/internal/graph"
)

func nan64() float64           { return math.NaN() }
func nextUp(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }

type namedGraph struct {
	name string
	g    *graph.Graph
}

// corpusGraphs are the seeded random graphs of the differential matrix:
// one unweighted (exercising the unit-weight convention everywhere, the
// regression surface for the SpMV zero-weight divergence) and one
// weighted power-law.
func corpusGraphs() []namedGraph {
	n1, e1 := gen.Uniform(200, 1000, 42)
	n2, e2 := gen.Powerlaw(256, 4, 2.0, 7)
	gen.AddRandomWeights(e2, 11)
	return []namedGraph{
		{"uniform-200", graph.FromEdges(n1, e1, false)},
		{"powerlaw-256-w", graph.FromEdges(n2, e2, true)},
	}
}

// TestDifferentialMatrix runs every algorithm on every engine and both
// paper topologies against the sequential oracles.
func TestDifferentialMatrix(t *testing.T) {
	for _, ng := range corpusGraphs() {
		for _, topo := range Topos() {
			for _, eng := range Engines() {
				for _, alg := range Algos() {
					c := Case{Engine: eng, Algo: alg, Topo: topo, Src: 3}
					t.Run(ng.name+"/"+c.String(), func(t *testing.T) {
						if d := Check(c, ng.g); d != nil {
							t.Fatal(d)
						}
					})
				}
			}
		}
	}
}

// TestDifferentialAdversarial runs the full engine x algorithm matrix
// over the adversarial shape corpus: empty and single-vertex graphs
// (the regression surface for the traversal n==0 panics), self-loops,
// duplicate edges, stars, disconnected pieces and word-boundary cycles.
func TestDifferentialAdversarial(t *testing.T) {
	for _, shape := range gen.Adversarial() {
		g := graph.FromEdges(shape.N, shape.Edges, false)
		for _, eng := range Engines() {
			for _, alg := range Algos() {
				c := Case{Engine: eng, Algo: alg, Topo: Intel80}
				t.Run(shape.Name+"/"+c.String(), func(t *testing.T) {
					if d := Check(c, g); d != nil {
						t.Fatal(d)
					}
				})
			}
		}
	}
}

// TestPolicyEqual pins the comparison semantics the whole harness
// stands on.
func TestPolicyEqual(t *testing.T) {
	exact := Policy{Exact: true}
	if !exact.Equal(1.5, 1.5) || exact.Equal(1.5, 1.5000001) {
		t.Error("exact policy broken")
	}
	nan := Policy{Exact: true}
	if !nan.Equal(nan64(), nan64()) {
		t.Error("exact policy must treat NaN bit patterns as equal to themselves")
	}
	ulp := Policy{ULPs: 2}
	next := 1.0
	for i := 0; i < 2; i++ {
		next = nextUp(next)
	}
	if !ulp.Equal(1.0, next) {
		t.Error("2 ULPs apart must pass a 2-ULP policy")
	}
	if ulp.Equal(1.0, nextUp(next)) {
		t.Error("3 ULPs apart must fail a 2-ULP policy")
	}
	if ulp.Equal(1.0, -1.0) {
		t.Error("sign flip must fail")
	}
	abs := Policy{Abs: 1e-6}
	if !abs.Equal(0, 5e-7) || abs.Equal(0, 2e-6) {
		t.Error("abs policy broken")
	}
}

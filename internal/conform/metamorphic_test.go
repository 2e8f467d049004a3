package conform

import (
	"context"
	"math"
	"testing"

	"polymer/internal/algorithms"
	"polymer/internal/bench"
	"polymer/internal/core"
	"polymer/internal/engines/galois"
	"polymer/internal/engines/ligra"
	"polymer/internal/engines/xstream"
	"polymer/internal/fault"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
	"polymer/internal/sg"
)

// must unwraps a driver's result; a failure here is a bug in the test.
func must(out []float64, err error) []float64 {
	if err != nil {
		panic(err)
	}
	return out
}

func metamorphicGraph() *graph.Graph {
	n, e := gen.Powerlaw(192, 4, 2.0, 13)
	gen.AddRandomWeights(e, 17)
	return graph.FromEdges(n, e, true)
}

// TestPermutationInvariance: relabeling the vertices is semantics-
// preserving — running on the permuted graph and mapping the output back
// must agree with the original run. CSR neighbour order, partition
// boundaries and float summation order all move, so float kernels are
// compared under the relaxed policy; CC labelings are canonicalised
// because "smallest id in the component" itself moves.
func TestPermutationInvariance(t *testing.T) {
	g := metamorphicGraph()
	perm := Permutation(g.NumVertices(), 99)
	pg := Permute(g, perm)
	const src = 3
	for _, eng := range Engines() {
		for _, alg := range Algos() {
			c := Case{Engine: eng, Algo: alg, Topo: Intel80, Src: src}
			t.Run(c.String(), func(t *testing.T) {
				base := Run(c, g)
				pc := c
				pc.Src = graph.Vertex(perm[src])
				permuted := Run(pc, pg)
				got := Unpermute(permuted.Out, perm)
				p := PolicyFor(alg).Relaxed()
				if d := Compare(c, p, Normalize(alg, base.Out), Normalize(alg, got)); d != nil {
					t.Fatalf("permutation variance: %v", d)
				}
			})
		}
	}
}

// TestPartitionCountIndependence: the number of simulated NUMA nodes
// changes where data lives and how edges are partitioned, never what is
// computed.
func TestPartitionCountIndependence(t *testing.T) {
	g := metamorphicGraph()
	for _, eng := range Engines() {
		for _, alg := range Algos() {
			one := Case{Engine: eng, Algo: alg, Topo: Intel80, Nodes: 1, Cores: 4, Src: 3}
			four := Case{Engine: eng, Algo: alg, Topo: Intel80, Nodes: 4, Cores: 2, Src: 3}
			t.Run(one.String(), func(t *testing.T) {
				a := Run(one, g)
				b := Run(four, g)
				p := PolicyFor(alg).Relaxed()
				if d := Compare(four, p, Normalize(alg, a.Out), Normalize(alg, b.Out)); d != nil {
					t.Fatalf("partition-count variance: %v", d)
				}
			})
		}
	}
}

// TestRerunDeterminism: a run is a function of its input. Every cell of
// the matrix — 7 algorithms x 4 engines x 2 topologies — run twice must
// agree bit for bit on the values, the simulated clock and the access
// ledger, at any GOMAXPROCS (check.sh runs this at -cpu 1,2,8).
func TestRerunDeterminism(t *testing.T) {
	g := metamorphicGraph()
	for _, topo := range Topos() {
		for _, eng := range Engines() {
			for _, alg := range Algos() {
				c := Case{Engine: eng, Algo: alg, Topo: topo, Src: 3}
				t.Run(c.String(), func(t *testing.T) {
					run := func() bench.RunResult {
						r, err := bench.RunWith(benchSystems[eng], benchAlgos[alg], g, c.Machine(), bench.Options{Src: c.Src})
						if err != nil {
							t.Fatal(err)
						}
						return r
					}
					a, b := run(), run()
					if d := Compare(c, Policy{Exact: true}, a.Out.Widen(), b.Out.Widen()); d != nil {
						t.Errorf("re-run variance: %v", d)
					}
					if math.Float64bits(a.SimSeconds) != math.Float64bits(b.SimSeconds) {
						t.Errorf("re-run SimSeconds %x, first run %x", b.SimSeconds, a.SimSeconds)
					}
					if a.Stats != b.Stats || a.Out.Iters != b.Out.Iters {
						t.Errorf("re-run stats %+v (%d iterations), first run %+v (%d)", b.Stats, b.Out.Iters, a.Stats, a.Out.Iters)
					}
				})
			}
		}
	}
}

// TestPullModeRerunBitIdentity: TestRerunDeterminism's claim for a
// configuration its matrix does not reach, Polymer forced into pull mode
// on a single node.
func TestPullModeRerunBitIdentity(t *testing.T) {
	g := metamorphicGraph()
	run := func() ([]float64, []float64) {
		opt := core.DefaultOptions()
		opt.Mode = core.Pull
		e := core.MustNew(g, numa.NewMachine(numa.IntelXeon80(), 1, 4), opt)
		defer e.Close()
		pr := algorithms.PageRank(e, Iters, Damping)
		y := must(algorithms.SpMV(e, Iters, ones(g.NumVertices()), nil))
		return pr, y
	}
	pr1, y1 := run()
	pr2, y2 := run()
	c := Case{Engine: Polymer, Algo: PR, Topo: Intel80}
	if d := Compare(c, Policy{Exact: true}, pr1, pr2); d != nil {
		t.Fatalf("pull PageRank re-run variance: %v", d)
	}
	c.Algo = SpMV
	if d := Compare(c, Policy{Exact: true}, y1, y2); d != nil {
		t.Fatalf("pull SpMV re-run variance: %v", d)
	}
}

// TestFaultReplayEquivalence: a run that suffers injected faults —
// worker panics, stalled threads, degraded links — and recovers by
// rollback/replay must commit output bit-identical to a fault-free run.
func TestFaultReplayEquivalence(t *testing.T) {
	g := metamorphicGraph()
	const spec = "panic@1:t1,stall@2:t0,link@3:n0-n1*0.5"
	// Both arms go through bench's dispatch table, so a new cell is
	// covered by adding it there.
	run := func(eng Engine, faulty bool) []float64 {
		c := Case{Engine: eng, Algo: PR, Topo: Intel80}
		if !faulty {
			return Run(c, g).Out
		}
		evs, err := fault.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		r, _, err := bench.RunResilientCtx(context.Background(), benchSystems[eng], bench.PR, g, c.Machine,
			fault.NewInjector(evs), bench.ResilientOptions{SessionRetries: 5})
		if err != nil {
			t.Fatalf("%s did not survive %q: %v", eng, spec, err)
		}
		return r.Out.F64
	}
	for _, eng := range Engines() {
		t.Run(string(eng), func(t *testing.T) {
			c := Case{Engine: eng, Algo: PR, Topo: Intel80}
			if d := Compare(c, Policy{Exact: true}, run(eng, false), run(eng, true)); d != nil {
				t.Fatalf("recovered run diverges from fault-free: %v", d)
			}
		})
	}
}

// TestSpMVLinearity: SpMV is linear, and scaling the input by a power of
// two is exact in binary floating point, so y(2x) must equal 2*y(x) bit
// for bit on every engine.
func TestSpMVLinearity(t *testing.T) {
	g := metamorphicGraph()
	n := g.NumVertices()
	x := make([]float64, n)
	x2 := make([]float64, n)
	rng := gen.NewRNG(5)
	for i := range x {
		x[i] = rng.Float64()
		x2[i] = 2 * x[i]
	}
	run := func(eng Engine, in []float64) []float64 {
		m := numa.NewMachine(numa.IntelXeon80(), 2, 2)
		switch eng {
		case Polymer:
			e := core.MustNew(g, m, core.DefaultOptions())
			defer e.Close()
			return must(algorithms.SpMV(e, Iters, in, nil))
		case Ligra:
			e := ligra.MustNew(g, m, ligra.DefaultOptions())
			defer e.Close()
			return must(algorithms.SpMV(e, Iters, in, nil))
		case XStream:
			e := xstream.MustNew(g, m, xstream.DefaultOptions(), sg.Hints{DataBytes: 8, Weighted: true})
			defer e.Close()
			return must(algorithms.XSSpMV(e, Iters, in, nil))
		case Galois:
			e := galois.MustNew(g, m, galois.DefaultOptions())
			defer e.Close()
			return must(e.SpMV(Iters, in, nil))
		}
		panic("unreachable")
	}
	for _, eng := range Engines() {
		t.Run(string(eng), func(t *testing.T) {
			y := run(eng, x)
			y2 := run(eng, x2)
			scaled := make([]float64, len(y))
			for v := range y {
				scaled[v] = 2 * y[v]
			}
			c := Case{Engine: eng, Algo: SpMV, Topo: Intel80}
			if d := Compare(c, Policy{Exact: true}, scaled, y2); d != nil {
				t.Fatalf("linearity violated: %v", d)
			}
		})
	}
}

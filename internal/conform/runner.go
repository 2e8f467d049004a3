package conform

import (
	"fmt"

	"polymer/internal/algorithms"
	"polymer/internal/bench"
	"polymer/internal/graph"
	"polymer/internal/numa"
)

// The fixed-iteration counts and constants every run uses; the engine
// runs take theirs from bench's dispatch table, the oracles from here.
const (
	Iters      = 5
	Damping    = 0.85
	PRDMaxIter = 250
)

// Case is one cell of the conformance matrix.
type Case struct {
	Engine Engine
	Algo   Algo
	Topo   Topo
	// Nodes and Cores size the simulated machine (0,0 = 2x2).
	Nodes, Cores int
	// Src is the traversal source for BFS and SSSP.
	Src graph.Vertex
	// TierPol, DRAMPerNode and PromoteEvery arm tiered memory on the
	// case's machine; the zero values leave it untiered.
	TierPol      numa.TierPolicy
	DRAMPerNode  int64
	PromoteEvery int
}

func (c Case) String() string {
	s := fmt.Sprintf("%s/%s/%s[%dx%d]/src=%d", c.Engine, c.Algo, c.Topo, c.nodes(), c.cores(), c.Src)
	if c.DRAMPerNode > 0 && c.TierPol != numa.TierNone {
		s += fmt.Sprintf("/tier=%s@%d", c.TierPol, c.DRAMPerNode)
	}
	return s
}

func (c Case) nodes() int {
	if c.Nodes == 0 {
		return 2
	}
	return c.Nodes
}

func (c Case) cores() int {
	if c.Cores == 0 {
		return 2
	}
	return c.Cores
}

// Machine builds a fresh simulated machine for the case, arming tiered
// memory when the case requests it.
func (c Case) Machine() *numa.Machine {
	m := numa.NewMachine(c.Topo.Topology(), c.nodes(), c.cores())
	if c.DRAMPerNode > 0 && c.TierPol != numa.TierNone {
		if err := m.SetTierConfig(numa.TierConfig{
			DRAMPerNode:  c.DRAMPerNode,
			Policy:       c.TierPol,
			PromoteEvery: c.PromoteEvery,
		}); err != nil {
			panic(err)
		}
	}
	return m
}

// Result is one run's normalized output: every algorithm's answer as
// one float64 per vertex (BFS levels and CC labels widened), plus the
// simulated clock, the convergence iteration count (PRDelta only), and
// the machine's peak simulated allocation (the footprint tiered cases
// budget DRAM against).
type Result struct {
	Out        []float64
	SimSeconds float64
	Iters      int
	Peak       int64
}

// Run executes the case on a fresh machine and engine through bench's
// dispatch table and returns the normalized output. CC runs on the
// symmetrized graph, as everywhere else in the repository.
func Run(c Case, g *graph.Graph) Result {
	r, err := bench.RunWith(benchSystems[c.Engine], benchAlgos[c.Algo], g, c.Machine(), bench.Options{Src: c.Src})
	if err != nil {
		panic(fmt.Sprintf("conform: %s: %v", c, err))
	}
	return Result{Out: r.Out.Widen(), SimSeconds: r.SimSeconds, Iters: r.Out.Iters, Peak: r.PeakBytes}
}

// benchSystems and benchAlgos name the conformance engines and
// algorithms in the dispatch table's vocabulary.
var benchSystems = map[Engine]bench.System{
	Polymer: bench.Polymer, Ligra: bench.Ligra, XStream: bench.XStream, Galois: bench.Galois,
}

var benchAlgos = map[Algo]bench.Algo{
	PR: bench.PR, PRDelta: bench.PRDelta, SpMV: bench.SpMV, BP: bench.BP,
	BFS: bench.BFS, CC: bench.CC, SSSP: bench.SSSP,
}

// Ref runs the sequential oracle for the algorithm. PRDelta's oracle is
// a long fixed-iteration power-method run: at eps=1e-10 the delta
// formulation has converged well inside the PRDelta policy's absolute
// tolerance.
func Ref(a Algo, g *graph.Graph, src graph.Vertex) Result {
	switch a {
	case PR:
		return Result{Out: algorithms.RefPageRank(g, Iters, Damping)}
	case PRDelta:
		return Result{Out: algorithms.RefPageRank(g, PRDMaxIter+20, Damping)}
	case SpMV:
		return Result{Out: algorithms.RefSpMV(g, Iters, ones(g.NumVertices()))}
	case BP:
		return Result{Out: algorithms.RefBP(g, Iters)}
	case BFS:
		return Result{Out: bench.Output{I64: algorithms.RefBFS(g, src)}.Widen()}
	case CC:
		return Result{Out: bench.Output{V: algorithms.RefCC(g)}.Widen()}
	case SSSP:
		return Result{Out: algorithms.RefSSSP(g, src)}
	}
	panic("conform: unknown algorithm")
}

// Check runs the case and its oracle and returns the first divergence
// under the algorithm's policy, or nil.
func Check(c Case, g *graph.Graph) *Divergence {
	want := Ref(c.Algo, g, c.Src)
	got := Run(c, g)
	return Compare(c, PolicyFor(c.Algo), want.Out, got.Out)
}

func ones(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	return x
}

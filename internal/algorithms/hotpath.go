package algorithms

import (
	"polymer/internal/engines/xstream"
	"polymer/internal/graph"
	"polymer/internal/sg"
	"polymer/internal/state"
)

// This file exports pieces of the float drivers so the allocation-budget
// and digest tests can drive exactly what the drivers run, one iteration
// at a time.

// PRHints returns the Hints PageRank passes to EdgeMap.
func PRHints() sg.Hints { return prHints }

// PRIteration allocates PageRank state on e and returns one full PageRank
// iteration — the push EdgeMap over the full frontier, the normalisation
// VertexMap, and the array swap — built from the kernel constructor and
// the step PageRankE loops over: the engines' per-phase sg.RowKernel
// lookup is part of what the allocation budgets bound.
func PRIteration(e sg.Engine, damping float64) func() {
	k := newPRKernel(newRun(e), damping)
	step, apply := sgStepper(e, k, prHints).step, k.apply
	return func() {
		step(apply, false)
		k.curr, k.next = k.next, k.curr
	}
}

// PRSweep allocates PageRank state on e and returns PageRank's edge phase
// alone, as PageRankE runs it: the push EdgeMap over the full frontier,
// kernel and hints included. The sweep benchmarks time it per edge.
func PRSweep(e sg.Engine) func() {
	k, all := newPRKernel(newRun(e), 0.85), state.NewAll(e.Bounds())
	return func() { sg.EdgeMapK(e, all, k, prHints) }
}

// XSKernel is one of the float kernels over state allocated on an X-Stream
// engine: its scatter reads In, its gather writes Out. The embedded Kernel
// is the one the drivers pass to Iterate.
type XSKernel struct {
	xstream.Kernel
	In, Out []float64
}

// NewXSKernels allocates state on e and returns the kernels XSPageRankE,
// XSSpMV and XSBP iterate, keyed "pr", "spmv" and "bp", so tests can
// drive xstream.Engine.Iterate with exactly those kernels (the recorded
// digests, the steady-state allocation budget).
func NewXSKernels(e *xstream.Engine) map[string]XSKernel {
	r := newRun(e)
	pr, spmv, bp := newPRKernel(r, 0.85), newSpMVKernel(r, nil), newBPKernel(r)
	return map[string]XSKernel{
		"pr":   {pr, pr.curr, pr.next},
		"spmv": {spmv, spmv.x, spmv.y},
		"bp":   {bp, bp.curr, bp.acc},
	}
}

// TraversalSuperstep allocates SSSP state (or, with sssp unset, BFS state)
// on e and returns one superstep out of sources: every other vertex is
// reset to unreached, then the EdgeMap the driver runs per superstep,
// kernel and hints included — the engines' per-phase sg.PullRowKernel
// lookup is part of what the allocation budgets bound.
func TraversalSuperstep(e sg.Engine, sssp bool, sources []graph.Vertex) func() *state.Subset {
	frontier := state.FromVertices(e.Bounds(), sources).ToDense() // as a dense step leaves it
	if sssp {
		k := &ssspKernel{dist: e.NewData("sssp/dist").Data}
		return func() *state.Subset {
			for v := range k.dist {
				k.dist[v] = infinity
			}
			for _, s := range sources {
				k.dist[s] = 0
			}
			return sg.EdgeMapK(e, frontier, k, ssspHints)
		}
	}
	k := &bfsKernel{parent: e.NewData32("bfs/parent").Data}
	return func() *state.Subset {
		for v := range k.parent {
			k.parent[v] = unvisited
		}
		for _, s := range sources {
			k.parent[s] = s
		}
		return sg.EdgeMapK(e, frontier, k, bfsHints)
	}
}

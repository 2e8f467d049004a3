package algorithms

import (
	"polymer/internal/engines/xstream"
	"polymer/internal/graph"
	"polymer/internal/sg"
	"polymer/internal/state"
)

// This file exports the PageRank iteration pieces so the allocation-budget
// tests (hotpath_regression_test.go) can drive exactly the loop body
// algorithms.PageRank runs, one iteration at a time.

// PRHints returns the Hints PageRank passes to EdgeMap.
func PRHints() sg.Hints { return prHints }

// PRKernel is the exported PageRank kernel plus its per-iteration state.
type PRKernel struct {
	prKernel
	base    float64
	damping float64
}

// NewPRKernel allocates PageRank state on e and returns the kernel.
func NewPRKernel(e sg.Engine, damping float64) *PRKernel {
	g := e.Graph()
	n := g.NumVertices()
	curr, next := e.NewData("pr/curr"), e.NewData("pr/next")
	for v := range curr.Data {
		curr.Data[v] = 1 / float64(n)
	}
	return &PRKernel{
		prKernel: prKernel{curr: curr.Data, next: next.Data, invOut: g.InvOutDegrees()},
		base:     (1 - damping) / float64(n),
		damping:  damping,
	}
}

// Apply runs the normalisation VertexMap body on v.
func (k *PRKernel) Apply(v graph.Vertex) {
	k.next[v] = k.base + k.damping*k.next[v]
	k.curr[v] = 0
}

// Swap exchanges the rank arrays for the next iteration.
func (k *PRKernel) Swap() { k.curr, k.next = k.next, k.curr }

// Iteration runs one full PageRank iteration — the push EdgeMap over the
// full frontier, the normalisation VertexMap, and the array swap — through
// the same dispatch, with the same pointer-shaped kernel, as
// algorithms.PageRank: the engines' per-phase sg.RowKernel lookup is part
// of what the allocation budgets bound.
func (k *PRKernel) Iteration(e sg.Engine, all *state.Subset) {
	edgeMap(e, all, &k.prKernel, prHints)
	e.VertexMap(all, func(v graph.Vertex) bool {
		k.Apply(v)
		return true
	})
	k.Swap()
}

// XSKernel is one of X-Stream's float kernels over state allocated on an
// engine: Scatter reads In, Gather writes Out. The embedded Kernel is the
// one the drivers pass to Iterate, block loops included.
type XSKernel struct {
	xstream.Kernel
	In, Out []float64
}

// NewXSKernels allocates state on e and returns the kernels XSPageRank,
// XSSpMV and XSBP iterate, keyed "pr", "spmv" and "bp", so tests can
// drive xstream.Engine.Iterate with exactly those kernels (block loops
// against per-edge loops, the steady-state allocation budget).
func NewXSKernels(e *xstream.Engine) map[string]XSKernel {
	pr, spmv, bp := newXSPR(e), newXSSpMV(e), newXSBP(e)
	return map[string]XSKernel{
		"pr":   {pr, pr.curr, pr.next},
		"spmv": {spmv, spmv.x, spmv.y},
		"bp":   {bp, bp.curr, bp.acc},
	}
}

// Multi-source conformance: the serving layer's batcher answers k point
// queries from one MultiBFS/MultiSSSP sweep, so batching is only
// semantically invisible if each demultiplexed per-source output equals
// an independent single-source run. CheckMultiSource asserts exactly
// that — bit-identical against the same engine, policy-compared against
// every other engine and the sequential oracle.

package conform

import (
	"context"

	"polymer/internal/bench"
	"polymer/internal/graph"
)

// RunMultiSource executes one multi-source sweep on a scatter-gather
// engine (the only engines that serve traversal point queries) and
// returns the normalized per-source outputs, index-aligned with srcs.
func RunMultiSource(eng Engine, alg Algo, topo Topo, g *graph.Graph, srcs []graph.Vertex) ([][]float64, error) {
	c := Case{Engine: eng, Algo: alg, Topo: topo}
	mr, err := bench.RunMultiSourceCtx(context.Background(), benchSystems[eng], benchAlgos[alg], g, c.Machine, srcs, nil)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(srcs))
	for i, o := range mr.Outs {
		out[i] = o.Widen()
	}
	return out, nil
}

// CheckMultiSource runs one multi-source sweep on eng and compares every
// demultiplexed per-source output three ways: bit-identically against
// the same engine's independent single-source run (the batcher's
// invisibility contract), under the algorithm's policy against every
// other engine's single-source run, and against the sequential oracle.
// It returns the first divergence, or nil.
func CheckMultiSource(eng Engine, alg Algo, topo Topo, g *graph.Graph, srcs []graph.Vertex) *Divergence {
	multi, err := RunMultiSource(eng, alg, topo, g, srcs)
	if err != nil {
		return &Divergence{Case: Case{Engine: eng, Algo: alg, Topo: topo}, Vertex: -1}
	}
	for i, src := range srcs {
		// The same engine answering the same query alone must produce the
		// same bits: a batched response is indistinguishable from a cold
		// single-request run.
		own := Case{Engine: eng, Algo: alg, Topo: topo, Src: src}
		if d := Compare(own, Policy{Exact: true}, Run(own, g).Out, multi[i]); d != nil {
			return d
		}
		if d := Compare(own, PolicyFor(alg), Ref(alg, g, src).Out, multi[i]); d != nil {
			return d
		}
		for _, other := range Engines() {
			if other == eng {
				continue
			}
			oc := Case{Engine: other, Algo: alg, Topo: topo, Src: src}
			if d := Compare(oc, PolicyFor(alg), Run(oc, g).Out, multi[i]); d != nil {
				return d
			}
		}
	}
	return nil
}

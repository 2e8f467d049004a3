// Multi-source batch execution: one engine run answers k compatible
// point queries (BFS or SSSP) through the union-frontier drivers. The
// serving layer's batcher calls this for a sealed batch group and
// demultiplexes the per-source checksums back to the waiting requests.

package bench

import (
	"context"
	"fmt"

	"polymer/internal/graph"
	"polymer/internal/numa"
	"polymer/internal/obs"
)

// MultiResult is one multi-source sweep: per-source outputs and result
// checksums (index-aligned with the sources) plus the shared run
// accounting.
type MultiResult struct {
	Outs       []Output
	PerSource  []float64
	SimSeconds float64
	PeakBytes  int64
}

// RunMultiSourceCtx executes one multi-source BFS or SSSP sweep on a
// scatter-gather engine under a cancellation context. Each per-source
// checksum is bit-identical to the corresponding single-source run's
// (the conformance harness asserts the stronger per-vertex property).
// Worker panics are contained and surface as the returned error.
func RunMultiSourceCtx(ctx context.Context, sys System, alg Algo, g *graph.Graph, mk func() *numa.Machine, srcs []graph.Vertex, tr *obs.Tracer) (MultiResult, error) {
	s, err := newSpec(sys, alg, g, Options{Tracer: tr})
	if err != nil {
		return MultiResult{}, err
	}
	if s.cell.multi == nil {
		return MultiResult{}, fmt.Errorf("bench: multi-source %s on %s: %w", alg, sys, ErrUnsupported)
	}
	s.ctx, s.multi, s.srcs = ctx, true, srcs
	r, _, err := run(s, mk())
	if err != nil {
		return MultiResult{}, err
	}
	mr := MultiResult{Outs: r.Out.PerSource, SimSeconds: r.SimSeconds, PeakBytes: r.PeakBytes}
	for _, o := range mr.Outs {
		mr.PerSource = append(mr.PerSource, o.Checksum())
	}
	return mr, nil
}

// The drivers: every algorithm's superstep loop on the scatter-gather
// engines and on X-Stream. Three loop shapes are written once each —
// fixedIters (PR, SpMV, BP on either family), untilEmpty (BFS, SSSP, CC
// and the multi-source sweeps on the scatter-gather engines) and
// xsConverge (X-Stream's traversals) — and the first two run every
// superstep as one fault.Step: an injected fault (worker panic, offline
// node, degraded link, allocation failure) rolls back the step's vertex
// state, frontier and simulated charges, repairs the fault, and replays,
// so the committed run is bit-identical to a fault-free one. A nil session
// degrades to bare panic containment.

package algorithms

import (
	"slices"

	"polymer/internal/engines/xstream"
	"polymer/internal/fault"
	"polymer/internal/graph"
	"polymer/internal/obs"
	"polymer/internal/sg"
	"polymer/internal/state"
)

// A stepper is the seam between the shared loops and an engine family.
type stepper struct {
	eng interface{ Err() error }
	// span is what obs.BeginStep is handed: the engine when the loop must
	// span the superstep, nil when the engine emits the superstep event
	// itself (X-Stream's Iterate does) and a second span would renumber it.
	span any
	// step runs one superstep of a float kernel: the edge phase out of the
	// active vertices, then apply on every vertex. It returns how many
	// vertices apply kept; they are the next step's active set when keep
	// is set, otherwise every vertex is active in every step.
	step func(apply func(graph.Vertex) bool, keep bool) int64
}

// sgStepper steps kernel k on a scatter-gather engine: EdgeMap out of the
// active subset (the one persistent full frontier until a step keeps
// less), then VertexMap over the full frontier.
func sgStepper[K sg.EdgeKernel](e sg.Engine, k K, h sg.Hints) stepper {
	all := state.NewAll(e.Bounds())
	active := all
	return stepper{eng: e, span: e, step: func(apply func(graph.Vertex) bool, keep bool) int64 {
		sg.EdgeMapK(e, active, k, h)
		if e.Err() != nil {
			return 0
		}
		kept := e.VertexMap(all, apply)
		if keep {
			active = kept
		}
		return kept.Count()
	}}
}

// xsStepper steps kernel k on X-Stream, whose active set lives in the
// engine: its rollback rides on the engine's SnapshotSim rather than on a
// session's frontier accessors.
func xsStepper(e *xstream.Engine, k xstream.Kernel) stepper {
	e.SetAllActive()
	return stepper{eng: e, step: func(apply func(graph.Vertex) bool, keep bool) int64 {
		if !keep {
			e.SetAllActive()
		}
		return e.Iterate(k, apply)
	}}
}

// superstep runs body as step i under sess; the step fails with the
// engine's failure if there is one, else with body's own verdict. The step
// is spanned only once it commits: a rolled-back attempt is re-measured by
// the replay, so the emitted charge stays clean.
func (st stepper) superstep(sess *fault.Session, i int, body func() error) error {
	sp := obs.BeginStep(st.span, i)
	err := fault.Step(sess, i, func() error {
		verdict := body()
		if err := st.eng.Err(); err != nil {
			return err
		}
		return verdict
	})
	if err == nil {
		sp.End()
	}
	return err
}

// fixedIters runs iters supersteps of a float kernel over the full
// frontier: each step reads *in and leaves its finite result in *out, and
// the two arrays are swapped only after the step committed, so a replay
// reruns over the same input buffer. It returns a copy of the last result.
func fixedIters(st stepper, sess *fault.Session, iters int, name string, in, out *[]float64, apply func(graph.Vertex) bool) ([]float64, error) {
	if len(*in) == 0 {
		return nil, nil
	}
	if sess != nil {
		sess.TrackF64(*in, *out)
	}
	body := func() error {
		st.step(apply, false)
		return fault.CheckFinite(name, *out)
	}
	for it := 0; it < iters; it++ {
		if err := st.superstep(sess, it, body); err != nil {
			return nil, err
		}
		*in, *out = *out, *in
	}
	return slices.Clone(*in), nil
}

// PageRankFrom is the PageRank driver on a scatter-gather engine (the
// paper's Algorithm 4.1: synchronous, push-based, measured over the first
// five iterations as in Section 6.2), seeded with an existing rank vector
// when init is non-nil.
func PageRankFrom(e sg.Engine, iters int, damping float64, init []float64, sess *fault.Session) ([]float64, error) {
	k := newPRKernel(e, damping, init)
	return fixedIters(sgStepper(e, k, prHints), sess, iters, "pagerank", &k.curr, &k.next, k.apply)
}

// PageRankE is PageRankFrom from the uniform start.
func PageRankE(e sg.Engine, iters int, damping float64, sess *fault.Session) ([]float64, error) {
	return PageRankFrom(e, iters, damping, nil, sess)
}

// PageRank is PageRankE without a session, panicking on failure.
func PageRank(e sg.Engine, iters int, damping float64) []float64 {
	return must(PageRankFrom(e, iters, damping, nil, nil))
}

// XSPageRankE runs iters push-based PageRank iterations on X-Stream.
func XSPageRankE(e *xstream.Engine, iters int, damping float64, sess *fault.Session) ([]float64, error) {
	k := newPRKernel(e, damping, nil)
	return fixedIters(xsStepper(e, k), sess, iters, "pagerank", &k.curr, &k.next, k.apply)
}

// XSPageRank is XSPageRankE without a session, panicking on failure.
func XSPageRank(e *xstream.Engine, iters int, damping float64) []float64 {
	return must(XSPageRankE(e, iters, damping, nil))
}

// must unwraps the result of a driver run where a failure is a bug.
func must[T any](out T, err error) T {
	if err != nil {
		panic(err)
	}
	return out
}

// SpMV multiplies the weighted adjacency matrix with a dense vector iters
// times (y[v] = sum over in-edges (u,v) of w * x[u]; then x <- y).
func SpMV(e sg.Engine, iters int, x0 []float64, sess *fault.Session) ([]float64, error) {
	k := newSpMVKernel(e, x0)
	return fixedIters(sgStepper(e, k, spmvHints), sess, iters, "spmv", &k.x, &k.y, k.apply)
}

// XSSpMV is SpMV on X-Stream.
func XSSpMV(e *xstream.Engine, iters int, x0 []float64, sess *fault.Session) ([]float64, error) {
	k := newSpMVKernel(e, x0)
	return fixedIters(xsStepper(e, k), sess, iters, "spmv", &k.x, &k.y, k.apply)
}

// BP runs iters rounds of Bayesian belief propagation along weighted
// edges and returns per-vertex beliefs in [0, 1].
func BP(e sg.Engine, iters int, sess *fault.Session) ([]float64, error) {
	k := newBPKernel(e)
	return fixedIters(sgStepper(e, k, bpHints), sess, iters, "bp", &k.curr, &k.acc, k.apply)
}

// XSBP is BP on X-Stream.
func XSBP(e *xstream.Engine, iters int, sess *fault.Session) ([]float64, error) {
	k := newBPKernel(e)
	return fixedIters(xsStepper(e, k), sess, iters, "bp", &k.curr, &k.acc, k.apply)
}

// untilEmpty runs step over a frontier until it comes back empty, one
// fault.Step per superstep. The new frontier is adopted only after the
// step committed, and adopted (when non-nil) then sees the step number,
// the retired frontier and the new one. A step budget bounds the loop:
// every step of a traversal settles at least one vertex for good, so more
// than n steps means a runaway.
func untilEmpty(e sg.Engine, sess *fault.Session, frontier *state.Subset,
	step func(i int, f *state.Subset) *state.Subset, adopted func(i int, old, next *state.Subset)) error {
	if sess != nil {
		sess.Frontier(
			func() *state.Subset { return frontier },
			func(f *state.Subset) { frontier = f },
		)
	}
	st := stepper{eng: e, span: e}
	wd := fault.Watchdog{MaxSteps: e.Graph().NumVertices() + 1}
	for i := 0; !frontier.IsEmpty(); i++ {
		var next *state.Subset
		err := st.superstep(sess, i, func() error {
			next = step(i, frontier)
			return nil
		})
		if err != nil {
			return err
		}
		old := frontier
		frontier = next
		if adopted != nil {
			adopted(i, old, next)
			if err := e.Err(); err != nil {
				return err
			}
		}
		if err := wd.Tick(frontier.Count()); err != nil {
			return err
		}
	}
	return nil
}

// BFSE runs a direction-optimizing breadth-first search from src and
// returns the level of every vertex (-1 if unreachable).
func BFSE(e sg.Engine, src graph.Vertex, sess *fault.Session) ([]int64, error) {
	levels := make([]int64, e.Graph().NumVertices())
	for i := range levels {
		levels[i] = -1
	}
	if len(levels) == 0 {
		return levels, nil
	}
	k := &bfsKernel{parent: e.NewData32("bfs/parent").Data}
	for i := range k.parent {
		k.parent[i] = unvisited
	}
	k.parent[src] = src
	levels[src] = 0
	if sess != nil {
		sess.TrackU32(k.parent)
	}
	err := untilEmpty(e, sess, state.NewSingle(e.Bounds(), src),
		func(_ int, f *state.Subset) *state.Subset { return sg.EdgeMapK(e, f, k, bfsHints) },
		func(i int, _, next *state.Subset) {
			next.ForEach(func(v graph.Vertex) { levels[v] = int64(i + 1) })
		})
	if err != nil {
		return nil, err
	}
	return levels, nil
}

// BFS is BFSE without a session, panicking on failure.
func BFS(e sg.Engine, src graph.Vertex) []int64 { return must(BFSE(e, src, nil)) }

// SSSP computes single-source shortest paths from src with synchronous
// data-driven Bellman-Ford, one superstep per relaxation round, and
// returns the distances (+Inf when unreachable; unweighted edges count as
// 1). The committed distances are the unique least fixed point of the
// relaxation system, so they are bit-identical to a fault-free run.
func SSSP(e sg.Engine, src graph.Vertex, sess *fault.Session) ([]float64, error) {
	if e.Graph().NumVertices() == 0 {
		return nil, nil
	}
	k := &ssspKernel{dist: e.NewData("sssp/dist").Data}
	for i := range k.dist {
		k.dist[i] = infinity
	}
	k.dist[src] = 0
	if sess != nil {
		sess.TrackF64(k.dist)
	}
	err := untilEmpty(e, sess, state.NewSingle(e.Bounds(), src),
		func(_ int, f *state.Subset) *state.Subset { return sg.EdgeMapK(e, f, k, ssspHints) }, nil)
	if err != nil {
		return nil, err
	}
	return slices.Clone(k.dist), nil
}

// CC computes connected components by label propagation over the
// symmetrized graph (the engine must have been built on
// g.Symmetrized()); it returns, for every vertex, the smallest vertex id
// in its component.
func CC(e sg.Engine, sess *fault.Session) ([]graph.Vertex, error) {
	k := &ccKernel{labels: e.NewData32("cc/labels").Data}
	for v := range k.labels {
		k.labels[v] = uint32(v)
	}
	if sess != nil {
		sess.TrackU32(k.labels)
	}
	err := untilEmpty(e, sess, state.NewAll(e.Bounds()),
		func(_ int, f *state.Subset) *state.Subset { return sg.EdgeMapK(e, f, k, ccHints) }, nil)
	if err != nil {
		return nil, err
	}
	return slices.Clone(k.labels), nil
}

// xsConverge iterates k until no vertex is active. A failed phase leaves
// the active set as it was, so the loop leaves on the engine's failure:
// it would otherwise scatter from the same set forever.
func xsConverge(e *xstream.Engine, k xstream.Kernel) {
	for e.ActiveCount() > 0 && e.Err() == nil {
		e.Iterate(k, nil)
	}
}

// xsRelax relaxes distances from src to their fixed point on X-Stream,
// along unit or weighted edges, and returns the engine's array of them
// (+Inf when unreachable).
func xsRelax(e *xstream.Engine, label string, src graph.Vertex, weighted bool) []float64 {
	if e.Graph().NumVertices() == 0 {
		return nil
	}
	k := &xsLevel{dist: e.NewData(label).Data, weighted: weighted}
	for i := range k.dist {
		k.dist[i] = infinity
	}
	k.dist[src] = 0
	e.SetActive([]graph.Vertex{src})
	xsConverge(e, k)
	return k.dist
}

// XSBFS runs BFS on X-Stream (levels via unit-distance relaxation) and
// returns levels (-1 when unreachable).
func XSBFS(e *xstream.Engine, src graph.Vertex) []int64 {
	dist := xsRelax(e, "bfs/dist", src, false)
	if dist == nil {
		return nil
	}
	out := make([]int64, len(dist))
	for v, d := range dist {
		out[v] = -1
		if d != infinity {
			out[v] = int64(d)
		}
	}
	return out
}

// XSSSSP runs single-source shortest paths on X-Stream.
func XSSSSP(e *xstream.Engine, src graph.Vertex) []float64 {
	return slices.Clone(xsRelax(e, "sssp/dist", src, true))
}

// XSCC computes connected components by label propagation on X-Stream
// (the engine must be built on the symmetrized graph).
func XSCC(e *xstream.Engine) []graph.Vertex {
	k := &xsCC{labels: e.NewData("cc/labels").Data}
	for v := range k.labels {
		k.labels[v] = float64(v)
	}
	e.SetAllActive()
	xsConverge(e, k)
	out := make([]graph.Vertex, len(k.labels))
	for v := range out {
		out[v] = graph.Vertex(k.labels[v])
	}
	return out
}

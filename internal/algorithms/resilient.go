// Session-capable drivers: each superstep runs as one fault.Step, so an
// injected fault (worker panic, offline node, degraded link, allocation
// failure) rolls back the step's vertex state, frontier and simulated
// charges, repairs the fault, and replays — the committed run is
// bit-identical to a fault-free one. The plain drivers in run.go delegate
// here with a nil session, which degrades to bare panic containment.

package algorithms

import (
	"polymer/internal/engines/xstream"
	"polymer/internal/fault"
	"polymer/internal/graph"
	"polymer/internal/obs"
	"polymer/internal/sg"
	"polymer/internal/state"
)

// PageRankE is the fault-session-capable PageRank.
func PageRankE(e sg.Engine, iters int, damping float64, sess *fault.Session) ([]float64, error) {
	return PageRankFrom(e, iters, damping, nil, sess)
}

// PageRankFrom is the PageRank driver behind PageRank and PageRankE,
// seeded with an existing rank vector when init is non-nil: the
// degradation harness continues a run on a rebuilt engine after a
// permanent node failure with it.
func PageRankFrom(e sg.Engine, iters int, damping float64, init []float64, sess *fault.Session) ([]float64, error) {
	g := e.Graph()
	n := g.NumVertices()
	if n == 0 {
		return nil, nil
	}
	currA := e.NewData("pr/curr")
	nextA := e.NewData("pr/next")
	curr, next := currA.Data, nextA.Data
	for v := 0; v < n; v++ {
		if init != nil {
			curr[v] = init[v]
		} else {
			curr[v] = 1 / float64(n)
		}
	}
	k := &prKernel{curr: curr, next: next, invOut: g.InvOutDegrees()}
	all := state.NewAll(e.Bounds())
	base := (1 - damping) / float64(n)
	if sess != nil {
		sess.TrackF64(curr, next)
	}
	for it := 0; it < iters; it++ {
		// Span the step only once it commits: a rolled-back attempt is
		// re-measured by the replay, so the emitted charge stays clean.
		sp := obs.BeginStep(e, it)
		err := fault.Step(sess, it, func() error {
			edgeMap(e, all, k, prHints)
			if err := e.Err(); err != nil {
				return err
			}
			e.VertexMap(all, func(v graph.Vertex) bool {
				k.next[v] = base + damping*k.next[v]
				k.curr[v] = 0 // pre-zero the array that becomes next
				return true
			})
			if err := e.Err(); err != nil {
				return err
			}
			return fault.CheckFinite("pagerank", k.next)
		})
		if err != nil {
			return nil, err
		}
		sp.End()
		// Swap only after the step committed, so a replay reruns over the
		// same input buffer.
		k.curr, k.next = k.next, k.curr
	}
	out := make([]float64, n)
	copy(out, k.curr)
	return out, nil
}

// SpMVE is the fault-session-capable SpMV.
func SpMVE(e sg.Engine, iters int, x0 []float64, sess *fault.Session) ([]float64, error) {
	g := e.Graph()
	n := g.NumVertices()
	if n == 0 {
		return nil, nil
	}
	xA := e.NewData("spmv/x")
	yA := e.NewData("spmv/y")
	k := &spmvKernel{x: xA.Data, y: yA.Data}
	copy(k.x, x0)
	all := state.NewAll(e.Bounds())
	if sess != nil {
		sess.TrackF64(k.x, k.y)
	}
	for it := 0; it < iters; it++ {
		sp := obs.BeginStep(e, it)
		err := fault.Step(sess, it, func() error {
			edgeMap(e, all, k, spmvHints)
			if err := e.Err(); err != nil {
				return err
			}
			e.VertexMap(all, func(v graph.Vertex) bool {
				k.x[v] = 0 // pre-zero the array that becomes y
				return true
			})
			if err := e.Err(); err != nil {
				return err
			}
			return fault.CheckFinite("spmv", k.y)
		})
		if err != nil {
			return nil, err
		}
		sp.End()
		k.x, k.y = k.y, k.x
	}
	out := make([]float64, n)
	copy(out, k.x)
	return out, nil
}

// BPE is the fault-session-capable belief propagation.
func BPE(e sg.Engine, iters int, sess *fault.Session) ([]float64, error) {
	g := e.Graph()
	n := g.NumVertices()
	if n == 0 {
		return nil, nil
	}
	currA := e.NewData("bp/curr")
	accA := e.NewData("bp/acc")
	k := &bpKernel{curr: currA.Data, acc: accA.Data}
	for v := 0; v < n; v++ {
		k.curr[v] = 0.5
		k.acc[v] = 1
	}
	all := state.NewAll(e.Bounds())
	if sess != nil {
		sess.TrackF64(k.curr, k.acc)
	}
	for it := 0; it < iters; it++ {
		sp := obs.BeginStep(e, it)
		err := fault.Step(sess, it, func() error {
			edgeMap(e, all, k, bpHints)
			if err := e.Err(); err != nil {
				return err
			}
			e.VertexMap(all, func(v graph.Vertex) bool {
				k.acc[v] = 1 - k.acc[v] // belief from the message product
				k.curr[v] = 1           // becomes the next accumulator
				return true
			})
			if err := e.Err(); err != nil {
				return err
			}
			return fault.CheckFinite("bp", k.acc)
		})
		if err != nil {
			return nil, err
		}
		sp.End()
		k.curr, k.acc = k.acc, k.curr
	}
	out := make([]float64, n)
	copy(out, k.curr)
	return out, nil
}

// BFSE is the fault-session-capable BFS. A step budget watchdog bounds
// the traversal (each level must claim at least one new parent, so more
// than n levels means a runaway loop).
func BFSE(e sg.Engine, src graph.Vertex, sess *fault.Session) ([]int64, error) {
	g := e.Graph()
	n := g.NumVertices()
	levels := make([]int64, n)
	for i := range levels {
		levels[i] = -1
	}
	if n == 0 {
		return levels, nil
	}
	parentA := e.NewData32("bfs/parent")
	k := bfsKernel{parent: parentA.Data}
	for i := range k.parent {
		k.parent[i] = unvisited
	}
	k.parent[src] = src
	levels[src] = 0
	frontier := state.NewSingle(e.Bounds(), src)
	if sess != nil {
		sess.TrackU32(k.parent)
		sess.Frontier(
			func() *state.Subset { return frontier },
			func(f *state.Subset) { frontier = f },
		)
	}
	wd := fault.Watchdog{MaxSteps: n + 1}
	for level := int64(1); !frontier.IsEmpty(); level++ {
		var nf *state.Subset
		sp := obs.BeginStep(e, int(level-1))
		err := fault.Step(sess, int(level-1), func() error {
			nf = edgeMap(e, frontier, k, bfsHints)
			return e.Err()
		})
		if err != nil {
			return nil, err
		}
		sp.End()
		// Adopt the new frontier only after the step committed.
		frontier = nf
		frontier.ForEach(func(v graph.Vertex) { levels[v] = level })
		if err := wd.Tick(frontier.Count()); err != nil {
			return nil, err
		}
	}
	return levels, nil
}

// SSSPE is the fault-session-capable single-source shortest paths:
// synchronous data-driven Bellman-Ford, one fault.Step per relaxation
// round, with the distance array checkpointed and the frontier adopted
// only after each step commits. The committed distances are the unique
// least fixed point of the relaxation system, so they are bit-identical
// to a fault-free run.
func SSSPE(e sg.Engine, src graph.Vertex, sess *fault.Session) ([]float64, error) {
	g := e.Graph()
	n := g.NumVertices()
	if n == 0 {
		return nil, nil
	}
	distA := e.NewData("sssp/dist")
	k := ssspKernel{dist: distA.Data}
	for i := range k.dist {
		k.dist[i] = infinity
	}
	k.dist[src] = 0
	frontier := state.NewSingle(e.Bounds(), src)
	if sess != nil {
		sess.TrackF64(k.dist)
		sess.Frontier(
			func() *state.Subset { return frontier },
			func(f *state.Subset) { frontier = f },
		)
	}
	wd := fault.Watchdog{MaxSteps: n + 1}
	for step := 0; !frontier.IsEmpty(); step++ {
		var nf *state.Subset
		sp := obs.BeginStep(e, step)
		err := fault.Step(sess, step, func() error {
			nf = edgeMap(e, frontier, k, ssspHints)
			return e.Err()
		})
		if err != nil {
			return nil, err
		}
		sp.End()
		frontier = nf
		if err := wd.Tick(frontier.Count()); err != nil {
			return nil, err
		}
	}
	out := make([]float64, n)
	copy(out, k.dist)
	return out, nil
}

// XSPageRankE is the fault-session-capable X-Stream PageRank. The active
// edge-set lives inside the engine, so its snapshot rides on the engine's
// SnapshotSim rather than the session's frontier accessors.
func XSPageRankE(e *xstream.Engine, iters int, damping float64, sess *fault.Session) ([]float64, error) {
	g := e.Graph()
	n := g.NumVertices()
	if n == 0 {
		return nil, nil
	}
	k := newXSPR(e)
	base := (1 - damping) / float64(n)
	if sess != nil {
		sess.TrackF64(k.curr, k.next)
	}
	for it := 0; it < iters; it++ {
		err := fault.Step(sess, it, func() error {
			e.SetAllActive()
			e.Iterate(k, func(v graph.Vertex) bool {
				k.next[v] = base + damping*k.next[v]
				k.curr[v] = 0
				return true
			})
			if err := e.Err(); err != nil {
				return err
			}
			return fault.CheckFinite("xstream/pagerank", k.next)
		})
		if err != nil {
			return nil, err
		}
		k.curr, k.next = k.next, k.curr
	}
	out := make([]float64, n)
	copy(out, k.curr)
	return out, nil
}

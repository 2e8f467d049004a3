// Package galois implements the Galois baseline (Nguyen, Lenharth &
// Pingali, SOSP'13) as the paper characterises it: a task-based engine
// with a sophisticated scheduler and per-algorithm implementations that
// differ from the scatter-gather systems — synchronous pull-based
// PageRank, asynchronous worklist BFS, a topology-driven
// union-find connected components, and data-driven delta-stepping SSSP.
//
// Galois is heavily optimised (the lowest per-edge overhead, a
// work-stealing scheduler that keeps edge work balanced under degree
// skew, and an allocator that reuses memory between iterations — the
// paper's Table 5 shows it with the smallest footprint), but it is
// NUMA-oblivious: its arrays are interleaved and its worklists global, so
// its socket scalability is the worst of the evaluated systems
// (Figure 5(b), 2.90x on 8 sockets) even while its single-socket
// performance is the best.
package galois

import (
	"math"

	"polymer/internal/barrier"
	"polymer/internal/fault"
	"polymer/internal/graph"
	"polymer/internal/mem"
	"polymer/internal/numa"
	"polymer/internal/par"
	"polymer/internal/sg"
)

// Options configures the baseline.
type Options struct {
	// OverheadNsPerEdge is Galois's per-edge software overhead (lowest of
	// the four systems).
	OverheadNsPerEdge float64
	// NsPerTask is the scheduler's per-task (per-vertex) overhead.
	NsPerTask float64
	// Delta is the delta-stepping bucket width for SSSP (default 8).
	Delta float64
}

// DefaultOptions returns the evaluation configuration.
func DefaultOptions() Options {
	return Options{OverheadNsPerEdge: 0.8, NsPerTask: 20, Delta: 8}
}

// Engine is a Galois instance bound to one graph and machine; the
// lifecycle surface is sg.Base's.
type Engine struct {
	sg.Base
	opt Options

	topoB  int64
	dataB  int64
	closed bool

	// Round-scoped scratch, reset between parallel rounds so steady-state
	// iterations reuse the epoch, counters and worklist buffers instead of
	// reallocating them. Host-only: charged traffic is unchanged.
	scrEp     *numa.Epoch
	scrCnt    *counters
	nextLists [][]graph.Vertex
	farLists  [][]graph.Vertex
}

// New builds a Galois engine for g on m.
func New(g *graph.Graph, m *numa.Machine, opt Options) (*Engine, error) {
	if opt.OverheadNsPerEdge <= 0 {
		opt.OverheadNsPerEdge = 0.8
	}
	if opt.NsPerTask <= 0 {
		opt.NsPerTask = 20
	}
	if opt.Delta <= 0 {
		opt.Delta = 8
	}
	e := &Engine{opt: opt}
	if err := e.Init("galois", g, m, nil); err != nil {
		return nil, err
	}
	e.scrEp = m.NewEpoch()
	e.scrCnt = newCounters(m.Threads())
	e.nextLists = make([][]graph.Vertex, m.Threads())
	e.farLists = make([][]graph.Vertex, m.Threads())
	// Galois keeps a single edge direction resident for most algorithms
	// and reuses memory aggressively.
	e.topoB = g.TopologyBytes() / 2
	if err := m.Alloc().Grow("galois/topology", e.topoB); err != nil {
		return nil, err
	}
	// Worklist and task metadata are spread over the machine.
	e.InitTier(e.topoB, func(fr *mem.TierClass) { fr.GrowDemandEven(int64(g.NumVertices()) * 16) })
	return e, nil
}

// MustNew is New panicking on error, for call sites with known-good
// configuration.
func MustNew(g *graph.Graph, m *numa.Machine, opt Options) *Engine {
	e, err := New(g, m, opt)
	if err != nil {
		panic(err)
	}
	return e
}

// Close releases simulated allocations.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.M.Alloc().Release("galois/topology", e.topoB)
	if e.dataB > 0 {
		e.M.Alloc().Release("galois/data", e.dataB)
	}
}

// trackData registers per-run application data (released at Close). An
// injected allocation failure panics; fault.Catch recovers it into the
// session error so the run can restart.
func (e *Engine) trackData(bytes int64) {
	if err := e.M.Alloc().Grow("galois/data", bytes); err != nil {
		panic(err)
	}
	e.dataB += bytes
	e.TierState.GrowDemandEven(bytes)
}

// counters accumulates per-thread work.
type counters struct {
	slots []counterSlot
}

type counterSlot struct {
	edges, tasks int64
}

func newCounters(threads int) *counters { return &counters{slots: make([]counterSlot, threads)} }

func (c *counters) reset() {
	for i := range c.slots {
		c.slots[i].edges = 0
		c.slots[i].tasks = 0
	}
}

func (c *counters) add(th int, edges, tasks int64) {
	c.slots[th].edges += edges
	c.slots[th].tasks += tasks
}

func (c *counters) totals() (edges, tasks int64) {
	for i := range c.slots {
		edges += c.slots[i].edges
		tasks += c.slots[i].tasks
	}
	return
}

// chargeRound folds one parallel round into the clock with the
// scheduler's synchronization cost. The totals are spread evenly over all
// workers: Galois's work-stealing scheduler keeps edge work balanced
// across threads regardless of degree skew. ep must carry no earlier
// charge (numa.Epoch.ChargeNodes' precondition).
func (e *Engine) chargeRound(ep *numa.Epoch, cnt *counters, dataBytes int, syncKind barrier.Kind) {
	edges, tasks := cnt.totals()
	n := int64(e.G.NumVertices())
	threads := e.M.Threads()
	perEdges, perTasks := edges/int64(threads), tasks/int64(threads)
	ep.ChargeNodes(func(th, _ int) {
		e.TierTopo.AccessInterleaved(ep, th, numa.Seq, numa.Load, perEdges, 4, 0)
		e.TierState.AccessInterleaved(ep, th, numa.Rand, numa.Load, perEdges, dataBytes, n*int64(dataBytes))
		e.TierFrontier.AccessInterleaved(ep, th, numa.Seq, numa.Load, perTasks, 16, 0)
		e.TierState.AccessInterleaved(ep, th, numa.Rand, numa.Store, perTasks, dataBytes, n*int64(dataBytes))
		ep.Compute(th, (float64(perEdges)*e.opt.OverheadNsPerEdge+float64(perTasks)*e.opt.NsPerTask)*1e-9)
	})
	dur, _ := e.ChargePhase(ep, syncKind)
	e.Edges += edges
	if e.Tr != nil {
		// The round epoch is exactly this superstep's charge, so its
		// classified traffic is the delta — no cumulative snapshot needed.
		tm := &numa.TrafficMatrix{}
		ep.Traffic(tm)
		e.Tr.Superstep("galois", e.Round, e.Clock-dur, dur, tm)
	}
	e.Round++
}

// beginRound resets and hands out the round-scoped epoch and counters.
// Rounds are sequential (each ends at chargeRound's join), so one set of
// buffers serves the whole run.
func (e *Engine) beginRound() (*numa.Epoch, *counters) {
	e.scrEp.Reset()
	e.scrCnt.reset()
	return e.scrEp, e.scrCnt
}

// roundLists hands out the reusable per-thread worklist buffers, emptied.
func (e *Engine) roundLists() (next, far [][]graph.Vertex) {
	for th := range e.nextLists {
		e.nextLists[th] = e.nextLists[th][:0]
		e.farLists[th] = e.farLists[th][:0]
	}
	return e.nextLists, e.farLists
}

// pullRounds runs iters synchronous pull rounds from curr, double-buffered
// at width bytes per entry: rows computes next[lo:hi] from curr and returns
// the edges it read. Each round is one fault.Step and one charged round,
// so an injected fault rolls back the round's simulated charges and
// per-vertex state and replays it to a bit-identical result; a nil session
// runs fault-free with plain panic recovery. It returns the last result.
func (e *Engine) pullRounds(sess *fault.Session, iters int, name string, width int, curr []float64,
	rows func(curr, next []float64, lo, hi int64) (edges int64)) ([]float64, error) {
	n := int64(len(curr))
	next := make([]float64, n)
	e.trackData(n * 2 * int64(width))
	ck := par.MakeStrided(n, 64, e.M.Threads())
	if sess != nil {
		sess.TrackF64(curr, next)
	}
	for it := 0; it < iters; it++ {
		err := fault.Step(sess, it, func() error {
			ep, cnt := e.beginRound()
			e.RunPhase(func(th int) {
				var edges, tasks int64
				ck.Do(th, func(lo, hi int64) {
					tasks += hi - lo
					edges += rows(curr, next, lo, hi)
				})
				cnt.add(th, edges, tasks)
			})
			if e.Err() != nil {
				return e.Err()
			}
			e.chargeRound(ep, cnt, width, barrier.H)
			return fault.CheckFinite(name, next)
		})
		if err != nil {
			return nil, err
		}
		// Swap only after the step committed, so a replay reruns over the
		// same input buffer.
		curr, next = next, curr
	}
	return curr, nil
}

// PageRank is PageRankE without a session, panicking on failure.
func (e *Engine) PageRank(iters int, damping float64) []float64 {
	r, err := e.PageRankE(iters, damping, nil)
	if err != nil {
		panic(err)
	}
	return r
}

// PageRankE runs the synchronous pull-based PageRank Galois selects ("to
// reduce synchronization overhead") for iters iterations and returns the
// ranks.
func (e *Engine) PageRankE(iters int, damping float64, sess *fault.Session) ([]float64, error) {
	g := e.G
	n := g.NumVertices()
	curr := make([]float64, n)
	for i := range curr {
		curr[i] = 1 / float64(n)
	}
	invOut := g.InvOutDegrees()
	return e.pullRounds(sess, iters, "galois/pagerank", 8, curr,
		func(curr, next []float64, lo, hi int64) (edges int64) {
			for v := lo; v < hi; v++ {
				var sum float64
				for _, u := range g.InNeighbors(graph.Vertex(v)) {
					edges++
					sum += curr[u] * invOut[u]
				}
				next[v] = (1-damping)/float64(n) + damping*sum
			}
			return edges
		})
}

// SpMV multiplies the weighted adjacency matrix with a dense vector,
// iters times (y = A x, then x <- y), returning the final vector.
func (e *Engine) SpMV(iters int, x0 []float64, sess *fault.Session) ([]float64, error) {
	g := e.G
	x := make([]float64, g.NumVertices())
	copy(x, x0)
	return e.pullRounds(sess, iters, "galois/spmv", 8, x,
		func(x, y []float64, lo, hi int64) (edges int64) {
			for v := lo; v < hi; v++ {
				nbrs := g.InNeighbors(graph.Vertex(v))
				wts := g.InWeights(graph.Vertex(v))
				var sum float64
				for j, u := range nbrs {
					edges++
					w := 1.0
					if wts != nil && wts[j] != 0 {
						w = float64(wts[j])
					}
					sum += w * x[u]
				}
				y[v] = sum
			}
			return edges
		})
}

// BP runs iters rounds of Bayesian belief propagation (message passing
// along weighted in-edges with normalisation), returning per-vertex
// beliefs. Beliefs are wider than ranks (message tables).
func (e *Engine) BP(iters int, sess *fault.Session) ([]float64, error) {
	g := e.G
	curr := make([]float64, g.NumVertices())
	for i := range curr {
		curr[i] = 0.5
	}
	return e.pullRounds(sess, iters, "galois/bp", 16, curr,
		func(curr, next []float64, lo, hi int64) (edges int64) {
			for v := lo; v < hi; v++ {
				nbrs := g.InNeighbors(graph.Vertex(v))
				wts := g.InWeights(graph.Vertex(v))
				belief := 1.0
				for j, u := range nbrs {
					edges++
					w := 0.5
					if wts != nil && wts[j] != 0 {
						w = float64(wts[j]) / 100
					}
					belief *= 1 - w*curr[u] // product of damped messages
				}
				next[v] = 1 - belief
			}
			return edges
		})
}

// BFS runs Galois's asynchronous worklist BFS from src and returns the
// level of each vertex (-1 if unreachable). The worklist processes rounds
// without a global barrier (charged at the cheap N-Barrier rate).
func (e *Engine) BFS(src graph.Vertex) []int64 {
	g := e.G
	n := g.NumVertices()
	const unreached = math.MaxInt64
	dist := make([]int64, n)
	if n == 0 {
		return dist
	}
	e.trackData(int64(n) * 8)
	for i := range dist {
		dist[i] = unreached
	}
	dist[src] = 0
	frontier := []graph.Vertex{src}
	for len(frontier) > 0 {
		nextLists, _ := e.roundLists()
		ck := par.MakeStrided(int64(len(frontier)), 16, e.M.Threads())
		ep, cnt := e.beginRound()
		e.RunPhase(func(th int) {
			var edges, tasks int64
			ck.Do(th, func(lo, hi int64) {
				for i := lo; i < hi; i++ {
					v := frontier[i]
					tasks++
					d := dist[v]
					for _, u := range g.OutNeighbors(v) {
						edges++
						if d+1 < dist[u] {
							dist[u] = d + 1
							nextLists[th] = append(nextLists[th], u)
						}
					}
				}
			})
			cnt.add(th, edges, tasks)
		})
		if e.Err() != nil {
			break
		}
		e.chargeRound(ep, cnt, 8, barrier.N) // asynchronous scheduling: no kernel barrier
		frontier = frontier[:0]
		for _, l := range nextLists {
			frontier = append(frontier, l...)
		}
	}
	for i := range dist {
		if dist[i] == unreached {
			dist[i] = -1
		}
	}
	return dist
}

// CC computes connected components with Galois's topology-driven
// concurrent union-find (edges as tasks, lock-free pointer jumping) and
// returns, for every vertex, the smallest vertex id in its component.
func (e *Engine) CC() []graph.Vertex {
	g := e.G
	n := g.NumVertices()
	parent := make([]uint32, n)
	e.trackData(int64(n) * 4)
	for i := range parent {
		parent[i] = uint32(i)
	}

	find := func(x uint32) uint32 {
		for {
			p := parent[x]
			if p == x {
				return x
			}
			gp := parent[p]
			parent[x] = gp // path halving
			x = gp
		}
	}
	union := func(a, b uint32) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if ra > rb {
			ra, rb = rb, ra
		}
		// Attach the larger root under the smaller id (keeps the
		// representative minimal, which canonicalises the output).
		parent[rb] = ra
	}

	// One pass over all edges.
	ck := par.MakeStrided(int64(n), 64, e.M.Threads())
	ep, cnt := e.beginRound()
	e.RunPhase(func(th int) {
		var edges, tasks int64
		ck.Do(th, func(lo, hi int64) {
			for v := lo; v < hi; v++ {
				tasks++
				for _, u := range g.OutNeighbors(graph.Vertex(v)) {
					edges++
					union(uint32(v), u)
				}
			}
		})
		cnt.add(th, edges, tasks)
	})
	out := make([]graph.Vertex, n)
	if e.Err() != nil {
		return out
	}
	e.chargeRound(ep, cnt, 4, barrier.N)

	// Final flattening pass.
	ck2 := par.MakeStrided(int64(n), 64, e.M.Threads())
	ep2, cnt2 := e.beginRound()
	e.RunPhase(func(th int) {
		var tasks int64
		ck2.Do(th, func(lo, hi int64) {
			for v := lo; v < hi; v++ {
				tasks++
				out[v] = find(uint32(v))
			}
		})
		cnt2.add(th, 0, tasks)
	})
	if e.Err() != nil {
		return out
	}
	e.chargeRound(ep2, cnt2, 4, barrier.N)
	return out
}

// SSSP computes single-source shortest paths with the data-driven,
// asynchronously scheduled delta-stepping algorithm Galois uses, and
// returns the distances (+Inf if unreachable).
func (e *Engine) SSSP(src graph.Vertex) []float64 {
	g := e.G
	n := g.NumVertices()
	delta := e.opt.Delta
	dist := make([]float64, n)
	if n == 0 {
		return dist
	}
	e.trackData(int64(n) * 8)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0

	buckets := [][]graph.Vertex{{src}}
	bucketOf := func(d float64) int { return int(d / delta) }
	push := func(bkts [][]graph.Vertex, v graph.Vertex, d float64) [][]graph.Vertex {
		b := bucketOf(d)
		for len(bkts) <= b {
			bkts = append(bkts, nil)
		}
		bkts[b] = append(bkts[b], v)
		return bkts
	}

	for bi := 0; bi < len(buckets); bi++ {
		// Settle the bucket: repeated light-edge relaxation.
		frontier := buckets[bi]
		for len(frontier) > 0 {
			nextLists, farLists := e.roundLists()
			ck := par.MakeStrided(int64(len(frontier)), 16, e.M.Threads())
			ep, cnt := e.beginRound()
			e.RunPhase(func(th int) {
				var edges, tasks int64
				ck.Do(th, func(lo, hi int64) {
					for i := lo; i < hi; i++ {
						v := frontier[i]
						dv := dist[v]
						if bucketOf(dv) != bi {
							continue // stale entry
						}
						tasks++
						nbrs := g.OutNeighbors(v)
						wts := g.OutWeights(v)
						for j, u := range nbrs {
							edges++
							w := 1.0
							if wts != nil && wts[j] != 0 {
								w = float64(wts[j])
							}
							nd := dv + w
							if nd < dist[u] {
								dist[u] = nd
								if bucketOf(nd) == bi {
									nextLists[th] = append(nextLists[th], u)
								} else {
									farLists[th] = append(farLists[th], u)
								}
							}
						}
					}
				})
				cnt.add(th, edges, tasks)
			})
			if e.Err() != nil {
				return dist
			}
			e.chargeRound(ep, cnt, 8, barrier.N)
			frontier = frontier[:0]
			for _, l := range nextLists {
				frontier = append(frontier, l...)
			}
			for th, l := range farLists {
				for _, u := range l {
					buckets = push(buckets, u, dist[u])
				}
				farLists[th] = farLists[th][:0]
			}
		}
	}
	return dist
}

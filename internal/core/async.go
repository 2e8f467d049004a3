package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"polymer/internal/graph"
	"polymer/internal/numa"
	"polymer/internal/sg"
)

// AsyncKernel is the operator for asynchronous traversals: Relax is
// applied to an edge and returns true when the destination's value
// improved. The computation must be monotone (distances only decrease,
// labels only shrink) so that chaotic relaxation converges regardless of
// schedule, and Relax must be safe for concurrent invocation (use
// atomics).
type AsyncKernel interface {
	Relax(s, d graph.Vertex, w float32) bool
}

// AsyncTraverse runs a chaotic-relaxation traversal from the seed
// vertices without any global barrier — the asynchronous execution mode
// the paper discusses via Galois and PowerSwitch, realised on Polymer's
// NUMA-aware layout. An active vertex is enqueued on every node holding a
// portion of its out-edges; each node's threads drain their own worklist,
// relaxing strictly node-local targets and forwarding newly improved
// vertices to their owners' worklists. Termination is detected with a
// global outstanding-work counter.
//
// Compared to the synchronous EdgeMap rounds, there is no per-iteration
// barrier charge and no repeated frontier materialisation; the price is
// that every far-side read is random rather than agent-sequential.
func (e *Engine) AsyncTraverse(seeds []graph.Vertex, k AsyncKernel, h sg.Hints) {
	h = h.Normalize()
	l := e.ensurePush() // rows keyed by source, columns are local targets
	nodes := e.M.Nodes
	threads := e.M.Threads()

	queues := make([]asyncQueue, nodes)
	inQueue := make([][]uint32, nodes) // per-node "already queued" flags
	for p := 0; p < nodes; p++ {
		inQueue[p] = make([]uint32, e.G.NumVertices())
	}
	var pending atomic.Int64

	// enqueue schedules v on node p unless already scheduled there.
	enqueue := func(p int, v graph.Vertex) {
		if l.perNode[p].rowOf[v] < 0 {
			return // no local edges of v on this node
		}
		if !atomic.CompareAndSwapUint32(&inQueue[p][v], 0, 1) {
			return
		}
		pending.Add(1)
		queues[p].push(v)
	}
	broadcast := func(v graph.Vertex) {
		for p := 0; p < nodes; p++ {
			enqueue(p, v)
		}
	}
	for _, s := range seeds {
		broadcast(s)
	}

	type asyncCounts struct {
		rows, edges, enqueues int64
		_                     [5]int64
	}
	counts := make([]asyncCounts, threads)

	// Threads spin on pending until every worklist drains, so each needs
	// its own goroutine. A thread panic (recovered by the pool) would
	// otherwise leave pending permanently non-zero and spin the survivors
	// forever; the aborted flag lets them drain out.
	var aborted atomic.Bool
	e.dispatch(func(th int) {
		defer func() {
			if r := recover(); r != nil {
				aborted.Store(true)
				panic(r) // re-panic so the pool records the failure
			}
		}()
		p := e.M.NodeOfThread(th)
		nl := &l.perNode[p]
		c := &counts[th]
		weighted := h.Weighted && nl.wts != nil
		for {
			if aborted.Load() {
				return
			}
			v, ok := queues[p].pop()
			if !ok {
				if pending.Load() == 0 {
					return
				}
				runtime.Gosched()
				continue
			}
			atomic.StoreUint32(&inQueue[p][v], 0)
			r := nl.rowOf[v]
			c.rows++
			for j := nl.rowIdx[r]; j < nl.rowIdx[r+1]; j++ {
				t := nl.cols[j]
				c.edges++
				var w float32
				if weighted {
					w = nl.wts[j]
				}
				if k.Relax(v, t, w) {
					c.enqueues++
					broadcast(t)
				}
			}
			pending.Add(-1)
		}
	}, true)

	if e.Err() != nil {
		return // failed traversal charges nothing
	}

	// Charge: like sparse push, but the far-side source reads happen in
	// worklist order — random remote — and there is no barrier at all.
	ep := e.M.NewEpoch()
	totRows := make([]int64, nodes)
	totEdges := make([]int64, nodes)
	totEnqueues := make([]int64, nodes)
	for th := range counts {
		p := e.M.NodeOfThread(th)
		totRows[p] += counts[th].rows
		totEdges[p] += counts[th].edges
		totEnqueues[p] += counts[th].enqueues
	}
	for th := 0; th < threads; th++ {
		p := e.M.NodeOfThread(th)
		cpn := int64(e.M.CoresPerNode)
		rows, edges := totRows[p]/cpn, totEdges[p]/cpn
		enqueues := totEnqueues[p] / cpn
		partVerts := int64(l.perNode[p].vr.Len())
		// Worklist pops + agent lookup: random local.
		e.TierFrontier.Access(ep, th, numa.Rand, numa.Load, p, rows, 8, int64(e.G.NumVertices())*4)
		// Far-side value read: random remote, spread over owners.
		e.TierState.AccessInterleaved(ep, th, numa.Rand, numa.Load, rows, h.DataBytes, dataWS(e, h))
		// Topology stream of the row's columns.
		e.TierTopo.Access(ep, th, numa.Seq, numa.Load, p, edges, 4, 0)
		// Local relaxation writes.
		e.TierState.Access(ep, th, numa.Rand, numa.Store, p, edges, h.DataBytes, partVerts*int64(h.DataBytes))
		// Cross-node enqueue handshakes are latency-bound atomics.
		e.TierFrontier.LatencyBound(ep, th, numa.Store, (p+1)%e.M.Nodes, enqueues)
		ep.Compute(th, float64(edges)*(h.NsPerEdge+e.opt.OverheadNsPerEdge)*1e-9)
	}
	e.Tiers.Step(ep)
	e.Clock += ep.Time()
	e.Ledger.Add(ep)
	for th := range counts {
		e.addEdges(counts[th].edges)
	}
}

// asyncQueue is a mutex-protected LIFO worklist (LIFO keeps the working
// set hot, as Galois's chunked bags do).
type asyncQueue struct {
	mu    sync.Mutex
	items []graph.Vertex
	_     [4]int64
}

func (q *asyncQueue) push(v graph.Vertex) {
	q.mu.Lock()
	q.items = append(q.items, v)
	q.mu.Unlock()
}

func (q *asyncQueue) pop() (graph.Vertex, bool) {
	q.mu.Lock()
	n := len(q.items)
	if n == 0 {
		q.mu.Unlock()
		return 0, false
	}
	v := q.items[n-1]
	q.items = q.items[:n-1]
	q.mu.Unlock()
	return v, true
}

package core

import (
	"math/bits"

	"polymer/internal/graph"
	"polymer/internal/mem"
	"polymer/internal/numa"
	"polymer/internal/par"
	"polymer/internal/sg"
	"polymer/internal/state"
)

const (
	rowMetaBytes  = 12 // row key + edge offset (an agent's topology data)
	stateByte     = 1
	vertexMapData = 16 // curr+next datum touched per vertex in VertexMap
)

// EdgeMap applies k to every edge whose source vertex is active in a and
// returns the set of destinations that reported an update (Section 4.1).
// The execution strategy follows the paper: dense phases sweep the grouped
// per-node rows (push or pull by algorithm preference), sparse phases
// iterate the active lists through the per-node agent lookup; the adaptive
// policy chooses by active degree.
//
// EdgeMap is the interface entry point; it simply instantiates the
// generic EdgeMapK at the interface type, keeping one code path.
func (e *Engine) EdgeMap(a *state.Subset, k sg.EdgeKernel, h sg.Hints) *state.Subset {
	return EdgeMapK(e, a, k, h)
}

// EdgeMapK is EdgeMap generically typed on the kernel; the interface
// method above is its instantiation at sg.EdgeKernel. Callers that know
// the concrete kernel type (the algorithms package) skip the interface
// boxing that way, and no more: per-edge Cond/Update on a type parameter
// are dictionary calls, as indirect as interface calls and never inlined.
// Kernels that want an inlined edge loop bring their own segment form
// (sg.RowKernel, used by edgeMapDensePush; sg.PullRowKernel, used by
// edgeMapDensePull).
func EdgeMapK[K sg.EdgeKernel](e *Engine, a *state.Subset, k K, h sg.Hints) *state.Subset {
	h = h.Normalize()
	if a.IsEmpty() || e.Err() != nil {
		return state.NewEmpty(e.bounds)
	}
	e.met.EdgeMaps++

	dense := true
	if e.opt.Adaptive {
		deg := sg.ActiveDegree(e.G, a)
		dense = state.ShouldDense(a.Count(), deg, e.G.NumEdges(), e.opt.Threshold)
	}
	if !dense {
		e.met.SparsePhases++
		return edgeMapSparse(e, a.ToSparse(), k, h)
	}
	e.met.DensePhases++
	pushDense := e.opt.Mode == Push || (e.opt.Mode == Auto && h.DensePush)
	if e.opt.Mode == Pull {
		pushDense = false
	}
	if pushDense {
		return edgeMapDensePush(e, a.ToDense(), k, h)
	}
	return edgeMapDensePull(e, a.ToDense(), k, h)
}

// charger accumulates one node's classified traffic during a phase and
// flushes it to the epoch at the end, honouring the ablation flags. A
// phase runs its threads one after another (par.Pool.Run), so all threads
// of a node count into the node's charger without synchronisation.
type charger struct {
	e  *Engine
	ep *numa.Epoch
	th int // the node's first thread, the one a flush charges
	p  int // the node

	rowsByOwner   []int64 // state reads of row keys, by owner node
	activeByOwner []int64 // data reads/writes of row keys, by owner node
	edges         int64   // edges processed (topology + local side traffic)
	updates       int64   // successful updates
	condChecks    int64
	lookups       int64 // sparse-mode agent-table probes
	appends       int64 // sparse-mode queue appends
}

// reset clears the per-phase counters, keeping identity and slices.
func (c *charger) reset() {
	for o := range c.rowsByOwner {
		c.rowsByOwner[o] = 0
		c.activeByOwner[o] = 0
	}
	c.edges, c.updates, c.condChecks, c.lookups, c.appends = 0, 0, 0, 0, 0
}

// chargeBalanced charges a finished edge phase. It spreads each node's
// accumulated work evenly over the node's threads, modelling Polymer's
// intra-node dynamic task scheduling (Section 5): within a node all
// threads share the partition, so degree skew between chunks is smoothed
// by work stealing. Imbalance *across* nodes is preserved — that is what
// balanced partitioning addresses (Table 6(b), Figure 11). Every thread of
// a node then carries the same counts, so flush (flushPush or flushPull)
// runs once per node, on the node's charger cut down to one thread's
// share, and the epoch replicates the charge (numa.Epoch.ChargeNodes).
func (e *Engine) chargeBalanced(ep *numa.Epoch, l *layout, h sg.Hints, flush func(c *charger, h sg.Hints, partVerts int)) {
	cpn := int64(e.M.CoresPerNode)
	ep.ChargeNodes(func(_, p int) {
		nl := &l.perNode[p]
		if len(nl.IDs) == 0 {
			return // the node's threads sat the phase out
		}
		c := &e.scr.chargers[p]
		e.addEdges(c.edges)
		c.edges /= cpn
		c.updates /= cpn
		c.condChecks /= cpn
		c.lookups /= cpn
		c.appends /= cpn
		for o := range c.rowsByOwner {
			c.rowsByOwner[o] /= cpn
			c.activeByOwner[o] /= cpn
		}
		flush(c, h, nl.vr.Len())
	})
}

// flushPush charges the dense/sparse push pattern: sequential global reads
// of source state and data, sequential local topology streaming, random
// local writes of target data and state.
func (c *charger) flushPush(h sg.Hints, partVerts int) {
	e, ep, th := c.e, c.ep, c.th
	interleavedData := e.opt.Layout != mem.CoLocated // ablation: NUMA-oblivious data
	edgeBytes := 4
	if h.Weighted {
		edgeBytes += 4
	}
	// Topology: row metadata + columns, streamed from the local node.
	var rows int64
	for _, r := range c.rowsByOwner {
		rows += r
	}
	e.TierTopo.Access(ep, th, numa.Seq, numa.Load, c.p, rows, rowMetaBytes, 0)
	e.TierTopo.Access(ep, th, numa.Seq, numa.Load, c.p, c.edges, edgeBytes, 0)
	// Far-side state and data reads.
	for o := range c.rowsByOwner {
		switch {
		case interleavedData:
			e.TierFrontier.AccessInterleaved(ep, th, numa.Seq, numa.Load, c.rowsByOwner[o], stateByte, 0)
			e.TierState.AccessInterleaved(ep, th, numa.Rand, numa.Load, c.activeByOwner[o], h.DataBytes, dataWS(e, h))
		case e.opt.DisableAgents:
			// Without replicas the far side is visited in edge order:
			// random remote reads over the whole array.
			e.TierFrontier.Access(ep, th, numa.Rand, numa.Load, o, c.rowsByOwner[o], stateByte, int64(e.G.NumVertices()))
			e.TierState.Access(ep, th, numa.Rand, numa.Load, o, c.activeByOwner[o], h.DataBytes, dataWS(e, h))
		case e.opt.DisableRolling:
			// All nodes sweep the same owner simultaneously; the traffic
			// behaves like interleaved pages.
			e.TierFrontier.AccessInterleaved(ep, th, numa.Seq, numa.Load, c.rowsByOwner[o], stateByte, 0)
			e.TierState.AccessInterleaved(ep, th, numa.Seq, numa.Load, c.activeByOwner[o], h.DataBytes, 0)
		default:
			e.TierFrontier.Access(ep, th, numa.Seq, numa.Load, o, c.rowsByOwner[o], stateByte, 0)
			e.TierState.Access(ep, th, numa.Seq, numa.Load, o, c.activeByOwner[o], h.DataBytes, 0)
		}
	}
	// Local side: random writes confined to the partition.
	localWS := int64(partVerts) * int64(h.DataBytes)
	if interleavedData {
		e.TierState.AccessInterleaved(ep, th, numa.Rand, numa.Store, c.condChecks, h.DataBytes, dataWS(e, h))
		e.TierFrontier.AccessInterleaved(ep, th, numa.Rand, numa.Store, c.updates, stateByte, 0)
	} else {
		e.TierState.Access(ep, th, numa.Rand, numa.Store, c.p, c.condChecks, h.DataBytes, localWS)
		e.TierFrontier.Access(ep, th, numa.Rand, numa.Store, c.p, c.updates, stateByte, int64(partVerts))
	}
	// Sparse-mode extras: agent-table probes and queue appends.
	e.TierTopo.Access(ep, th, numa.Rand, numa.Load, c.p, c.lookups, 4, int64(e.G.NumVertices())*4)
	e.TierFrontier.Access(ep, th, numa.Seq, numa.Store, c.p, c.appends, 4, 0)
	c.compute(h, rows)
}

// flushPull charges the dense pull pattern: sequential local topology,
// random local reads of source state and data, sequential global writes of
// target data and state.
func (c *charger) flushPull(h sg.Hints, partVerts int) {
	e, ep, th := c.e, c.ep, c.th
	interleavedData := e.opt.Layout != mem.CoLocated
	edgeBytes := 4
	if h.Weighted {
		edgeBytes += 4
	}
	var rows int64
	for _, r := range c.rowsByOwner {
		rows += r
	}
	e.TierTopo.Access(ep, th, numa.Seq, numa.Load, c.p, rows, rowMetaBytes, 0)
	e.TierTopo.Access(ep, th, numa.Seq, numa.Load, c.p, c.edges, edgeBytes, 0)
	// Local random reads of sources (state + data).
	localWS := int64(partVerts) * int64(h.DataBytes)
	if interleavedData {
		e.TierFrontier.AccessInterleaved(ep, th, numa.Rand, numa.Load, c.edges, stateByte, 0)
		e.TierState.AccessInterleaved(ep, th, numa.Rand, numa.Load, c.edges, h.DataBytes, dataWS(e, h))
	} else {
		e.TierFrontier.Access(ep, th, numa.Rand, numa.Load, c.p, c.edges, stateByte, int64(partVerts))
		e.TierState.Access(ep, th, numa.Rand, numa.Load, c.p, c.edges, h.DataBytes, localWS)
	}
	// Cross-node atomic updates bounce the target's cache line between
	// sockets (Section 4.3: "the same vertex may be updated simultaneously
	// or closely by multiple worker threads on different NUMA-nodes, which
	// may cause heavy contention and frequent cache invalidation"); charge
	// a coherence stall on a fraction of the edge updates. The rolling
	// order — the paper's mitigation — desynchronises the nodes' sweeps
	// and keeps the collision rate low; without it the nodes update the
	// same region simultaneously.
	if e.M.Nodes > 1 {
		stalls := c.edges / 16
		if e.opt.DisableRolling {
			stalls = c.edges / 4
		}
		e.TierState.LatencyBound(ep, th, numa.Store, c.p, stalls)
	}
	// Far-side target data: Cond reads and update writes, sequential by
	// owner (the agents give the sweep its sequential order).
	for o := range c.rowsByOwner {
		switch {
		case interleavedData:
			e.TierState.AccessInterleaved(ep, th, numa.Seq, numa.Load, c.rowsByOwner[o], h.DataBytes, 0)
			e.TierState.AccessInterleaved(ep, th, numa.Seq, numa.Store, c.activeByOwner[o], h.DataBytes, 0)
		case e.opt.DisableAgents:
			e.TierState.Access(ep, th, numa.Rand, numa.Load, o, c.rowsByOwner[o], h.DataBytes, dataWS(e, h))
			e.TierState.Access(ep, th, numa.Rand, numa.Store, o, c.activeByOwner[o], h.DataBytes, dataWS(e, h))
		case e.opt.DisableRolling:
			e.TierState.AccessInterleaved(ep, th, numa.Seq, numa.Load, c.rowsByOwner[o], h.DataBytes, 0)
			e.TierState.AccessInterleaved(ep, th, numa.Seq, numa.Store, c.activeByOwner[o], h.DataBytes, 0)
		default:
			e.TierState.Access(ep, th, numa.Seq, numa.Load, o, c.rowsByOwner[o], h.DataBytes, 0)
			e.TierState.Access(ep, th, numa.Seq, numa.Store, o, c.activeByOwner[o], h.DataBytes, 0)
		}
	}
	c.compute(h, rows)
}

func (c *charger) compute(h sg.Hints, rows int64) {
	ns := float64(c.edges)*(h.NsPerEdge+c.e.opt.OverheadNsPerEdge) + float64(rows)*2
	c.ep.Compute(c.th, ns*1e-9)
}

func dataWS(e *Engine, h sg.Hints) int64 {
	return int64(e.G.NumVertices()) * int64(h.DataBytes)
}

// sweepStart is the row a dense sweep over nl begins at: the rolling
// order's first local row, or row 0 without rolling.
func (e *Engine) sweepStart(nl *nodeLayout) int {
	if e.opt.DisableRolling {
		return 0
	}
	return nl.startRow
}

// edgeMapDensePush sweeps each node's source-keyed rows in rolling order:
// active sources push updates to their local targets. Each chunk of the
// sweep goes to the kernel a segment at a time — a run of rows whose
// sources one node owns, tested against that node's frontier leaf — in
// one PushRows call when the kernel has the segment form (sg.RowKernel),
// else edge by edge (sg.PushRowsPerEdge); the charged counts are the same.
func edgeMapDensePush[K sg.EdgeKernel](e *Engine, a *state.Subset, k K, h sg.Hints) *state.Subset {
	l := e.ensurePush()
	rk := sg.RowKernelOf(k, h)
	var b *state.Builder
	if !h.NoOutput {
		b = e.scr.builder.Builder(e.bounds, e.M.Threads(), true, e.degreeOf)
	}
	ep := e.scr.beginPhase()
	full := a.Count() == int64(e.G.NumVertices())

	e.RunPhase(func(th int) {
		p := e.M.NodeOfThread(th)
		nl := &l.perNode[p]
		if len(nl.IDs) == 0 {
			return
		}
		start := e.sweepStart(nl)
		c := &e.scr.chargers[p]
		rs := e.scr.phaseRows(p, nl, h.Weighted)
		l.strides[p].Do(th%e.M.CoresPerNode, func(lo, hi int64) {
			nl.eachSegment(start, lo, hi, func(o, rlo, rhi int) {
				var active []uint64 // nil: every source is active
				if !full {
					active = a.Words(o)
				}
				c.rowsByOwner[o] += int64(rhi - rlo)
				if rk != nil {
					// Every edge passes Cond and updates (sg.RowKernel).
					activeRows, edges := rk.PushRows(rs, rlo, rhi, active, e.bounds[o])
					c.activeByOwner[o] += activeRows
					c.edges, c.condChecks, c.updates = c.edges+edges, c.condChecks+edges, c.updates+edges
					return
				}
				activeRows, edges, condChecks, updates := sg.PushRowsPerEdge(k, rs, rlo, rhi, active, e.bounds[o], b, p)
				c.activeByOwner[o] += activeRows
				c.edges, c.condChecks, c.updates = c.edges+edges, c.condChecks+condChecks, c.updates+updates
			})
		})
	})
	if e.Err() != nil {
		return state.NewEmpty(e.bounds) // failed phase charges nothing
	}
	e.chargeBalanced(ep, l, h, (*charger).flushPush)
	e.recordPhase("edgemap", true, true, a.Count(), e.chargePhase(ep))
	if b == nil {
		return state.NewEmpty(e.bounds)
	}
	return b.Build()
}

// edgeMapDensePull sweeps each node's target-keyed rows: every target
// gathers from its local sources, node after node (the cross-node
// contention of Section 4.3 is charged in flushPull, not enacted). The
// columns of node p's rows are p's own vertices, so the only frontier leaf
// a thread reads is its node's — tested in place, no partition lookup.
// Each chunk goes to the kernel a segment at a time — a run of rows whose
// targets one node owns — in one PullRows call when the kernel has the
// segment form (sg.PullRowKernel), else edge by edge
// (sg.PullRowsPerEdge); the rows it updated come back as hits, which set
// the targets in their owner's leaf. The charged counts are the same.
func edgeMapDensePull[K sg.EdgeKernel](e *Engine, a *state.Subset, k K, h sg.Hints) *state.Subset {
	l := e.ensurePull()
	pk := sg.PullRowKernelOf(k)
	var b *state.Builder
	if !h.NoOutput {
		b = e.scr.builder.Builder(e.bounds, e.M.Threads(), true, e.degreeOf)
	}
	ep := e.scr.beginPhase()
	full := a.Count() == int64(e.G.NumVertices())
	s := e.scr
	if cap(s.hits) < l.maxChunk {
		s.hits = make([]int32, 0, l.maxChunk) // once per engine: a segment is at most a chunk
	}

	e.RunPhase(func(th int) {
		p := e.M.NodeOfThread(th)
		nl := &l.perNode[p]
		if len(nl.IDs) == 0 {
			return
		}
		start := e.sweepStart(nl)
		c := &s.chargers[p]
		rs := s.phaseRows(p, nl, h.Weighted)
		var active []uint64 // nil: every source is active
		if !full {
			active = a.Words(p)
		}
		base := e.bounds[p]
		l.strides[p].Do(th%e.M.CoresPerNode, func(lo, hi int64) {
			nl.eachSegment(start, lo, hi, func(o, rlo, rhi int) {
				var edges int64
				if pk != nil {
					edges, s.hits = pk.PullRows(rs, rlo, rhi, active, base, s.hits[:0])
				} else {
					edges, s.hits = sg.PullRowsPerEdge(k, rs, rlo, rhi, active, base, s.hits[:0])
				}
				hits := int64(len(s.hits))
				c.rowsByOwner[o] += int64(rhi - rlo)
				c.activeByOwner[o] += hits
				c.edges, c.updates = c.edges+edges, c.updates+hits
				if b != nil {
					for _, r := range s.hits {
						b.SetIn(o, rs.IDs[r])
					}
				}
			})
		})
	})
	if e.Err() != nil {
		return state.NewEmpty(e.bounds)
	}
	e.chargeBalanced(ep, l, h, (*charger).flushPull)
	e.recordPhase("edgemap", true, false, a.Count(), e.chargePhase(ep))
	if b == nil {
		return state.NewEmpty(e.bounds)
	}
	return b.Build()
}

// edgeMapSparse iterates the active vertex lists (all nodes' leaves, read
// through the lookup table) and processes, on each node, the local
// portion of every active vertex's edges via the agent lookup.
func edgeMapSparse[K sg.EdgeKernel](e *Engine, a *state.Subset, k K, h sg.Hints) *state.Subset {
	l := e.ensurePush()
	collect := !h.NoOutput
	var b *state.Builder
	if collect {
		b = e.scr.builder.Builder(e.bounds, e.M.Threads(), false, e.degreeOf)
	}
	ep := e.scr.beginPhase()
	nodes := e.M.Nodes

	// Concatenate the per-node active lists once (into the reusable
	// scratch buffers); every node sweeps the full frontier (its local
	// edges of each active vertex).
	actives := e.scr.actives[:0]
	ownerOf := e.scr.ownerOf[:0]
	for p := 0; p < nodes; p++ {
		for _, v := range a.List(p) {
			actives = append(actives, v)
			ownerOf = append(ownerOf, uint8(p))
		}
	}
	e.scr.actives, e.scr.ownerOf = actives, ownerOf
	stride := par.MakeStrided(int64(len(actives)), par.ChunkSize(int64(len(actives)), e.M.CoresPerNode), e.M.CoresPerNode)

	e.RunPhase(func(th int) {
		p := e.M.NodeOfThread(th)
		nl := &l.perNode[p]
		if len(nl.IDs) == 0 {
			return
		}
		c := &e.scr.chargers[p]
		weighted := h.Weighted && nl.Wts != nil
		stride.Do(th%e.M.CoresPerNode, func(lo, hi int64) {
			var edges, condChecks, updates int64
			for i := lo; i < hi; i++ {
				s := actives[i]
				owner := ownerOf[i]
				c.rowsByOwner[owner]++
				r := nl.rowOf[s]
				if r < 0 {
					continue
				}
				c.activeByOwner[owner]++
				first := nl.Idx[r]
				cols := nl.Cols[first:nl.Idx[r+1]]
				edges += int64(len(cols))
				for j, t := range cols {
					if !k.Cond(t) {
						continue
					}
					condChecks++
					var w float32
					if weighted {
						w = nl.Wts[int(first)+j]
					}
					if k.Update(s, t, w) {
						if collect {
							b.Add(th, t)
						}
						updates++
					}
				}
			}
			c.lookups += hi - lo // one agent-table probe per active vertex
			c.edges += edges
			c.condChecks += condChecks
			c.updates += updates
			c.appends += updates // every update appends its target to the queue
		})
	})
	if e.Err() != nil {
		return state.NewEmpty(e.bounds)
	}
	e.chargeBalanced(ep, l, h, (*charger).flushPush)
	e.recordPhase("edgemap", false, true, a.Count(), e.chargePhase(ep))
	if !collect {
		return state.NewEmpty(e.bounds)
	}
	return b.Build()
}

// VertexMap applies f to every active vertex and returns those for which
// it returned true. Vertices are processed by their owning node's threads
// with dynamic chunking.
func (e *Engine) VertexMap(a *state.Subset, f sg.VertexFunc) *state.Subset {
	if a.IsEmpty() || e.Err() != nil {
		return state.NewEmpty(e.bounds)
	}
	e.met.VertexMaps++
	b := e.scr.builder.Builder(e.bounds, e.M.Threads(), a.Dense(), e.degreeOf)
	ep := e.scr.beginPhase()

	if a.Dense() {
		strides := e.vmDenseStrides()
		e.RunPhase(func(th int) {
			p := e.M.NodeOfThread(th)
			words := a.Words(p)
			base := e.bounds[p]
			var visited, wordsScanned int64
			strides[p].Do(th%e.M.CoresPerNode, func(lo, hi int64) {
				wordsScanned += hi - lo
				for wi := lo; wi < hi; wi++ {
					w := words[wi]
					for w != 0 {
						bit := bits.TrailingZeros64(w)
						v := graph.Vertex(base + int(wi)*64 + bit)
						visited++
						if f(v) {
							b.SetIn(p, v) // node p's words cover its own partition
						}
						w &= w - 1
					}
				}

			})
			e.TierFrontier.Access(ep, th, numa.Seq, numa.Load, p, wordsScanned, 8, 0)
			e.TierState.Access(ep, th, numa.Seq, numa.Load, p, visited, vertexMapData, 0)
			ep.Compute(th, float64(visited)*2e-9)
		})
	} else {
		e.RunPhase(func(th int) {
			p := e.M.NodeOfThread(th)
			list := a.List(p)
			var visited int64
			stride := par.MakeStrided(int64(len(list)), 64, e.M.CoresPerNode)
			stride.Do(th%e.M.CoresPerNode, func(lo, hi int64) {
				for i := lo; i < hi; i++ {
					v := list[i]
					visited++
					if f(v) {
						b.Add(th, v)
					}
				}

			})
			e.TierState.Access(ep, th, numa.Seq, numa.Load, p, visited, 4+vertexMapData, 0)
			ep.Compute(th, float64(visited)*2e-9)
		})
	}
	if e.Err() != nil {
		return state.NewEmpty(e.bounds)
	}
	e.recordPhase("vertexmap", a.Dense(), false, a.Count(), e.chargePhase(ep))
	return b.Build()
}

// addEdges accumulates the processed-edge metric.
func (e *Engine) addEdges(n int64) {
	e.Edges.Add(n)
}

package core

import (
	"polymer/internal/mem"
	"polymer/internal/numa"
	"polymer/internal/sg"
)

// Polymer's charge recipes: what its phases cost on the simulated machine,
// given the counts the shared sweep (sg.Sweep) took over the node's rows.
// Each edge phase is charged once per node, on the node's counts divided
// by its cores: within a node all threads share the partition, so degree
// skew between chunks is smoothed by work stealing (the paper's intra-node
// dynamic task scheduling, Section 5), while imbalance *across* nodes is
// kept — that is what balanced partitioning addresses (Table 6(b), Figure
// 11).

const (
	rowMetaBytes  = 12 // row key + edge offset (an agent's topology data)
	stateByte     = 1
	vertexMapData = 16 // curr+next datum touched per vertex in VertexMap
)

// chargeEdges is the engine's sg.SweepConfig.ChargeEdges: the push pattern
// for dense and sparse push, the pull pattern for dense pull.
func (e *Engine) chargeEdges(m sg.EdgeMode, ep *numa.Epoch, th, p int, c *sg.Counts, h sg.Hints) {
	if m == sg.DensePull {
		e.flushPull(ep, th, p, c, h)
		return
	}
	e.flushPush(ep, th, p, c, h)
}

// flushPush charges node p's dense/sparse push pattern: sequential global
// reads of source state and data, sequential local topology streaming,
// random local writes of target data and state.
func (e *Engine) flushPush(ep *numa.Epoch, th, p int, c *sg.Counts, h sg.Hints) {
	interleavedData := e.opt.Layout != mem.CoLocated // ablation: NUMA-oblivious data
	// Topology: row metadata + columns, streamed from the local node.
	var rows int64
	for _, r := range c.RowsByOwner {
		rows += r
	}
	e.TierTopo.Access(ep, th, numa.Seq, numa.Load, p, rows, rowMetaBytes, 0)
	e.TierTopo.Access(ep, th, numa.Seq, numa.Load, p, c.Edges, h.EdgeBytes(), 0)
	// Far-side state and data reads.
	for o := range c.RowsByOwner {
		switch {
		case interleavedData:
			e.TierFrontier.AccessInterleaved(ep, th, numa.Seq, numa.Load, c.RowsByOwner[o], stateByte, 0)
			e.TierState.AccessInterleaved(ep, th, numa.Rand, numa.Load, c.ActiveByOwner[o], h.DataBytes, dataWS(e, h))
		case e.opt.DisableAgents:
			// Without replicas the far side is visited in edge order:
			// random remote reads over the whole array.
			e.TierFrontier.Access(ep, th, numa.Rand, numa.Load, o, c.RowsByOwner[o], stateByte, int64(e.G.NumVertices()))
			e.TierState.Access(ep, th, numa.Rand, numa.Load, o, c.ActiveByOwner[o], h.DataBytes, dataWS(e, h))
		case e.opt.DisableRolling:
			// All nodes sweep the same owner simultaneously; the traffic
			// behaves like interleaved pages.
			e.TierFrontier.AccessInterleaved(ep, th, numa.Seq, numa.Load, c.RowsByOwner[o], stateByte, 0)
			e.TierState.AccessInterleaved(ep, th, numa.Seq, numa.Load, c.ActiveByOwner[o], h.DataBytes, 0)
		default:
			e.TierFrontier.Access(ep, th, numa.Seq, numa.Load, o, c.RowsByOwner[o], stateByte, 0)
			e.TierState.Access(ep, th, numa.Seq, numa.Load, o, c.ActiveByOwner[o], h.DataBytes, 0)
		}
	}
	// Local side: random writes confined to the partition.
	partVerts := int64(e.parts[p].Len())
	if interleavedData {
		e.TierState.AccessInterleaved(ep, th, numa.Rand, numa.Store, c.CondChecks, h.DataBytes, dataWS(e, h))
		e.TierFrontier.AccessInterleaved(ep, th, numa.Rand, numa.Store, c.Updates, stateByte, 0)
	} else {
		e.TierState.Access(ep, th, numa.Rand, numa.Store, p, c.CondChecks, h.DataBytes, partVerts*int64(h.DataBytes))
		e.TierFrontier.Access(ep, th, numa.Rand, numa.Store, p, c.Updates, stateByte, partVerts)
	}
	// Sparse-mode extras: agent-table probes and queue appends.
	e.TierTopo.Access(ep, th, numa.Rand, numa.Load, p, c.Lookups, 4, int64(e.G.NumVertices())*4)
	e.TierFrontier.Access(ep, th, numa.Seq, numa.Store, p, c.Appends, 4, 0)
	e.compute(ep, th, c, h, rows)
}

// flushPull charges node p's dense pull pattern: sequential local
// topology, random local reads of source state and data, sequential global
// writes of target data and state.
func (e *Engine) flushPull(ep *numa.Epoch, th, p int, c *sg.Counts, h sg.Hints) {
	interleavedData := e.opt.Layout != mem.CoLocated
	var rows int64
	for _, r := range c.RowsByOwner {
		rows += r
	}
	e.TierTopo.Access(ep, th, numa.Seq, numa.Load, p, rows, rowMetaBytes, 0)
	e.TierTopo.Access(ep, th, numa.Seq, numa.Load, p, c.Edges, h.EdgeBytes(), 0)
	// Local random reads of sources (state + data).
	partVerts := int64(e.parts[p].Len())
	if interleavedData {
		e.TierFrontier.AccessInterleaved(ep, th, numa.Rand, numa.Load, c.Edges, stateByte, 0)
		e.TierState.AccessInterleaved(ep, th, numa.Rand, numa.Load, c.Edges, h.DataBytes, dataWS(e, h))
	} else {
		e.TierFrontier.Access(ep, th, numa.Rand, numa.Load, p, c.Edges, stateByte, partVerts)
		e.TierState.Access(ep, th, numa.Rand, numa.Load, p, c.Edges, h.DataBytes, partVerts*int64(h.DataBytes))
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
		stalls := c.Edges / 16
		if e.opt.DisableRolling {
			stalls = c.Edges / 4
		}
		e.TierState.LatencyBound(ep, th, numa.Store, p, stalls)
	}
	// Far-side target data: Cond reads and update writes, sequential by
	// owner (the agents give the sweep its sequential order).
	for o := range c.RowsByOwner {
		switch {
		case interleavedData:
			e.TierState.AccessInterleaved(ep, th, numa.Seq, numa.Load, c.RowsByOwner[o], h.DataBytes, 0)
			e.TierState.AccessInterleaved(ep, th, numa.Seq, numa.Store, c.ActiveByOwner[o], h.DataBytes, 0)
		case e.opt.DisableAgents:
			e.TierState.Access(ep, th, numa.Rand, numa.Load, o, c.RowsByOwner[o], h.DataBytes, dataWS(e, h))
			e.TierState.Access(ep, th, numa.Rand, numa.Store, o, c.ActiveByOwner[o], h.DataBytes, dataWS(e, h))
		case e.opt.DisableRolling:
			e.TierState.AccessInterleaved(ep, th, numa.Seq, numa.Load, c.RowsByOwner[o], h.DataBytes, 0)
			e.TierState.AccessInterleaved(ep, th, numa.Seq, numa.Store, c.ActiveByOwner[o], h.DataBytes, 0)
		default:
			e.TierState.Access(ep, th, numa.Seq, numa.Load, o, c.RowsByOwner[o], h.DataBytes, 0)
			e.TierState.Access(ep, th, numa.Seq, numa.Store, o, c.ActiveByOwner[o], h.DataBytes, 0)
		}
	}
	e.compute(ep, th, c, h, rows)
}

func (e *Engine) compute(ep *numa.Epoch, th int, c *sg.Counts, h sg.Hints, rows int64) {
	ns := float64(c.Edges)*(h.NsPerEdge+e.opt.OverheadNsPerEdge) + float64(rows)*2
	ep.Compute(th, ns*1e-9)
}

func dataWS(e *Engine, h sg.Hints) int64 {
	return int64(e.G.NumVertices()) * int64(h.DataBytes)
}

// chargeVertices is the engine's sg.SweepConfig.ChargeVertices: a thread
// reads its node's leaf and the data of the vertices it visits, all local.
func (e *Engine) chargeVertices(ep *numa.Epoch, th, p int, dense bool, words, visited int64) {
	if dense {
		e.TierFrontier.Access(ep, th, numa.Seq, numa.Load, p, words, 8, 0)
		e.TierState.Access(ep, th, numa.Seq, numa.Load, p, visited, vertexMapData, 0)
	} else {
		e.TierState.Access(ep, th, numa.Seq, numa.Load, p, visited, 4+vertexMapData, 0)
	}
	ep.Compute(th, float64(visited)*2e-9)
}

package core

import (
	"polymer/internal/mem"
	"polymer/internal/numa"
	"polymer/internal/sg"
)

// Polymer's charge recipe: what its phases cost on the simulated machine,
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

// Recipe is Polymer's charge recipe: the engine charges it on the counts
// its sweep takes, the planner (package plan) on counts it estimates. Node
// p owns vertices [bounds[p], bounds[p+1]).
type Recipe struct {
	opt    Options
	bounds []int
	sg.Tiers
}

// NewRecipe returns the recipe under opt, charging through t.
func NewRecipe(opt Options, bounds []int, t sg.Tiers) Recipe {
	return Recipe{opt: opt, bounds: bounds, Tiers: t}
}

// FrontierDemand is Polymer's runtime-state rule for sg.NewTiers: bitmaps
// and queues, 2 bytes per vertex of each node's partition, on that node.
func FrontierDemand(bounds []int) func(fr *mem.TierClass) {
	return func(fr *mem.TierClass) {
		for p := 0; p+1 < len(bounds); p++ {
			fr.GrowDemand(p, 2*int64(bounds[p+1]-bounds[p]))
		}
	}
}

// ChargeEdges is the engine's sg.SweepConfig.ChargeEdges: the node's row
// metadata and columns streamed from the local node, then the push pattern
// for dense and sparse push or the pull pattern for dense pull, then the
// arithmetic.
func (r *Recipe) ChargeEdges(m sg.EdgeMode, ep *numa.Epoch, th, p int, c *sg.Counts, h sg.Hints) {
	var rows int64
	for _, n := range c.RowsByOwner {
		rows += n
	}
	r.Topo.Access(ep, th, numa.Seq, numa.Load, p, rows, rowMetaBytes, 0)
	r.Topo.Access(ep, th, numa.Seq, numa.Load, p, c.Edges, h.EdgeBytes(), 0)
	if m == sg.DensePull {
		r.flushPull(ep, th, p, c, h)
	} else {
		r.flushPush(ep, th, p, c, h)
	}
	ns := float64(c.Edges)*(h.NsPerEdge+r.opt.OverheadNsPerEdge) + float64(rows)*2
	ep.Compute(th, ns*1e-9)
}

// flushPush charges node p's dense/sparse push pattern: sequential global
// reads of source state and data, random local writes of target data and
// state.
func (r *Recipe) flushPush(ep *numa.Epoch, th, p int, c *sg.Counts, h sg.Hints) {
	interleavedData := r.opt.Layout != mem.CoLocated // ablation: NUMA-oblivious data
	// Far-side state and data reads.
	for o := range c.RowsByOwner {
		switch {
		case interleavedData:
			r.Frontier.AccessInterleaved(ep, th, numa.Seq, numa.Load, c.RowsByOwner[o], stateByte, 0)
			r.State.AccessInterleaved(ep, th, numa.Rand, numa.Load, c.ActiveByOwner[o], h.DataBytes, r.dataWS(h))
		case r.opt.DisableAgents:
			// Without replicas the far side is visited in edge order:
			// random remote reads over the whole array.
			r.Frontier.Access(ep, th, numa.Rand, numa.Load, o, c.RowsByOwner[o], stateByte, int64(r.vertices()))
			r.State.Access(ep, th, numa.Rand, numa.Load, o, c.ActiveByOwner[o], h.DataBytes, r.dataWS(h))
		case r.opt.DisableRolling:
			// All nodes sweep the same owner simultaneously; the traffic
			// behaves like interleaved pages.
			r.Frontier.AccessInterleaved(ep, th, numa.Seq, numa.Load, c.RowsByOwner[o], stateByte, 0)
			r.State.AccessInterleaved(ep, th, numa.Seq, numa.Load, c.ActiveByOwner[o], h.DataBytes, 0)
		default:
			r.Frontier.Access(ep, th, numa.Seq, numa.Load, o, c.RowsByOwner[o], stateByte, 0)
			r.State.Access(ep, th, numa.Seq, numa.Load, o, c.ActiveByOwner[o], h.DataBytes, 0)
		}
	}
	// Local side: random writes confined to the partition.
	partVerts := r.partVerts(p)
	if interleavedData {
		r.State.AccessInterleaved(ep, th, numa.Rand, numa.Store, c.CondChecks, h.DataBytes, r.dataWS(h))
		r.Frontier.AccessInterleaved(ep, th, numa.Rand, numa.Store, c.Updates, stateByte, 0)
	} else {
		r.State.Access(ep, th, numa.Rand, numa.Store, p, c.CondChecks, h.DataBytes, partVerts*int64(h.DataBytes))
		r.Frontier.Access(ep, th, numa.Rand, numa.Store, p, c.Updates, stateByte, partVerts)
	}
	// Sparse-mode extras: agent-table probes and queue appends.
	r.Topo.Access(ep, th, numa.Rand, numa.Load, p, c.Lookups, 4, int64(r.vertices())*4)
	r.Frontier.Access(ep, th, numa.Seq, numa.Store, p, c.Appends, 4, 0)
}

// flushPull charges node p's dense pull pattern: random local reads of
// source state and data, sequential global writes of target data and
// state.
func (r *Recipe) flushPull(ep *numa.Epoch, th, p int, c *sg.Counts, h sg.Hints) {
	interleavedData := r.opt.Layout != mem.CoLocated
	// Local random reads of sources (state + data).
	partVerts := r.partVerts(p)
	if interleavedData {
		r.Frontier.AccessInterleaved(ep, th, numa.Rand, numa.Load, c.Edges, stateByte, 0)
		r.State.AccessInterleaved(ep, th, numa.Rand, numa.Load, c.Edges, h.DataBytes, r.dataWS(h))
	} else {
		r.Frontier.Access(ep, th, numa.Rand, numa.Load, p, c.Edges, stateByte, partVerts)
		r.State.Access(ep, th, numa.Rand, numa.Load, p, c.Edges, h.DataBytes, partVerts*int64(h.DataBytes))
	}
	// Cross-node atomic updates bounce the target's cache line between
	// sockets (Section 4.3: "the same vertex may be updated simultaneously
	// or closely by multiple worker threads on different NUMA-nodes, which
	// may cause heavy contention and frequent cache invalidation"); charge
	// a coherence stall on a fraction of the edge updates. The rolling
	// order — the paper's mitigation — desynchronises the nodes' sweeps
	// and keeps the collision rate low; without it the nodes update the
	// same region simultaneously.
	if ep.Machine().Nodes > 1 {
		stalls := c.Edges / 16
		if r.opt.DisableRolling {
			stalls = c.Edges / 4
		}
		r.State.LatencyBound(ep, th, numa.Store, p, stalls)
	}
	// Far-side target data: Cond reads and update writes, sequential by
	// owner (the agents give the sweep its sequential order).
	for o := range c.RowsByOwner {
		switch {
		case interleavedData:
			r.State.AccessInterleaved(ep, th, numa.Seq, numa.Load, c.RowsByOwner[o], h.DataBytes, 0)
			r.State.AccessInterleaved(ep, th, numa.Seq, numa.Store, c.ActiveByOwner[o], h.DataBytes, 0)
		case r.opt.DisableAgents:
			r.State.Access(ep, th, numa.Rand, numa.Load, o, c.RowsByOwner[o], h.DataBytes, r.dataWS(h))
			r.State.Access(ep, th, numa.Rand, numa.Store, o, c.ActiveByOwner[o], h.DataBytes, r.dataWS(h))
		case r.opt.DisableRolling:
			r.State.AccessInterleaved(ep, th, numa.Seq, numa.Load, c.RowsByOwner[o], h.DataBytes, 0)
			r.State.AccessInterleaved(ep, th, numa.Seq, numa.Store, c.ActiveByOwner[o], h.DataBytes, 0)
		default:
			r.State.Access(ep, th, numa.Seq, numa.Load, o, c.RowsByOwner[o], h.DataBytes, 0)
			r.State.Access(ep, th, numa.Seq, numa.Store, o, c.ActiveByOwner[o], h.DataBytes, 0)
		}
	}
}

func (r *Recipe) vertices() int { return r.bounds[len(r.bounds)-1] }

func (r *Recipe) partVerts(p int) int64 { return int64(r.bounds[p+1] - r.bounds[p]) }

func (r *Recipe) dataWS(h sg.Hints) int64 { return int64(r.vertices()) * int64(h.DataBytes) }

// ChargeVertices is the engine's sg.SweepConfig.ChargeVertices: a thread
// reads its node's leaf and the data of the vertices it visits, all local.
func (r *Recipe) ChargeVertices(ep *numa.Epoch, th, p int, dense bool, words, visited int64) {
	if dense {
		r.Frontier.Access(ep, th, numa.Seq, numa.Load, p, words, 8, 0)
		r.State.Access(ep, th, numa.Seq, numa.Load, p, visited, vertexMapData, 0)
	} else {
		r.State.Access(ep, th, numa.Seq, numa.Load, p, visited, 4+vertexMapData, 0)
	}
	ep.Compute(th, float64(visited)*2e-9)
}

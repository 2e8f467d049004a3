// The analytic cost model: predict the simulated seconds of one
// (engine, placement, partition count) candidate from the graph's
// feature vector and the topology's access-class tables.
//
// The model does not invent a cost formula — it charges a private
// numa.Epoch with each engine's per-superstep traffic recipe (the same
// access classes the real engines charge: sequential edge scans, random
// vertex-state accesses split by placement, agent-mediated remote
// flushes) and folds it through Epoch.Time(), so bandwidth tables, LLC
// modelling and node/port/bisection congestion all come from the one
// cost model the engines themselves use. Per-superstep barrier costs are
// added from the barrier calibration. Prediction therefore tracks the
// simulator to first order; the online learner (learn.go) absorbs the
// residual per-workload bias.

package plan

import (
	"fmt"

	"polymer/internal/barrier"
	"polymer/internal/bench"
	"polymer/internal/mem"
	"polymer/internal/numa"
)

// Candidate is one point of the planner's search space.
type Candidate struct {
	Engine    bench.System
	Placement mem.Placement
	Nodes     int
}

func (c Candidate) String() string {
	return fmt.Sprintf("%s/%s/%dn", c.Engine, c.Placement, c.Nodes)
}

// Supported reports whether the serving path can run the cell: the
// resilient runner's coverage, read from bench's dispatch table.
func Supported(sys bench.System, alg bench.Algo) bool { return bench.SessionCapable(sys, alg) }

// placements lists the placements an engine can actually execute: only
// Polymer has a placement knob; the baselines are interleaved-native.
func placements(sys bench.System) []mem.Placement {
	if sys == bench.Polymer {
		return mem.Placements()
	}
	return []mem.Placement{mem.Interleaved}
}

// Candidates enumerates the viable (engine, placement, nodes) points for
// one algorithm on a machine of maxNodes sockets: every supported engine
// x executable placement at the full requested width, plus narrower
// partition counts (half and one socket) that a small or high-sync
// workload may genuinely prefer.
func Candidates(alg bench.Algo, maxNodes int) []Candidate {
	widths := []int{maxNodes}
	if h := maxNodes / 2; h >= 1 && h != maxNodes {
		widths = append(widths, h)
	}
	if maxNodes > 2 {
		widths = append(widths, 1)
	}
	var out []Candidate
	for _, sys := range bench.Systems() {
		if !Supported(sys, alg) {
			continue
		}
		for _, pl := range placements(sys) {
			for _, w := range widths {
				out = append(out, Candidate{Engine: sys, Placement: pl, Nodes: w})
			}
		}
	}
	return out
}

// shape is the per-algorithm traffic shape: how many supersteps a run
// takes and how much edge/vertex work each processes.
type shape struct {
	supersteps int
	// edgeWork and vertexWork are totals over the whole run (not per
	// superstep); dataBytes is the per-vertex state width and nsPerEdge
	// the algorithm's arithmetic cost. traversal marks frontier-driven
	// kernels (BFS/SSSP), whose superstep count is diameter-bound and
	// whose per-superstep floors the width terms must model.
	edgeWork   float64
	vertexWork float64
	dataBytes  int
	nsPerEdge  float64
	traversal  bool
}

// iters matches bench's fixed iteration count for PR/SpMV/BP.
const iters = 5

// algoShape derives the traffic shape from the profile. Iterated
// algorithms touch every edge every superstep; traversals touch each
// edge about once over a diameter-bound number of levels (SSSP relaxes a
// constant factor more under re-settling).
func algoShape(alg bench.Algo, f Features) shape {
	n, m := float64(f.Vertices), float64(f.Edges)
	switch alg {
	case bench.PR:
		return shape{supersteps: iters, edgeWork: m * iters, vertexWork: n * iters, dataBytes: 8, nsPerEdge: 1.5}
	case bench.SpMV:
		return shape{supersteps: iters, edgeWork: m * iters, vertexWork: n * iters, dataBytes: 8, nsPerEdge: 1.5}
	case bench.BP:
		return shape{supersteps: iters, edgeWork: m * iters, vertexWork: n * iters, dataBytes: 16, nsPerEdge: 6}
	case bench.BFS:
		// +1: the empty-frontier termination round every traversal pays.
		s := f.DiameterEst + 1
		if s < 2 {
			s = 2
		}
		return shape{supersteps: s, edgeWork: 1.5 * m, vertexWork: n, dataBytes: 4, nsPerEdge: 1, traversal: true}
	case bench.SSSP:
		s := f.DiameterEst + 1
		if s < 2 {
			s = 2
		}
		return shape{supersteps: s, edgeWork: 2 * m, vertexWork: 1.5 * n, dataBytes: 8, nsPerEdge: 1.5, traversal: true}
	default:
		// CC and friends are not served; shape like PR so Predict stays
		// total.
		return shape{supersteps: iters, edgeWork: m * iters, vertexWork: n * iters, dataBytes: 4, nsPerEdge: 1}
	}
}

// edgeBytes is the CSR bytes read per edge scanned.
func edgeBytes(f Features) int {
	if f.Weighted {
		return 8
	}
	return 4
}

// Predict models the simulated cost, in seconds, of running alg on a
// graph with features f using candidate c on topo with cores threads per
// socket. It builds a private machine and epoch — nothing it charges is
// observable outside this function.
func Predict(f Features, alg bench.Algo, topo *numa.Topology, c Candidate, cores int) float64 {
	return PredictTiered(f, alg, topo, c, cores, numa.TierConfig{})
}

// PredictTiered is Predict on a DRAM-constrained machine: the private
// machine is armed with tc and the model's charges flow through the same
// mem.TierPlan split the engines use, so the prediction carries the
// slow tier's bandwidth and congestion penalties with the same
// hot-vertex (or uniform-interleave) hit fractions. A zero config is
// exactly Predict — the tier plan is nil and every charge wrapper
// forwards to the epoch bit-identically.
func PredictTiered(f Features, alg bench.Algo, topo *numa.Topology, c Candidate, cores int, tc numa.TierConfig) float64 {
	if f.Vertices == 0 {
		// Degenerate graphs cost one barrier round regardless of engine.
		return barrier.SyncCost(barrier.N, c.Nodes) / topo.SyncScale
	}
	m, err := numa.NewMachineChecked(topo, c.Nodes, cores)
	if err != nil {
		return inf
	}
	if tc.Tiered() {
		if err := m.SetTierConfig(tc); err != nil {
			return inf
		}
	}
	sh := algoShape(alg, f)
	ep := m.NewEpoch()
	threads := m.Threads()
	perEdge := int64(sh.edgeWork/float64(threads)) + 1
	perVert := int64(sh.vertexWork/float64(threads)) + 1
	d := sh.dataBytes
	eb := edgeBytes(f)
	stateWS := f.Vertices * int64(d)
	partVerts := f.Vertices/int64(c.Nodes) + 1
	localWS := partVerts * int64(d)
	var stepsSync float64

	// Degree skew bounds the edge parallelism a CSR traversal can reach:
	// a hub's out-row is one sequential grain when its level is reached,
	// so at most edges/maxDegree grains make independent progress and the
	// critical path carries edgeWork/grains edges no matter how wide the
	// machine is. Without this the model awards extreme-skew shapes (star
	// graphs) a width speedup the CSR engines cannot deliver, inverting
	// the width ordering. Iterated kernels keep the uniform split: they
	// touch every row every superstep, so rows interleave across threads.
	// X-Stream is exempt by construction — edge-centric streaming splits
	// the edge list itself, oblivious to degree skew.
	perEdgeCSR := perEdge
	if sh.traversal && f.MaxOutDegree > 0 {
		grains := f.Edges / f.MaxOutDegree
		if grains < 1 {
			grains = 1
		}
		if grains < int64(threads) {
			perEdgeCSR = int64(sh.edgeWork/float64(grains)) + 1
		}
	}

	// The engines' three demand classes, mirrored on the private machine
	// (nil handles on an untiered machine: every charge passes through).
	tFrontier, tState, tTopo := tierClasses(m, f, d, eb)

	switch c.Engine {
	case bench.Polymer:
		// Mirror of core's flushPull/flushPush charge recipe. Rows are the
		// per-owner partition rows the agents sweep: up to one per (vertex,
		// owner) pair, but never more than the vertex+edge total.
		rows := sh.vertexWork * float64(c.Nodes)
		if cap := sh.vertexWork + sh.edgeWork; rows > cap {
			rows = cap
		}
		rowsT := int64(rows/float64(threads)) + 1
		// Traversal supersteps whose frontier crosses the |E|/20 dense
		// threshold every level scan the whole vertex set per superstep
		// (frontier membership + degree bookkeeping), split across
		// threads — the term that makes narrow machines genuinely slower
		// on small high-diameter graphs (a path goes dense every level; a
		// long cycle stays sparse). Iterated kernels keep their original
		// calibration: their per-vertex sweep is already in vertexWork.
		var scanT int64
		if sh.traversal && sh.edgeWork/float64(sh.supersteps) > float64(f.Edges)/20 {
			scanT = int64(float64(f.Vertices)*float64(sh.supersteps)/float64(threads)) + 1
		}
		colocated := c.Placement == mem.CoLocated
		ep.ChargeNodes(func(th, node int) {
			// Topology: row metadata + columns, streamed from the local node.
			tTopo.Access(ep, th, numa.Seq, numa.Load, node, rowsT, 12, 0)
			tTopo.Access(ep, th, numa.Seq, numa.Load, node, perEdgeCSR, eb, 0)
			if scanT > 0 {
				tFrontier.Access(ep, th, numa.Seq, numa.Load, node, scanT, 8, 0)
				ep.Compute(th, float64(scanT)*2e-9)
			}
			if colocated {
				// Local random reads of sources (state + data), confined to
				// the partition.
				tFrontier.Access(ep, th, numa.Rand, numa.Load, node, perEdgeCSR, 1, partVerts)
				tState.Access(ep, th, numa.Rand, numa.Load, node, perEdgeCSR, d, localWS)
			} else {
				// NUMA-oblivious data (the engine charges interleaved and
				// centralized layouts identically): whole-array working set.
				tFrontier.AccessInterleaved(ep, th, numa.Rand, numa.Load, perEdgeCSR, 1, 0)
				tState.AccessInterleaved(ep, th, numa.Rand, numa.Load, perEdgeCSR, d, stateWS)
			}
			// Cross-node coherence stalls on a fraction of the edge updates.
			if c.Nodes > 1 {
				tState.LatencyBound(ep, th, numa.Store, node, perEdgeCSR/16)
			}
			// Far-side target data: Cond reads and update writes, sequential
			// by owner (the agents give the sweep its order).
			perOwnerRows := rowsT/int64(c.Nodes) + 1
			perOwnerUpd := perVert/int64(c.Nodes) + 1
			for o := 0; o < c.Nodes; o++ {
				if colocated {
					tState.Access(ep, th, numa.Seq, numa.Load, o, perOwnerRows, d, 0)
					tState.Access(ep, th, numa.Seq, numa.Store, o, perOwnerUpd, d, 0)
				} else {
					tState.AccessInterleaved(ep, th, numa.Seq, numa.Load, perOwnerRows, d, 0)
					tState.AccessInterleaved(ep, th, numa.Seq, numa.Store, perOwnerUpd, d, 0)
				}
			}
			ep.Compute(th, (float64(perEdgeCSR)*(sh.nsPerEdge+1.0)+float64(rowsT)*2)*1e-9)
		})
		stepsSync = float64(sh.supersteps) * barrier.SyncCost(barrier.N, c.Nodes) / topo.SyncScale
	case bench.Ligra:
		// Mirror of ligra's edgemap charge recipe: dense supersteps scan
		// every vertex, frontier bookkeeping lives centralized on node 0,
		// everything else is interleaved.
		scanT := int64(float64(f.Vertices)*float64(sh.supersteps)/float64(threads)) + 1
		ep.ChargeNodes(func(th, _ int) {
			tFrontier.Access(ep, th, numa.Seq, numa.Load, 0, scanT, 1, 0)
			tTopo.AccessInterleaved(ep, th, numa.Seq, numa.Load, scanT, 16, 0)
			tState.AccessInterleaved(ep, th, numa.Seq, numa.Load, perVert, d, 0)
			tTopo.AccessInterleaved(ep, th, numa.Seq, numa.Load, perEdgeCSR, eb, 0)
			tState.AccessInterleaved(ep, th, numa.Rand, numa.Store, perEdgeCSR, d, stateWS)
			tFrontier.Access(ep, th, numa.Rand, numa.Store, 0, perEdgeCSR/2, 1, f.Vertices)
			ep.Compute(th, (float64(perEdgeCSR)*(sh.nsPerEdge+1.2)+float64(scanT)*2)*1e-9)
		})
		// Edgemap and vertexmap each cross an H barrier.
		stepsSync = float64(sh.supersteps) * 2 * barrier.SyncCost(barrier.H, c.Nodes) / topo.SyncScale
	case bench.XStream:
		// Edge-centric streaming: every superstep scans the full edge list
		// regardless of the frontier, then shuffles and gathers update
		// records through streaming buffers.
		scanPerTh := int64(float64(f.Edges)*float64(sh.supersteps)/float64(threads)) + 1
		ep.ChargeNodes(func(th, node int) {
			tTopo.AccessInterleaved(ep, th, numa.Seq, numa.Load, scanPerTh, eb+4, 0)
			tState.Access(ep, th, numa.Rand, numa.Load, node, perEdge, d, localWS)
			tState.Access(ep, th, numa.Seq, numa.Store, node, perEdge, 12, 0)
			tState.Access(ep, th, numa.Seq, numa.Load, node, perEdge, 12, 0)
			tState.AccessInterleaved(ep, th, numa.Seq, numa.Store, perEdge, 12, 0)
			tState.AccessInterleaved(ep, th, numa.Seq, numa.Load, perEdge, 12, 0)
			tState.Access(ep, th, numa.Rand, numa.Store, node, perVert, d, localWS)
			ep.Compute(th, float64(scanPerTh)*1.5e-9)
		})
		// Scatter, shuffle and gather each cross an H barrier.
		stepsSync = float64(sh.supersteps) * 3 * barrier.SyncCost(barrier.H, c.Nodes) / topo.SyncScale
	case bench.Galois:
		ep.ChargeNodes(func(th, _ int) {
			tTopo.AccessInterleaved(ep, th, numa.Seq, numa.Load, perEdge, 4, 0)
			tState.AccessInterleaved(ep, th, numa.Rand, numa.Load, perEdge, d, stateWS)
			tTopo.AccessInterleaved(ep, th, numa.Seq, numa.Load, perVert, 16, 0)
			tState.AccessInterleaved(ep, th, numa.Rand, numa.Store, perVert, d, stateWS)
			ep.Compute(th, (float64(perEdge)*0.8+float64(perVert)*20)*1e-9)
		})
		stepsSync = float64(sh.supersteps) * barrier.SyncCost(barrier.H, c.Nodes) / topo.SyncScale
	default:
		return inf
	}
	return ep.Time() + stepsSync
}

// tierClasses mirrors the engines' three-class demand registration
// (pinned frontier, hot-rankable vertex state, CSR topology) on the
// model's private machine, with footprints estimated from the profile:
// bitmaps/queues at ~4 bytes per vertex, state at the algorithm's data
// width, topology at row metadata plus columns. On an untiered machine
// the plan is nil and every returned handle forwards to the epoch
// unchanged, so untiered predictions are bit-identical to the
// historical model.
func tierClasses(m *numa.Machine, f Features, d, eb int) (frontier, state, topo *mem.TierClass) {
	tp := mem.NewTierPlan(m)
	if tp == nil {
		return nil, nil, nil
	}
	nodes := m.Nodes
	frontier = tp.AddClass(mem.ClassSpec{Label: "frontier", BytesPerNode: make([]int64, nodes), Pinned: true})
	state = tp.AddClass(mem.ClassSpec{Label: "state", BytesPerNode: make([]int64, nodes), Priority: 0})
	topo = tp.AddClass(mem.ClassSpec{Label: "topology", BytesPerNode: make([]int64, nodes), Priority: 1})
	frontier.GrowDemandEven(4 * f.Vertices)
	state.GrowDemandEven(f.Vertices * int64(d))
	topo.GrowDemandEven(f.Vertices*12 + f.Edges*int64(eb))
	state.SetHotMass(synthHotMass(f))
	return frontier, state, topo
}

// synthHotMass reconstructs an approximate degree-rank mass curve from
// the profile's degree percentiles. The engines build the exact curve
// from the CSR; the model only has the sketch, so it feeds a synthetic
// rank sample (hub, then the P99/P90/P50 plateaus) through the same
// mem.DegreeHotMass machinery — close enough for the hot policy's hit
// fractions, and the online learner absorbs the residual.
func synthHotMass(f Features) func(float64) float64 {
	n := int(f.Vertices)
	if n > 1024 {
		n = 1024
	}
	if n < 1 {
		return nil
	}
	fn := float64(n)
	return mem.DegreeHotMass(n, func(i int) int64 {
		if i == 0 {
			return f.MaxOutDegree + 1
		}
		r := float64(i) / fn
		var deg float64
		switch {
		case r < 0.01:
			deg = f.DegP99
		case r < 0.10:
			deg = f.DegP90
		case r < 0.50:
			deg = f.DegP50
		default:
			deg = f.DegP50 / 2
		}
		return int64(deg) + 1
	})
}

// inf is the cost of an unviable candidate; it never wins an argmin
// against any finite prediction.
const inf = 1e300

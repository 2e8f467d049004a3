// The analytic cost model: predict the simulated seconds of one
// (engine, placement, partition count) candidate from the graph's feature
// vector.
//
// A charge has one definition. The model prices a candidate with the
// engine's own charge recipe (core.Recipe, ligra.Recipe, xstream.Recipe,
// galois.Recipe) on a private machine of the candidate's width, on counts
// it estimates from the features (estimate.go): one representative
// superstep per phase kind, folded through Epoch.Time() and multiplied by
// the supersteps of that kind, plus each phase's barrier. Bandwidth
// tables, LLC modelling, congestion and the slow tier all come from the one
// model the engines charge, so the prediction's error is count-estimation
// error; the online learner (learn.go) absorbs its per-workload bias.

package plan

import (
	"fmt"

	"polymer/internal/barrier"
	"polymer/internal/bench"
	"polymer/internal/core"
	"polymer/internal/engines/galois"
	"polymer/internal/engines/ligra"
	"polymer/internal/engines/xstream"
	"polymer/internal/mem"
	"polymer/internal/numa"
	"polymer/internal/partition"
	"polymer/internal/sg"
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
	out := make([]Candidate, 0, len(widths)*(len(mem.Placements())+len(bench.Systems())-1))
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

// Predict models the simulated cost, in seconds, of running alg on a
// graph with features f using candidate c on topo with cores threads per
// socket. It builds a private machine and epoch — nothing it charges is
// observable outside this function.
func Predict(f Features, alg bench.Algo, topo *numa.Topology, c Candidate, cores int) float64 {
	return PredictTiered(f, alg, topo, c, cores, numa.TierConfig{})
}

// PredictTiered is Predict on a DRAM-constrained machine: the private
// machine is armed with tc and the model registers the engine's demand
// classes on it as the engine does (sg.NewTiers), so the recipes' charges
// split between DRAM and the slow tier by the same placement. A zero
// config is exactly Predict: the tier plan is nil and every charge
// forwards to the epoch bit-identically.
func PredictTiered(f Features, alg bench.Algo, topo *numa.Topology, c Candidate, cores int, tc numa.TierConfig) float64 {
	if f.Vertices == 0 {
		// Degenerate graphs cost one barrier round regardless of engine.
		return barrier.SyncCost(barrier.N, c.Nodes) / topo.SyncScale
	}
	w, ok := estimateRun(f, alg)
	m, err := numa.NewMachineChecked(topo, c.Nodes, cores)
	if !ok || err != nil || tc.Tiered() && m.SetTierConfig(tc) != nil {
		return inf
	}
	n, p := int(f.Vertices), pricer{ep: m.NewEpoch()}
	switch {
	case c.Engine == bench.Polymer:
		bounds := partition.Bounds(partition.VertexBalanced(n, c.Nodes))
		opt := core.DefaultOptions()
		opt.Layout = c.Placement
		r := core.NewRecipe(opt, bounds, modelTiers(m, f, w, core.FrontierDemand(bounds)))
		cfg := sg.SweepConfig{Adaptive: opt.Adaptive, Threshold: opt.Threshold, Dir: opt.Mode, Barrier: opt.Barrier,
			ChargeEdges: r.ChargeEdges, ChargeVertices: r.ChargeVertices}
		p.sweep(w, cfg, c.Nodes, cores, keyedRows(f, c.Nodes), busiestPart(f, c.Nodes))
	case c.Engine == bench.Ligra:
		opt := ligra.DefaultOptions()
		r := ligra.NewRecipe(opt, n, modelTiers(m, f, w, ligra.FrontierDemand(n)))
		cfg := sg.SweepConfig{Adaptive: opt.Adaptive, Threshold: opt.Threshold, Barrier: ligra.Barrier,
			ChargeEdges: r.ChargeEdges, ChargeVertices: r.ChargeVertices}
		// One part: the CSR, a row for every vertex.
		p.sweep(w, cfg, 1, m.Threads(), float64(n), float64(n))
	case !w.iterated:
		// X-Stream and Galois serve no traversal under a session.
		return inf
	case c.Engine == bench.XStream:
		p.xstream(w, xstream.NewRecipe(xstream.DefaultOptions(), n, topo.LLCBytes, w.h, modelTiers(m, f, w, xstream.FrontierDemand(n))), m.Threads())
	case c.Engine == bench.Galois:
		p.galois(w, galois.NewRecipe(galois.DefaultOptions(), n, modelTiers(m, f, w, galois.FrontierDemand(n))), m.Threads())
	default:
		return inf
	}
	return p.total
}

// inf is the cost of an unviable candidate; it never wins an argmin
// against any finite prediction.
const inf = 1e300

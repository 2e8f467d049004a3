package core

import (
	"polymer/internal/graph"
	"polymer/internal/numa"
	"polymer/internal/par"
	"polymer/internal/sg"
	"polymer/internal/state"
)

// scratch is the engine-owned, phase-scoped arena: every buffer a single
// EdgeMap/VertexMap phase needs and provably abandons by its end lives
// here and is reset — not reallocated — between phases, so steady-state
// iterations allocate almost nothing on the host. The simulated memory
// model is unaffected: scratch only changes host allocation behaviour,
// never the charged traffic.
//
// What may be reused: the phase epoch (its ledger is folded into the run
// ledger by chargePhase and never retained), the per-node chargers, the
// builder's per-thread queues and degree counters, and the sparse-mode
// concatenated frontier. What must NOT be reused: the dense bitmap leaves
// handed to the returned Subset — the caller owns the frontier and the
// engine cannot see its lifetime.
type scratch struct {
	ep       *numa.Epoch // reset at the start of every phase
	chargers []charger   // one per node; counter slices allocated once
	builder  state.BuilderScratch

	// Sparse-mode concatenated frontier (active ids + owner nodes).
	actives []graph.Vertex
	ownerOf []uint8

	// rows[p] is node p's rows as a dense phase hands them to the kernel
	// (see phaseRows); hits is the pull sweep's per-segment list of updated
	// rows, sized once to the pull layout's longest chunk.
	rows []sg.Rows
	hits []int32

	// Cached dense VertexMap schedules; per-node word counts are fixed by
	// the partition, so these never change after first use.
	vmDense []par.Strided
}

func newScratch(e *Engine) *scratch {
	nodes := e.M.Nodes
	s := &scratch{ep: e.M.NewEpoch(), chargers: make([]charger, nodes), rows: make([]sg.Rows, nodes)}
	for p := range s.chargers {
		c := &s.chargers[p]
		c.e, c.ep, c.th, c.p = e, s.ep, p*e.M.CoresPerNode, p
		c.rowsByOwner = make([]int64, nodes)
		c.activeByOwner = make([]int64, nodes)
	}
	return s
}

// beginPhase resets the arena for a new parallel phase and returns the
// phase epoch.
func (s *scratch) beginPhase() *numa.Epoch {
	s.ep.Reset()
	for p := range s.chargers {
		s.chargers[p].reset()
	}
	return s.ep
}

// phaseRows returns node p's rows nl as a dense phase hands them to its
// kernel: without the weights when the phase streams none. The view lives
// in the arena, so handing its address to a kernel allocates nothing.
func (s *scratch) phaseRows(p int, nl *nodeLayout, weighted bool) *sg.Rows {
	rs := &s.rows[p]
	*rs = nl.Rows
	if !weighted {
		rs.Wts = nil
	}
	return rs
}

// vmDenseStrides returns the cached dense VertexMap schedules, building
// them on first use.
func (e *Engine) vmDenseStrides() []par.Strided {
	s := e.scr
	if s.vmDense == nil {
		s.vmDense = make([]par.Strided, e.M.Nodes)
		for p := 0; p < e.M.Nodes; p++ {
			words := int64(e.bounds[p+1]-e.bounds[p]+63) / 64
			s.vmDense[p] = par.MakeStrided(words, 64, e.M.CoresPerNode)
		}
	}
	return s.vmDense
}

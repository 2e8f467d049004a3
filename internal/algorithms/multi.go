// Multi-source traversal drivers: MultiBFS and MultiSSSP run k point
// queries in one union-frontier sweep, in the style of MS-BFS (Then et
// al., VLDB'15) — a uint64 bitmask per vertex carries which of the k
// concurrent searches have reached it, so one pass over the topology
// amortizes the edge traffic of k independent traversals. The serving
// layer's request batcher demultiplexes the per-source outputs; the
// conformance harness asserts each one is bit-identical to an
// independent single-source run.

package algorithms

import (
	"errors"
	"fmt"
	"math/bits"

	"polymer/internal/graph"
	"polymer/internal/mem"
	"polymer/internal/sg"
	"polymer/internal/state"
)

// MaxMultiSources bounds one multi-source sweep: one bit per source in a
// uint64 mask.
const MaxMultiSources = 64

// fullMask returns the mask with the low k bits set.
func fullMask(k int) uint64 {
	if k >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(k) - 1
}

// checkSources validates a multi-source batch. Duplicate sources are
// allowed (their searches simply share every claim).
func checkSources(srcs []graph.Vertex, n int) error {
	if len(srcs) == 0 {
		return errors.New("algorithms: multi-source run needs at least one source")
	}
	if len(srcs) > MaxMultiSources {
		return fmt.Errorf("algorithms: %d sources exceed the %d-source batch bound", len(srcs), MaxMultiSources)
	}
	for _, s := range srcs {
		if int(s) >= n {
			return fmt.Errorf("algorithms: source %d outside [0,%d)", s, n)
		}
	}
	return nil
}

// mbfsKernel is the MS-BFS edge function. active[s] holds the searches
// whose frontier contains s this level; visited[d] the searches that have
// claimed d; next[d] the searches claiming d this level. Each (search,
// vertex) bit is claimed exactly once, so the level write behind a claimed
// bit happens once and the per-source levels are bit-identical to k
// single-source BFS runs by construction.
type mbfsKernel struct {
	level   int64
	full    uint64
	levels  [][]int64
	visited []uint64
	active  []uint64
	next    []uint64
}

func (k mbfsKernel) setLevels(d graph.Vertex, claimed uint64) {
	for b := claimed; b != 0; b &= b - 1 {
		k.levels[bits.TrailingZeros64(b)][d] = k.level
	}
}

func (k mbfsKernel) Update(s, d graph.Vertex, w float32) bool {
	fresh := k.active[s] &^ k.visited[d]
	if fresh == 0 {
		return false
	}
	k.visited[d] |= fresh
	k.next[d] |= fresh
	k.setLevels(d, fresh)
	return true
}

func (k mbfsKernel) Cond(d graph.Vertex) bool {
	return k.visited[d] != k.full
}

// mssspKernel relaxes every active search's distance across each edge
// (multi-source synchronous Bellman-Ford). The committed fixed point of
// each search is the unique least solution of dist[d] = min(dist[s]+w),
// so per-source outputs are bit-identical to single-source SSSP no
// matter how the k searches interleave.
type mssspKernel struct {
	dist   [][]float64
	active []uint64
	next   []uint64
}

func (k mssspKernel) Update(s, d graph.Vertex, w float32) bool {
	set := k.active[s]
	if set == 0 {
		return false
	}
	var improved uint64
	for b := set; b != 0; b &= b - 1 {
		i := bits.TrailingZeros64(b)
		di := k.dist[i]
		if nd := di[s] + edgeWeight(w); nd < di[d] {
			di[d] = nd
			improved |= uint64(1) << uint(i)
		}
	}
	if improved == 0 {
		return false
	}
	k.next[d] |= improved
	return true
}

func (k mssspKernel) Cond(graph.Vertex) bool { return true }

// Hints for the multi-source kernels: the mask word is the per-endpoint
// datum for MS-BFS; MS-SSSP additionally touches one distance word per
// relaxation attempt. The batching win is not in these per-edge charges —
// it is that one topology stream serves all k searches.
var (
	mbfsHints  = sg.Hints{DataBytes: 8, NsPerEdge: 1, DensePush: false}
	mssspHints = sg.Hints{DataBytes: 16, NsPerEdge: 1.5, Weighted: true}
)

// rearm retires the old frontier's active masks, then arms the new one's.
// A vertex in both frontiers is cleared first and re-armed with exactly
// the searches that claimed it this step. Each is a VertexMap whose subset
// nothing reads, so neither builds one.
func rearm(e sg.Engine, old, next *state.Subset, active, claimed []uint64) {
	sg.VertexMapDiscard(e, old, func(v graph.Vertex) bool { active[v] = 0; return true })
	sg.VertexMapDiscard(e, next, func(v graph.Vertex) bool { active[v] = claimed[v]; claimed[v] = 0; return true })
}

// MultiBFS runs k breadth-first searches in one union-frontier sweep and
// returns one level array per source (-1 where unreachable), each
// bit-identical to BFS(e, srcs[i]).
func MultiBFS(e sg.Engine, srcs []graph.Vertex) ([][]int64, error) {
	n := e.Graph().NumVertices()
	if err := checkSources(srcs, n); err != nil {
		return nil, err
	}
	out := make([][]int64, len(srcs))
	for i := range out {
		out[i] = mem.Spare[int64](n)
		for v := range out[i] {
			out[i][v] = -1
		}
		out[i][srcs[i]] = 0
	}
	visited := make([]uint64, n)
	active := make([]uint64, n)
	next := make([]uint64, n)
	for i, s := range srcs {
		bit := uint64(1) << uint(i)
		visited[s] |= bit
		active[s] |= bit
	}
	// The kernels go to the engines by pointer, so that looking for a
	// segment or row form does not box them every phase.
	k := &mbfsKernel{full: fullMask(len(srcs)), levels: out, visited: visited, active: active, next: next}
	err := untilEmpty(e, nil, state.FromVertices(e.Bounds(), srcs),
		func(i int, f *state.Subset) *state.Subset {
			k.level = int64(i + 1)
			return sg.EdgeMapK(e, f, k, mbfsHints)
		},
		func(_ int, old, nf *state.Subset) { rearm(e, old, nf, active, next) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MultiSSSP runs k single-source shortest-path queries in one
// union-frontier Bellman-Ford sweep and returns one distance array per
// source (+Inf where unreachable), each bit-identical to SSSP(e,
// srcs[i]).
func MultiSSSP(e sg.Engine, srcs []graph.Vertex) ([][]float64, error) {
	n := e.Graph().NumVertices()
	if err := checkSources(srcs, n); err != nil {
		return nil, err
	}
	r := newRun(e)
	defer r.release()
	dist := make([][]float64, len(srcs))
	for i := range dist {
		dist[i] = r.f64(fmt.Sprintf("msssp/dist%d", i))
		for v := range dist[i] {
			dist[i][v] = infinity
		}
		dist[i][srcs[i]] = 0
	}
	active := make([]uint64, n)
	next := make([]uint64, n)
	for i, s := range srcs {
		active[s] |= uint64(1) << uint(i)
	}
	k := &mssspKernel{dist: dist, active: active, next: next}
	err := untilEmpty(e, nil, state.FromVertices(e.Bounds(), srcs),
		func(_ int, f *state.Subset) *state.Subset { return sg.EdgeMapK(e, f, k, mssspHints) },
		func(_ int, old, nf *state.Subset) { rearm(e, old, nf, active, next) })
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(srcs))
	for i := range out {
		out[i] = answer(dist[i])
	}
	return out, nil
}

// Warm traversals: an earlier BFS or SSSP answer from the same source,
// repaired for the edits committed since it was computed, instead of a
// traversal from scratch. The repair is Ramalingam & Reps' for positive
// weights: find the set A of vertices whose old shortest path a deleted
// edge may have cut, reset A to unreachable, seed one frontier with the
// vertices outside A that have an edge into A or an appended out-edge, and
// relax to the fixpoint with the same kernel a cold run uses. The
// distances a cold run commits are the unique least fixpoint of the
// relaxation system, and the repair reaches the same fixpoint from a state
// of upper bounds that every vertex the fixpoint lowers is reachable from,
// so the result is bit-identical to a cold run.

package algorithms

import (
	"errors"
	"fmt"
	"slices"

	"polymer/internal/graph"
	"polymer/internal/mem"
	"polymer/internal/sg"
	"polymer/internal/state"
)

// errNotRepairable marks a graph a repair cannot run on: an edge weight is
// negative or NaN, so a shortest path need not be tight in order of
// distance and the affected set below would not be a superset of the
// vertices a deletion changed.
var errNotRepairable = errors.New("algorithms: graph has a negative or NaN edge weight")

// Repairable reports whether RepairSSSP and RepairBFS may run on g: g has
// no weights (every edge counts 1), or none of its weights is negative or
// NaN. It is derived once per graph, and carried across a mutation
// lineage's edits while every appended weight passes.
func Repairable(g *graph.Graph) bool {
	if !g.Weighted() {
		return true
	}
	return *graph.Derived(g, "algorithms/repairable", buildRepairable, patchRepairable)
}

func buildRepairable(g *graph.Graph) *bool {
	ok := true
	for v := graph.Vertex(0); ok && int(v) < g.NumVertices(); v++ {
		ok = !slices.ContainsFunc(g.OutWeights(v), badWeight)
	}
	return &ok
}

func patchRepairable(prev *bool, g *graph.Graph, _, appended []graph.Edge) *bool {
	if !*prev {
		return buildRepairable(g) // a deletion may have removed the bad edge
	}
	ok := !slices.ContainsFunc(appended, func(e graph.Edge) bool { return badWeight(e.Wt) })
	return &ok
}

func badWeight(w float32) bool { return !(w >= 0) }

// RepairSSSP returns the distances from src on e's graph (+Inf when
// unreachable), as SSSP would, starting from prior: the distances from src
// on the graph that deleting the pairs of deleted and then appending the
// edges of appended turns into e's graph (mutate.Store.Edits). prior is
// not modified. A graph Repairable rejects is an error.
func RepairSSSP(e sg.Engine, src graph.Vertex, prior []float64, deleted, appended []graph.Edge) ([]float64, error) {
	if !Repairable(e.Graph()) {
		return nil, errNotRepairable
	}
	if err := checkPrior(e, src, prior); err != nil {
		return nil, err
	}
	r := newRun(e)
	defer r.release()
	k := &ssspKernel{dist: r.f64("sssp/dist")}
	copy(k.dist, prior)
	if err := repair(e, src, k, deleted, appended, ssspHints); err != nil {
		return nil, err
	}
	return answer(k.dist), nil
}

// RepairBFS is RepairSSSP for BFS levels (-1 when unreachable): levels are
// distances along unit weights, repaired as such and converted back, so
// e's graph must carry no weights.
func RepairBFS(e sg.Engine, src graph.Vertex, prior []int64, deleted, appended []graph.Edge) ([]int64, error) {
	if e.Graph().Weighted() {
		return nil, errors.New("algorithms: a BFS repair runs on an unweighted graph")
	}
	if err := checkPrior(e, src, prior); err != nil {
		return nil, err
	}
	r := newRun(e)
	defer r.release()
	k := &ssspKernel{dist: r.f64("bfs/dist")}
	for v, l := range prior {
		k.dist[v] = infinity
		if l >= 0 {
			k.dist[v] = float64(l)
		}
	}
	if err := repair(e, src, k, deleted, appended, unitHints); err != nil {
		return nil, err
	}
	levels := mem.Spare[int64](len(k.dist))
	for v, d := range k.dist {
		levels[v] = -1
		if d != infinity {
			levels[v] = int64(d)
		}
	}
	return levels, nil
}

// unitHints are ssspHints for a relaxation along unit weights (BFS levels).
var unitHints = sg.Hints{DataBytes: 8, NsPerEdge: 1.5}

// checkPrior refuses a prior that cannot be an answer from src on e's
// graph: the wrong length, or a source outside it or not at distance 0.
func checkPrior[T int64 | float64](e sg.Engine, src graph.Vertex, prior []T) error {
	if n := e.Graph().NumVertices(); len(prior) != n || int(src) >= n || prior[src] != 0 {
		return fmt.Errorf("algorithms: prior of %d vertices from %d does not fit a graph of %d", len(prior), src, n)
	}
	return nil
}

// repair turns k.dist, the fixpoint from src before the edits, into the
// fixpoint after them: it resets the affected set, seeds the frontier and
// relaxes through the engine, as SSSP does from a single source. It makes
// the engine's layouts in both directions first, as a cold traversal
// does: whether the repair takes a dense or a sparse phase, or none,
// depends on how many commits the prior is behind, and the snapshot's
// successor must find the same layouts to patch either way.
func repair(e sg.Engine, src graph.Vertex, k *ssspKernel, deleted, appended []graph.Edge, h sg.Hints) error {
	sg.MakeLayouts(e)
	if err := e.Err(); err != nil {
		return err
	}
	g, dist := e.Graph(), k.dist
	mark, cut := affected(g, src, dist, deleted)
	for _, v := range cut {
		dist[v] = infinity
	}
	// Outside A every distance still has a path, and every edge that
	// existed before satisfied the fixpoint, so a distance can fall only
	// over an edge into A or an appended one: their sources are the seeds.
	var seeds []graph.Vertex
	seed := func(u graph.Vertex) {
		if mark[u] != inCut && dist[u] != infinity {
			seeds = append(seeds, u)
		}
	}
	for _, v := range cut {
		for _, u := range g.InNeighbors(v) {
			seed(u)
		}
	}
	for _, ed := range appended {
		seed(ed.Src)
	}
	if len(seeds) == 0 {
		return nil
	}
	return untilEmpty(e, nil, state.FromVertices(e.Bounds(), seeds),
		func(_ int, f *state.Subset) *state.Subset { return sg.EdgeMapK(e, f, k, h) }, nil)
}

// A vertex's state in affected's walk.
const (
	untouched uint8 = iota
	queued
	inCut
	kept
)

// affected returns the walk's marks and the set A of vertices whose
// distance the deletions may have raised: a superset of the vertices every
// shortest path to which a deleted pair cut. Candidates start at the
// finite destinations of deleted pairs and are decided in increasing old
// distance. A candidate v stays out of A if the new graph has an edge
// (u, v) from a finite u outside A with dist[u] < dist[v] and
// dist[u] + w == dist[v] in the kernel's arithmetic; otherwise it joins A
// and its tight out-neighbours become candidates. The strict dist[u] <
// dist[v] keeps supports acyclic: a weight that rounds to nothing, like a
// tie, only adds v to A, and any superset of the cut vertices is correct.
// Every u with dist[u] < dist[v] that can ever be a candidate has been
// decided when v is, since weights are not negative. The source is never
// in A. This is a host-side walk over the graph's arrays; it charges
// nothing to the simulated clock.
func affected(g *graph.Graph, src graph.Vertex, dist []float64, deleted []graph.Edge) ([]uint8, []graph.Vertex) {
	mark := make([]uint8, g.NumVertices())
	var h candHeap
	push := func(v graph.Vertex) {
		if mark[v] == untouched && v != src && dist[v] != infinity {
			mark[v] = queued
			h.push(cand{dist[v], v})
		}
	}
	for _, ed := range deleted {
		push(ed.Dst)
	}
	var cut []graph.Vertex
	for len(h) > 0 {
		v := h.pop().v
		dv := dist[v]
		mark[v] = inCut
		wts := g.InWeights(v)
		for j, u := range g.InNeighbors(v) {
			if du := dist[u]; mark[u] != inCut && du < dv && du+edgeWeight(weightAt(wts, j)) == dv {
				mark[v] = kept
				break
			}
		}
		if mark[v] == kept {
			continue
		}
		cut = append(cut, v)
		wts = g.OutWeights(v)
		for j, x := range g.OutNeighbors(v) {
			if dv+edgeWeight(weightAt(wts, j)) == dist[x] {
				push(x)
			}
		}
	}
	return mark, cut
}

// cand is a candidate of affected's walk, ordered by old distance, then
// by vertex.
type cand struct {
	d float64
	v graph.Vertex
}

func (a cand) less(b cand) bool { return a.d < b.d || a.d == b.d && a.v < b.v }

// candHeap is a binary min-heap of candidates.
type candHeap []cand

func (h *candHeap) push(c cand) {
	*h = append(*h, c)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s[i].less(s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *candHeap) pop() cand {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < len(s) && s[l].less(s[m]) {
			m = l
		}
		if r := l + 1; r < len(s) && s[r].less(s[m]) {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}

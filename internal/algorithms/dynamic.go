package algorithms

import (
	"polymer/internal/graph"
	"polymer/internal/sg"
	"polymer/internal/state"
)

// DynamicSSSP maintains single-source shortest paths under edge
// insertions — the paper's stated future work ("how to extend Polymer to
// support mutable topology"). The engine's topology stays immutable;
// inserted edges live in a grow-only overlay adjacency kept beside it.
// Each InsertEdges batch seeds a frontier with the directly improved
// destinations and then relaxes to a fixpoint, alternating EdgeMap over
// the base topology with relaxation over the overlay, so the incremental
// work is proportional to the affected region rather than the graph.
// Compact folds the overlay into a freshly built engine when it has grown
// large.
type DynamicSSSP struct {
	eng     sg.Engine
	rebuild func(*graph.Graph) sg.Engine
	src     graph.Vertex
	kernel  *ssspKernel

	overlay      [][]overlayEdge
	overlayCount int64
	baseEdges    []graph.Edge // retained for Compact
}

type overlayEdge struct {
	dst graph.Vertex
	wt  float32
}

// NewDynamicSSSP computes the initial distances from src on e's graph.
// rebuild constructs a replacement engine for Compact; it may be nil if
// Compact is never used. The caller must Close() the returned structure
// (which closes the current engine).
func NewDynamicSSSP(e sg.Engine, rebuild func(*graph.Graph) sg.Engine, src graph.Vertex) *DynamicSSSP {
	g := e.Graph()
	d := &DynamicSSSP{
		eng:     e,
		rebuild: rebuild,
		src:     src,
		overlay: make([][]overlayEdge, g.NumVertices()),
	}
	d.baseEdges = g.Edges()
	distA := e.NewData("dynsssp/dist")
	d.kernel = &ssspKernel{dist: distA.Data}
	for i := range d.kernel.dist {
		d.kernel.dist[i] = infinity
	}
	// An empty graph (or a source outside the vertex set) has nothing to
	// seed: every distance stays infinite, and a later Rebase onto a
	// snapshot that does contain src picks the computation up from there.
	if int(src) < len(d.kernel.dist) {
		d.kernel.dist[src] = 0
		d.relaxToFixpoint(state.NewSingle(e.Bounds(), src))
	}
	return d
}

// Dist returns the current distance array (do not modify).
func (d *DynamicSSSP) Dist() []float64 { return d.kernel.dist }

// Engine returns the engine currently backing the base topology.
func (d *DynamicSSSP) Engine() sg.Engine { return d.eng }

// OverlaySize returns the number of inserted edges not yet compacted.
func (d *DynamicSSSP) OverlaySize() int64 { return d.overlayCount }

// Close releases the backing engine.
func (d *DynamicSSSP) Close() { d.eng.Close() }

// InsertEdges adds directed weighted edges and restores the
// shortest-path fixpoint incrementally. Unweighted insertions (Wt == 0)
// count as unit weight, as everywhere else. The vertex set is fixed at
// construction: edges with an endpoint outside it are skipped (growing
// the vertex set needs a Rebase onto a larger snapshot). Duplicate
// inserts are kept as parallel overlay edges; relaxation is idempotent
// over them.
func (d *DynamicSSSP) InsertEdges(edges []graph.Edge) {
	n := graph.Vertex(len(d.overlay))
	b := state.NewBuilder(d.eng.Bounds(), 1, false)
	seeded := false
	for _, e := range edges {
		if e.Src >= n || e.Dst >= n {
			continue
		}
		d.overlay[e.Src] = append(d.overlay[e.Src], overlayEdge{dst: e.Dst, wt: e.Wt})
		d.overlayCount++
		nd := d.kernel.dist[e.Src] + edgeWeight(e.Wt)
		if nd < d.kernel.dist[e.Dst] {
			d.kernel.dist[e.Dst] = nd
			b.Add(0, e.Dst)
			seeded = true
		}
	}
	if !seeded {
		return
	}
	d.relaxToFixpoint(b.Build())
}

// relaxToFixpoint alternates base-topology EdgeMap with overlay
// relaxation until no distance improves.
func (d *DynamicSSSP) relaxToFixpoint(frontier *state.Subset) {
	for !frontier.IsEmpty() {
		base := d.eng.EdgeMap(frontier, d.kernel, ssspHints)
		changed := state.NewBuilder(d.eng.Bounds(), 1, false)
		base.ForEach(func(v graph.Vertex) { changed.Add(0, v) })
		frontier.ForEach(func(v graph.Vertex) {
			dv := d.kernel.dist[v]
			for _, oe := range d.overlay[v] {
				if nd := dv + edgeWeight(oe.wt); nd < d.kernel.dist[oe.dst] {
					d.kernel.dist[oe.dst] = nd
					changed.Add(0, oe.dst)
				}
			}
		})
		frontier = changed.Build()
	}
}

// Rebase hands the computation off to a new snapshot: e's graph must be
// an edge-superset of the current topology plus overlay (the mutation
// store's insert-only commits produce exactly that; after deletions,
// build a fresh DynamicSSSP instead — shrinking the edge set can
// invalidate settled distances). The old engine is closed, the overlay
// resets (the snapshot already contains those edges), and the settled
// distances carry over as upper bounds: every shortest path the new
// edges open starts at a finite-distance vertex, so seeding the full
// settled set and relaxing to fixpoint repairs them. The snapshot may
// also grow the vertex set, in which case the new vertices start
// unreachable (and src seeds itself if it just came into range).
func (d *DynamicSSSP) Rebase(e sg.Engine) {
	old := d.kernel.dist
	d.eng.Close()
	d.eng = e
	g := e.Graph()
	n := g.NumVertices()
	d.baseEdges = g.Edges()
	d.overlay = make([][]overlayEdge, n)
	d.overlayCount = 0
	distA := e.NewData("dynsssp/dist")
	d.kernel = &ssspKernel{dist: distA.Data}
	for i := range d.kernel.dist {
		d.kernel.dist[i] = infinity
	}
	copy(d.kernel.dist, old)
	if int(d.src) < n {
		d.kernel.dist[d.src] = 0
	}
	b := state.NewBuilder(e.Bounds(), 1, false)
	seeded := false
	for v, dv := range d.kernel.dist {
		if dv < infinity {
			b.Add(0, graph.Vertex(v))
			seeded = true
		}
	}
	if seeded {
		d.relaxToFixpoint(b.Build())
	}
}

// Compact merges the overlay into a fresh engine built over the combined
// topology (the stop-the-world rebuild a production deployment would
// amortise). Distances are preserved; the old engine is closed.
func (d *DynamicSSSP) Compact() {
	if d.rebuild == nil {
		panic("algorithms: DynamicSSSP.Compact requires a rebuild constructor")
	}
	for s, oes := range d.overlay {
		for _, oe := range oes {
			d.baseEdges = append(d.baseEdges, graph.Edge{Src: graph.Vertex(s), Dst: oe.dst, Wt: oe.wt})
		}
		d.overlay[s] = nil
	}
	d.overlayCount = 0
	n := d.eng.Graph().NumVertices()
	old := d.kernel.dist
	d.eng.Close()
	d.eng = d.rebuild(graph.FromEdges(n, d.baseEdges, true))
	distA := d.eng.NewData("dynsssp/dist")
	copy(distA.Data, old)
	d.kernel = &ssspKernel{dist: distA.Data}
}

// Package xstream implements the X-Stream baseline: an edge-centric
// scatter-shuffle-gather engine with streaming partitions (Roy et al.,
// SOSP'13), as characterised in the paper's Sections 2.1 and 3.2.
//
// X-Stream never indexes edges by vertex: every iteration streams ALL
// edges sequentially, emits updates for the edges whose source is active,
// shuffles the updates to their target partitions, and applies them. The
// "tiling strategy" sizes each streaming partition so its vertex data fits
// the LLC, converting random vertex accesses into cache hits. The price is
// the extra shuffle traffic and — fatally for traversal algorithms on
// high-diameter graphs — the full edge scan per iteration even when only a
// handful of vertices is active (paper Table 3: 557 s for BFS on roadUS).
//
// The simulated engine pays for its update lists (Uout, Uin) in every
// phase; the host holds none. A Kernel streams each edge block straight
// into its gather, so the host's scatter phase only counts the edges with
// an active source, and the scatter, shuffle and gather are all charged
// from that count.
package xstream

import (
	"math/bits"

	"polymer/internal/barrier"
	"polymer/internal/graph"
	"polymer/internal/mem"
	"polymer/internal/numa"
	"polymer/internal/par"
	"polymer/internal/sg"
)

// Kernel is X-Stream's edge-centric program: the scatter and the gather
// of one edge block fused into one loop, written by the kernel itself so
// it compiles to a plain array loop (an interface method is never
// inlined). The model's scatter emits every update of an iteration before
// its gather applies any; a kernel streams them one edge at a time, so
//
//   - its scatter reads no datum its gather writes, so gathering an edge
//     before the next edge is scattered changes no value (a kernel that
//     relaxes in place scatters from a copy taken before the iteration);
//   - the value an update carries is rounded by an explicit conversion,
//     as float64(curr[s]*invOut[s]), as storing it in Uout would round
//     it: no fused multiply-add spans the scatter and the gather.
type Kernel interface {
	// StreamBlock streams the edges (src[i], dst[i]) of one block, with
	// weight wts[i], or 0 for every edge when wts is nil. For each edge
	// whose source is set in active, in order, it scatters the update of
	// src[i] along the edge and gathers it into dst[i], and when the
	// update activates dst[i] it sets dst[i] in next. It returns how many
	// updates activated their target and how many bits of next they newly
	// set. Each destination is gathered by exactly one thread.
	StreamBlock(active []uint64, src, dst []graph.Vertex, wts []float32, next []uint64) (activated, fresh int64)
}

// IsActive reports whether v's bit is set in an active bitmap: the
// scatter loops' active-source test.
func IsActive(active []uint64, v graph.Vertex) bool { return active[v/64]&(1<<(v%64)) != 0 }

// Activate sets d's bit in the next-active bitmap and returns 1 if it was
// clear, else 0: the gather loops' bookkeeping for an update that
// activates its target.
func Activate(next []uint64, d graph.Vertex) int64 {
	w := &next[d/64]
	fresh := ^*w >> (d % 64) & 1
	*w |= 1 << (d % 64)
	return int64(fresh)
}

// Applier is an optional per-vertex post-phase (e.g. PageRank's
// normalisation); it returns whether v is active next iteration.
type Applier func(v graph.Vertex) bool

// Options configures the baseline.
type Options struct {
	// OverheadNsPerEdge is X-Stream's per-edge software overhead.
	OverheadNsPerEdge float64
	// TileVertices overrides the streaming-partition size (0 = size tiles
	// so 2*DataBytes*TileVertices fits the LLC).
	TileVertices int
}

// DefaultOptions returns the evaluation configuration.
func DefaultOptions() Options { return Options{OverheadNsPerEdge: 1.5} }

// tile is one streaming partition: the out-edges of the sources in
// [loVertex, hiVertex), grouped by the tile of their destination. Which
// tile an update lands in is a property of the graph, so the shuffle's
// routing is done once, here: blk[u]..blk[u+1] delimit the edges into
// tile u, each block in CSR order.
type tile struct {
	loVertex, hiVertex int
	src, dst           []graph.Vertex
	wts                []float32 // nil on unweighted graphs
	blk                []int
}

// Engine is an X-Stream instance; the lifecycle surface is sg.Base's.
type Engine struct {
	sg.Base
	recipe Recipe

	tiles   []tile
	active  []uint64
	nActive int64
	topoB   int64
	closed  bool

	// Rollback extension (sg.SnapExtra): the active set at the last
	// SnapshotSim.
	snapActive  []uint64
	snapNActive int64

	// Iteration-scoped scratch: the phase epoch is reset (after each fold
	// into the ledger) rather than reallocated, and the next-active bitmap
	// double-buffers with the current one. Host-only reuse; the charged
	// traffic and the simulated shuffle-buffer footprint are unchanged.
	scrEp         *numa.Epoch
	spare         []uint64 // retired active bitmap, recycled as next
	scatterCounts [][2]int64
	gatherCounts  [][2]int64
	applyCounts   []int64
}

// New builds an X-Stream engine for g on m. Hints supply the data width
// used for tile sizing. It returns an error for invalid configuration or
// a simulated allocation failure.
func New(g *graph.Graph, m *numa.Machine, opt Options, h sg.Hints) (*Engine, error) {
	h = h.Normalize()
	if opt.OverheadNsPerEdge <= 0 {
		opt.OverheadNsPerEdge = 1.5
	}
	e := &Engine{}
	if err := e.Init("xstream", g, m, e); err != nil {
		return nil, err
	}
	e.buildTiles(tileVertices(opt, m.Topo.LLCBytes, h.DataBytes))
	e.active = make([]uint64, (g.NumVertices()+63)/64)
	e.scrEp = e.NewEpoch()
	e.scatterCounts = make([][2]int64, m.Threads())
	e.gatherCounts = make([][2]int64, m.Threads())
	e.applyCounts = make([]int64, m.Threads())
	if err := m.Alloc().Grow("xstream/topology", e.topoB); err != nil {
		return nil, err
	}
	e.InitTier(e.topoB, FrontierDemand(g.NumVertices()))
	e.recipe = NewRecipe(opt, g.NumVertices(), m.Topo.LLCBytes, h, e.Tier)
	return e, nil
}

// MustNew is New panicking on error, for statically valid configurations.
func MustNew(g *graph.Graph, m *numa.Machine, opt Options, h sg.Hints) *Engine {
	e, err := New(g, m, opt, h)
	if err != nil {
		panic(err)
	}
	return e
}

// SnapshotExtra and RestoreExtra are the engine's sg.SnapExtra: the
// current active set rolls back with the clock.
func (e *Engine) SnapshotExtra() {
	if e.snapActive == nil {
		e.snapActive = make([]uint64, len(e.active))
	}
	copy(e.snapActive, e.active)
	e.snapNActive = e.nActive
}

// RestoreExtra rolls the active set back to SnapshotExtra.
func (e *Engine) RestoreExtra() {
	copy(e.active, e.snapActive)
	e.nActive = e.snapNActive
}

// Barrier is the barrier every X-Stream phase ends with, a tree barrier.
const Barrier = barrier.H

// chargePhase folds one phase epoch into the clock and emits its span.
func (e *Engine) chargePhase(ep *numa.Epoch, kind string, active int64) {
	dur, _ := e.ChargePhase(ep, Barrier)
	if e.Tr != nil {
		e.Tr.Phase("xstream", kind, false, true, active, e.Clock-dur, dur)
	}
}

// tileVertices is the streaming-partition size: opt.TileVertices, or
// enough vertices that 2*dataB bytes of each fit an LLC of llc bytes,
// rounded up to a 64-bit word boundary so each tile's state words have a
// single writer in the gather phase.
func tileVertices(opt Options, llc int64, dataB int) int {
	tv := opt.TileVertices
	if tv <= 0 {
		tv = int(llc) / (2 * dataB)
	}
	return max((tv+63)&^63, 64)
}

// buildTiles lays the graph out as a grid of edge blocks, one per (source
// tile, destination tile) pair, in tiles of tileVerts vertices. Two passes
// over each tile's CSR rows: the first counts the edges into every
// destination tile, the second places them, so every array is allocated
// once at its final size and each block is the tile's CSR stream filtered
// by destination tile.
func (e *Engine) buildTiles(tileVerts int) {
	g := e.G
	n := g.NumVertices()
	nTiles := (n + tileVerts - 1) / tileVerts
	if nTiles == 0 {
		nTiles = 1
	}
	e.tiles = make([]tile, nTiles)
	next := make([]int, nTiles) // per destination tile: count, then cursor
	for ti := range e.tiles {
		t := &e.tiles[ti]
		t.loVertex = min(ti*tileVerts, n)
		t.hiVertex = min(t.loVertex+tileVerts, n)
		first, last := graph.Vertex(t.loVertex), graph.Vertex(t.hiVertex)
		edges := g.OutEdgesBefore(t.hiVertex) - g.OutEdgesBefore(t.loVertex)

		clear(next)
		for v := first; v < last; v++ {
			for _, d := range g.OutNeighbors(v) {
				next[int(d)/tileVerts]++
			}
		}
		t.blk = make([]int, nTiles+1)
		for u, c := range next {
			next[u] = t.blk[u]
			t.blk[u+1] = t.blk[u] + c
		}
		t.src = make([]graph.Vertex, edges)
		t.dst = make([]graph.Vertex, edges)
		if g.Weighted() {
			t.wts = make([]float32, edges)
		}
		for v := first; v < last; v++ {
			wts := g.OutWeights(v)
			for j, d := range g.OutNeighbors(v) {
				u := int(d) / tileVerts
				at := next[u]
				next[u]++
				t.src[at], t.dst[at] = v, d
				if wts != nil {
					t.wts[at] = wts[j]
				}
			}
		}
		e.topoB += int64(len(t.src))*8 + int64(len(t.wts))*4
	}
	// The paper's X-Stream routes every update through a vertex -> tile
	// table (tileOf), so its n*4 bytes stay in the simulated footprint;
	// the host needs no such table once the routing is in the layout.
	e.topoB += int64(n) * 4
}

// Tiles returns the number of streaming partitions.
func (e *Engine) Tiles() int { return len(e.tiles) }

// NewData allocates an interleaved per-vertex float64 array.
func (e *Engine) NewData(label string) *mem.Array[float64] {
	return sg.NewArray[float64](&e.Base, label, mem.Interleaved, nil)
}

// NewData32 allocates an interleaved per-vertex uint32 array.
func (e *Engine) NewData32(label string) *mem.Array[uint32] {
	return sg.NewArray[uint32](&e.Base, label, mem.Interleaved, nil)
}

// Close releases simulated allocations and hands the engine's arrays and
// ledgers to the next engine (sg.Base.Close): nothing reads them after.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.Base.Close()
	e.M.Alloc().Release("xstream/topology", e.topoB)
}

// SetAllActive marks every vertex active.
func (e *Engine) SetAllActive() {
	n := e.G.NumVertices()
	for i := range e.active {
		e.active[i] = ^uint64(0)
	}
	if r := n % 64; r != 0 && len(e.active) > 0 {
		e.active[len(e.active)-1] = (1 << r) - 1
	}
	e.nActive = int64(n)
}

// SetActive marks exactly the given vertices active.
func (e *Engine) SetActive(vs []graph.Vertex) {
	clear(e.active)
	for _, v := range vs {
		e.active[v/64] |= 1 << (v % 64)
	}
	e.nActive = 0
	for _, w := range e.active {
		e.nActive += int64(bits.OnesCount64(w))
	}
}

// ActiveCount returns the current number of active vertices.
func (e *Engine) ActiveCount() int64 { return e.nActive }

// Iterate runs one scatter -> shuffle -> gather pass (plus the optional
// apply phase) and replaces the active set; it returns the new active
// count.
func (e *Engine) Iterate(k Kernel, apply Applier) int64 {
	if e.Err() != nil {
		return e.nActive
	}
	nTiles := len(e.tiles)
	threads := e.M.Threads()
	simStart := e.Clock
	activeIn := e.nActive
	var startTM *numa.TrafficMatrix
	if e.Tr != nil {
		startTM = &numa.TrafficMatrix{}
		e.Ledger.Traffic(startTM)
	}
	ep := e.scrEp
	ep.Reset()

	// Scatter: stream every tile's edges, counting those with an active
	// source; the kernel emits their updates in the gather phase. The
	// charge is balanced across all workers: X-Stream sizes its streaming
	// partitions to the thread count at full scale, so per-tile skew does
	// not serialise it.
	ck := par.MakeStrided(int64(nTiles), 1, threads)
	scatterCounts := e.scatterCounts
	e.RunPhase(func(th int) {
		var scanned, activeEdges int64
		// Loaded once a thread, not once an edge; a local of the body, so
		// the phase closure captures nothing more for it.
		active := e.active
		ck.Do(th, func(lo, hi int64) {
			for ti := lo; ti < hi; ti++ {
				t := &e.tiles[ti]
				scanned += int64(len(t.src))
				activeEdges += e.activeOutEdges(t, active)
			}
		})
		scatterCounts[th] = [2]int64{scanned, activeEdges}
	})
	if e.Err() != nil {
		// Abort before any charging, shuffle-buffer accounting, or
		// active-set replacement: a failed iteration leaves no residue and
		// replays bit-identically after recovery.
		return e.nActive
	}
	var scannedT, activeT int64
	for _, c := range scatterCounts {
		scannedT += c[0]
		activeT += c[1]
	}
	ep.ChargeNodes(func(th, node int) {
		e.recipe.Scatter(ep, th, node, scannedT/int64(threads), activeT/int64(threads))
	})
	e.Edges += scannedT
	e.chargePhase(ep, "scatter", activeIn)
	ep.Reset() // shuffle phase reuses the same epoch

	// Shuffle accounting: every update (one an active edge) is read from
	// Uout and written to its target tile's Uin across the machine
	// (SEQ|W|G), plus transient buffer memory (Table 5's "additional
	// buffers in the shuffle phase"). X-Stream streams updates partition
	// by partition, so only about one tile's worth of Uout/Uin is in
	// flight at a time (the paper's Table 5 shows the shuffle buffers add
	// ~8% over Ligra's footprint).
	bufBytes := activeT * 16 * 2 / int64(nTiles)
	if err := e.M.Alloc().Grow("xstream/buffers", bufBytes); err != nil {
		e.Fail(err)
		return e.nActive
	}
	perThread := activeT / int64(threads)
	ep.ChargeNodes(func(th, node int) { e.recipe.Shuffle(ep, th, node, perThread) })
	e.chargePhase(ep, "shuffle", activeT)
	ep.Reset() // gather phase reuses the same epoch

	// Gather: each tile applies its incoming updates; one thread per tile,
	// on the scatter's schedule, so destination writes need no atomics.
	next := e.takeSpare()
	gatherCounts := e.gatherCounts
	e.RunPhase(func(th int) {
		var activated, fresh int64
		active := e.active
		ck.Do(th, func(lo, hi int64) {
			for ti := lo; ti < hi; ti++ {
				a, f := e.streamInto(k, ck, int(ti), active, next)
				activated += a
				fresh += f
			}
		})
		gatherCounts[th] = [2]int64{activated, fresh}
	})
	if e.Err() != nil {
		e.M.Alloc().Release("xstream/buffers", bufBytes)
		e.spare = next
		return e.nActive
	}
	var activatedT, nextCount int64
	for _, c := range gatherCounts {
		activatedT += c[0]
		nextCount += c[1]
	}
	// Every update is applied: one an active edge.
	ep.ChargeNodes(func(th, node int) {
		e.recipe.Gather(ep, th, node, activeT/int64(threads), activatedT/int64(threads))
	})
	e.chargePhase(ep, "gather", activeT)
	e.M.Alloc().Release("xstream/buffers", bufBytes)

	if apply != nil {
		nextCount = e.applyPhase(apply, next)
	}
	if e.Err() != nil {
		e.spare = next
		return e.nActive // apply phase failed: keep the current active set
	}
	e.spare = e.active // recycle the retired bitmap next iteration
	e.active = next
	e.nActive = nextCount
	if e.Tr != nil {
		delta := &numa.TrafficMatrix{}
		e.Ledger.Traffic(delta)
		delta.Sub(startTM)
		e.Tr.Superstep("xstream", e.Round, simStart, e.Clock-simStart, delta)
	}
	e.Round++
	return e.nActive
}

// block returns the edges of block (t, u): t's edges into tile u, in CSR
// order, with their weights (nil on an unweighted graph).
func (t *tile) block(u int) (src, dst []graph.Vertex, wts []float32) {
	b0, b1 := t.blk[u], t.blk[u+1]
	if t.wts != nil {
		wts = t.wts[b0:b1]
	}
	return t.src[b0:b1], t.dst[b0:b1], wts
}

// activeOutEdges counts the out-edges of t's sources that are set in
// active: the scatter's count, one update an edge. Tiles start on word boundaries, so t owns whole words of
// the bitmap; a full word counts its 64 rows at once.
func (e *Engine) activeOutEdges(t *tile, active []uint64) int64 {
	g := e.G
	var edges int64
	for lo := t.loVertex; lo < t.hiVertex; lo += 64 {
		w := active[lo/64]
		if w == ^uint64(0) {
			edges += g.OutEdgesBefore(lo+64) - g.OutEdgesBefore(lo)
			continue
		}
		for ; w != 0; w &= w - 1 {
			edges += g.OutDegree(graph.Vertex(lo + bits.TrailingZeros64(w)))
		}
	}
	return edges
}

// streamInto gathers every block into destination tile u through k,
// walking the source tiles in the order the scatter schedule sc hands
// them out: thread by thread, each thread's tiles ascending. That is the
// order the model's Uin for u receives its updates in, thread th's Uout
// after thread th-1's, each block in CSR order, so every destination gets
// its updates in the same order whatever the tile and thread counts: the
// order a float sum is taken in is a property of the layout and the
// machine, not of the host.
func (e *Engine) streamInto(k Kernel, sc par.Strided, u int, active, next []uint64) (activated, fresh int64) {
	for th := range e.M.Threads() {
		sc.Do(th, func(lo, hi int64) {
			for ti := lo; ti < hi; ti++ {
				src, dst, wts := e.tiles[ti].block(u)
				a, f := k.StreamBlock(active, src, dst, wts, next)
				activated += a
				fresh += f
			}
		})
	}
	return activated, fresh
}

// takeSpare returns a zeroed bitmap for the next active set, recycling the
// one retired by the previous iteration when available.
func (e *Engine) takeSpare() []uint64 {
	if e.spare == nil {
		return make([]uint64, len(e.active))
	}
	next := e.spare
	e.spare = nil
	clear(next)
	return next
}

// applyPhase runs the per-vertex post-function over all vertices,
// overwriting the next-state bitmap with its verdicts.
func (e *Engine) applyPhase(apply Applier, next []uint64) int64 {
	n := e.G.NumVertices()
	clear(next)
	counts := e.applyCounts
	clear(counts)
	ck := par.MakeStrided(int64(n), 256, e.M.Threads())
	ep := e.scrEp
	ep.Reset()
	e.RunPhase(func(th int) {
		var visited int64
		ck.Do(th, func(lo, hi int64) {
			for v := lo; v < hi; v++ {
				visited++
				if apply(graph.Vertex(v)) {
					w := &next[v/64]
					// Chunks are 256-aligned on 64-bit word boundaries, so
					// each word has a single writer.
					*w |= 1 << (v % 64)
					counts[th]++
				}
			}

		})
		e.recipe.Apply(ep, th, visited)
	})
	if e.Err() != nil {
		return 0
	}
	e.chargePhase(ep, "apply", int64(n))
	var total int64
	for _, c := range counts {
		total += c
	}
	return total
}

// Recipe is X-Stream's charge recipe, a method per phase: the engine
// charges it on the counts it takes, the planner (package plan) on counts
// it estimates.
type Recipe struct {
	opt    Options
	dataB  int   // per-vertex datum
	edgeB  int   // streamed per edge: source, target and, when weighted, a weight
	tileWS int64 // one tile's vertex data, the working set of its random accesses
	sg.Tiers
}

// NewRecipe returns the recipe under opt for n vertices, hints h and tiles
// sized to an LLC of llc bytes, charging through t.
func NewRecipe(opt Options, n int, llc int64, h sg.Hints, t sg.Tiers) Recipe {
	h = h.Normalize()
	r := Recipe{opt: opt, dataB: h.DataBytes, edgeB: 8, Tiers: t}
	if h.Weighted {
		r.edgeB = 12
	}
	r.tileWS = int64(min(tileVertices(opt, llc, h.DataBytes), n)) * int64(h.DataBytes)
	return r
}

// FrontierDemand is X-Stream's runtime-state rule for sg.NewTiers: two
// active bitmaps, spread over the machine.
func FrontierDemand(n int) func(fr *mem.TierClass) {
	return func(fr *mem.TierClass) { fr.GrowDemandEven(2 * int64((n+63)/64) * 8) }
}

// Scatter charges thread th on node its share of a scatter phase: scanned
// edges streamed, activeEdges of them from an active source.
func (r *Recipe) Scatter(ep *numa.Epoch, th, node int, scanned, activeEdges int64) {
	// Edge stream: sequential interleaved; source state + data reads:
	// random within the tile (cache-resident thanks to tiling).
	r.Topo.AccessInterleaved(ep, th, numa.Seq, numa.Load, scanned, r.edgeB, 0)
	r.Frontier.Access(ep, th, numa.Rand, numa.Load, node, scanned, 1, r.tileWS)
	r.State.Access(ep, th, numa.Rand, numa.Load, node, activeEdges, r.dataB, r.tileWS)
	// Uout appends: sequential writes to thread-local buffers.
	r.Frontier.Access(ep, th, numa.Seq, numa.Store, node, activeEdges, 12, 0)
	ep.Compute(th, float64(scanned)*(r.opt.OverheadNsPerEdge)*1e-9)
}

// Shuffle charges thread th on node its share of a shuffle phase: updates
// moved from Uout to Uin.
func (r *Recipe) Shuffle(ep *numa.Epoch, th, node int, updates int64) {
	// Uout is read from the emitting thread's local buffer; the
	// re-arranged Uin lands on interleaved pages across the machine.
	r.Frontier.Access(ep, th, numa.Seq, numa.Load, node, updates, 12, 0)
	r.Frontier.AccessInterleaved(ep, th, numa.Seq, numa.Store, updates, 12, 0)
}

// Gather charges thread th on node its share of a gather phase: applied
// updates, activated of which activate their target.
func (r *Recipe) Gather(ep *numa.Epoch, th, node int, applied, activated int64) {
	r.Frontier.AccessInterleaved(ep, th, numa.Seq, numa.Load, applied, 12, 0)
	r.State.Access(ep, th, numa.Rand, numa.Store, node, applied, r.dataB, r.tileWS)
	r.Frontier.Access(ep, th, numa.Rand, numa.Store, node, activated, 1, r.tileWS)
	ep.Compute(th, float64(applied)*2e-9)
}

// Apply charges thread th the vertices it visited in an apply phase.
func (r *Recipe) Apply(ep *numa.Epoch, th int, visited int64) {
	r.State.AccessInterleaved(ep, th, numa.Seq, numa.Load, visited, r.dataB*2, 0)
	ep.Compute(th, float64(visited)*2e-9)
}

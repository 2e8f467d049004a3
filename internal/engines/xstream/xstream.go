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

// Kernel is X-Stream's edge-centric program interface.
type Kernel interface {
	// Scatter produces the update value to send along an out-edge of s
	// (already known to be active); ok=false suppresses the update.
	Scatter(s graph.Vertex, w float32) (val float64, ok bool)
	// Gather applies an update to d and reports whether d becomes active
	// in the next iteration. Each destination is gathered by exactly one
	// thread.
	Gather(d graph.Vertex, val float64) bool
}

// BlockKernel is an optional interface of a Kernel: the scatter and gather
// loops over one run of edges or updates, written by the kernel itself so
// they compile to plain array loops (an interface method is never
// inlined, and the per-edge path pays one call an edge in each phase).
// Iterate looks for it once. Both methods must leave the kernel's data,
// the update arrays and the next-active bits bit for bit, and in order,
// as the per-edge loops below leave them.
type BlockKernel interface {
	// ScatterBlock streams the edges (src[i], dst[i]) of one block, with
	// weight wts[i], or 0 for every edge when wts is nil. For each edge
	// whose source is set in active, in order, it does what
	//
	//	if val, ok := Scatter(src[i], w); ok { append (dst[i], val) }
	//
	// does, appending to ds and vals (of equal length). It returns the
	// extended arrays and the number of edges with an active source.
	ScatterBlock(active []uint64, src, dst []graph.Vertex, wts []float32,
		ds []graph.Vertex, vals []float64) ([]graph.Vertex, []float64, int64)
	// GatherRun applies the updates (ds[i], vals[i]) in order: wherever
	// Gather(ds[i], vals[i]) would report true it sets ds[i]'s bit in
	// next. It returns how many updates reported true and how many bits
	// they newly set.
	GatherRun(ds []graph.Vertex, vals []float64, next []uint64) (activated, fresh int64)
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

// updates is one shuffle buffer: the targets and values of the updates one
// thread emitted into one tile, as parallel arrays in emission order.
type updates struct {
	d   []graph.Vertex
	val []float64
}

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
	opt Options

	tiles    []tile
	active   []uint64
	nActive  int64
	topoB    int64
	closed   bool
	dataB    int
	weighted bool

	// Rollback extension (sg.SnapExtra): the active set at the last
	// SnapshotSim.
	snapActive  []uint64
	snapNActive int64

	// Iteration-scoped scratch: the phase epoch is reset (after each fold
	// into the ledger) rather than reallocated, the shuffle buffers keep
	// their capacity between iterations, and the next-active bitmap
	// double-buffers with the current one. Host-only reuse; the charged
	// traffic and the simulated shuffle-buffer footprint are unchanged.
	scrEp         *numa.Epoch
	out           [][]updates // [thread][tile] update buffers
	spare         []uint64    // retired active bitmap, recycled as next
	scatterCounts [][2]int64
	gatherCounts  [][3]int64
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
	e := &Engine{opt: opt, dataB: h.DataBytes, weighted: h.Weighted}
	if err := e.Init("xstream", g, m, e); err != nil {
		return nil, err
	}
	e.buildTiles(opt.TileVertices)
	e.active = make([]uint64, (g.NumVertices()+63)/64)
	e.scrEp = m.NewEpoch()
	e.out = make([][]updates, m.Threads())
	for th := range e.out {
		e.out[th] = make([]updates, len(e.tiles))
	}
	e.scatterCounts = make([][2]int64, m.Threads())
	e.gatherCounts = make([][3]int64, m.Threads())
	e.applyCounts = make([]int64, m.Threads())
	if err := m.Alloc().Grow("xstream/topology", e.topoB); err != nil {
		return nil, err
	}
	// The active bitmaps and shuffle buffers are spread over the machine.
	e.InitTier(e.topoB, func(fr *mem.TierClass) { fr.GrowDemandEven(2 * int64(len(e.active)) * 8) })
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

// chargePhase folds one phase epoch into the clock — X-Stream's phases
// end at a tree barrier — and emits its span.
func (e *Engine) chargePhase(ep *numa.Epoch, kind string, active int64) {
	dur, _ := e.ChargePhase(ep, barrier.H)
	if e.Tr != nil {
		e.Tr.Phase("xstream", kind, false, true, active, e.Clock-dur, dur)
	}
}

// buildTiles lays the graph out as a grid of edge blocks, one per (source
// tile, destination tile) pair. Two passes over each tile's CSR rows: the
// first counts the edges into every destination tile, the second places
// them, so every array is allocated once at its final size and each block
// is the tile's CSR stream filtered by destination tile.
func (e *Engine) buildTiles(tileVerts int) {
	g := e.G
	n := g.NumVertices()
	if tileVerts <= 0 {
		tileVerts = int(e.M.Topo.LLCBytes) / (2 * e.dataB)
	}
	// Round up to a 64-bit word boundary so each tile's state words have a
	// single writer in the gather phase.
	tileVerts = (tileVerts + 63) &^ 63
	if tileVerts < 64 {
		tileVerts = 64
	}
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
		edges := g.OutNbrs[g.OutIndex[first]:g.OutIndex[last]]

		clear(next)
		for _, d := range edges {
			next[int(d)/tileVerts]++
		}
		t.blk = make([]int, nTiles+1)
		for u, c := range next {
			next[u] = t.blk[u]
			t.blk[u+1] = t.blk[u] + c
		}
		t.src = make([]graph.Vertex, len(edges))
		t.dst = make([]graph.Vertex, len(edges))
		if g.Weighted() {
			t.wts = make([]float32, len(edges))
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

// Close releases simulated allocations.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.FreeArrays()
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
	for i := range e.active {
		e.active[i] = 0
	}
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
	// Nil for a kernel without block loops: every block and update run
	// then goes through the per-edge loops.
	bk, _ := k.(BlockKernel)

	// out[th][tile] are thread th's updates destined for each tile; the
	// buffers keep their capacity between iterations.
	out := e.out
	for th := range out {
		for ti := range out[th] {
			q := &out[th][ti]
			q.d, q.val = q.d[:0], q.val[:0]
		}
	}

	// Scatter: stream every tile's edges; emit updates for active sources.
	// The charge is balanced across all workers: X-Stream sizes its
	// streaming partitions to the thread count at full scale, so per-tile
	// skew does not serialise it.
	ck := par.MakeStrided(int64(nTiles), 1, threads)
	scatterCounts := e.scatterCounts
	e.RunPhase(func(th int) {
		var scanned, activeEdges int64
		// Loaded once a thread, not once an edge; locals of the body, so
		// the phase closure captures nothing more for them.
		active, mine := e.active, out[th]
		ck.Do(th, func(lo, hi int64) {
			for ti := lo; ti < hi; ti++ {
				t := &e.tiles[ti]
				scanned += int64(len(t.src))
				// Block u's updates all land in tile u: thread th's buffer
				// for u receives them in the tile's CSR order, tile after
				// tile, exactly as routing each edge by its target would.
				for u := range mine {
					b0, b1 := t.blk[u], t.blk[u+1]
					if b0 == b1 {
						continue
					}
					q := &mine[u]
					src, dst := t.src[b0:b1], t.dst[b0:b1]
					var wts []float32
					if t.wts != nil {
						wts = t.wts[b0:b1]
					}
					if bk != nil {
						var n int64
						q.d, q.val, n = bk.ScatterBlock(active, src, dst, wts, q.d, q.val)
						activeEdges += n
						continue
					}
					for i, s := range src {
						if !IsActive(active, s) {
							continue
						}
						activeEdges++
						var w float32
						if wts != nil {
							w = wts[i]
						}
						if val, ok := k.Scatter(s, w); ok {
							q.d, q.val = append(q.d, dst[i]), append(q.val, val)
						}
					}
				}
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
	tileWS := int64(e.tiles[0].hiVertex-e.tiles[0].loVertex) * int64(e.dataB)
	ep.ChargeNodes(func(th, node int) {
		scanned, activeEdges := scannedT/int64(threads), activeT/int64(threads)
		// Edge stream: sequential interleaved; source state + data reads:
		// random within the tile (cache-resident thanks to tiling).
		e.TierTopo.AccessInterleaved(ep, th, numa.Seq, numa.Load, scanned, e.edgeBytes(), 0)
		e.TierFrontier.Access(ep, th, numa.Rand, numa.Load, node, scanned, 1, tileWS)
		e.TierState.Access(ep, th, numa.Rand, numa.Load, node, activeEdges, e.dataB, tileWS)
		// Uout appends: sequential writes to thread-local buffers.
		e.TierFrontier.Access(ep, th, numa.Seq, numa.Store, node, activeEdges, 12, 0)
		ep.Compute(th, float64(scanned)*(e.opt.OverheadNsPerEdge)*1e-9)
	})
	e.Edges += scannedT
	e.chargePhase(ep, "scatter", activeIn)
	ep.Reset() // shuffle phase reuses the same epoch

	// Shuffle accounting: every update is read from Uout and written to
	// its target tile's Uin across the machine (SEQ|W|G), plus transient
	// buffer memory (Table 5's "additional buffers in the shuffle phase").
	var totalUpdates int64
	for th := range out {
		for ti := range out[th] {
			totalUpdates += int64(len(out[th][ti].d))
		}
	}
	// X-Stream streams updates partition by partition, so only about one
	// tile's worth of Uout/Uin is in flight at a time (the paper's
	// Table 5 shows the shuffle buffers add ~8% over Ligra's footprint).
	bufBytes := totalUpdates * 16 * 2 / int64(nTiles)
	if err := e.M.Alloc().Grow("xstream/buffers", bufBytes); err != nil {
		e.Fail(err)
		return e.nActive
	}
	ep2 := ep
	perThread := totalUpdates / int64(threads)
	ep2.ChargeNodes(func(th, node int) {
		// Uout is read from the emitting thread's local buffer; the
		// re-arranged Uin lands on interleaved pages across the machine.
		e.TierFrontier.Access(ep2, th, numa.Seq, numa.Load, node, perThread, 12, 0)
		e.TierFrontier.AccessInterleaved(ep2, th, numa.Seq, numa.Store, perThread, 12, 0)
	})
	e.chargePhase(ep2, "shuffle", totalUpdates)
	ep2.Reset() // gather phase reuses the same epoch

	// Gather: each tile applies its incoming updates; one thread per tile
	// so destination writes need no atomics.
	next := e.takeSpare()
	ck2 := par.MakeStrided(int64(nTiles), 1, threads)
	ep3 := ep2
	gatherCounts := e.gatherCounts
	e.RunPhase(func(th int) {
		var applied, activated, fresh int64
		ck2.Do(th, func(lo, hi int64) {
			for ti := lo; ti < hi; ti++ {
				for src := 0; src < threads; src++ {
					q := &out[src][ti]
					applied += int64(len(q.d))
					if bk != nil {
						a, f := bk.GatherRun(q.d, q.val, next)
						activated += a
						fresh += f
						continue
					}
					vals := q.val
					for i, d := range q.d {
						if k.Gather(d, vals[i]) {
							fresh += Activate(next, d)
							activated++
						}
					}
				}
			}
		})
		gatherCounts[th] = [3]int64{applied, activated, fresh}
	})
	if e.Err() != nil {
		e.M.Alloc().Release("xstream/buffers", bufBytes)
		e.spare = next
		return e.nActive
	}
	var appliedT, activatedT, nextCount int64
	for _, c := range gatherCounts {
		appliedT += c[0]
		activatedT += c[1]
		nextCount += c[2]
	}
	ep3.ChargeNodes(func(th, node int) {
		applied, activated := appliedT/int64(threads), activatedT/int64(threads)
		e.TierFrontier.AccessInterleaved(ep3, th, numa.Seq, numa.Load, applied, 12, 0)
		e.TierState.Access(ep3, th, numa.Rand, numa.Store, node, applied, e.dataB, tileWS)
		e.TierFrontier.Access(ep3, th, numa.Rand, numa.Store, node, activated, 1, tileWS)
		ep3.Compute(th, float64(applied)*2e-9)
	})
	e.chargePhase(ep3, "gather", appliedT)
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

// takeSpare returns a zeroed bitmap for the next active set, recycling the
// one retired by the previous iteration when available.
func (e *Engine) takeSpare() []uint64 {
	if e.spare == nil {
		return make([]uint64, len(e.active))
	}
	next := e.spare
	e.spare = nil
	for i := range next {
		next[i] = 0
	}
	return next
}

// applyPhase runs the per-vertex post-function over all vertices,
// overwriting the next-state bitmap with its verdicts.
func (e *Engine) applyPhase(apply Applier, next []uint64) int64 {
	n := e.G.NumVertices()
	for i := range next {
		next[i] = 0
	}
	counts := e.applyCounts
	for i := range counts {
		counts[i] = 0
	}
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
		e.TierState.AccessInterleaved(ep, th, numa.Seq, numa.Load, visited, e.dataB*2, 0)
		ep.Compute(th, float64(visited)*2e-9)
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

func (e *Engine) edgeBytes() int {
	if e.weighted {
		return 12
	}
	return 8
}

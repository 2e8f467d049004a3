package ligra

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/sg"
)

// partsMatch fails t unless parts, patched from prev onto g, is what
// buildParts(g) gives: every chunk wraps g's own arrays under the same row
// numbers and vertices. It returns how many of parts' chunk wrappers are
// not prev's.
func partsMatch(t *testing.T, parts, prev *csrParts, g *graph.Graph) (rewrapped int) {
	t.Helper()
	want := buildParts(g)
	for dir, got := range [2][]sg.Part{parts.push, parts.pull} {
		w, chunks := want.push[0], g.OutChunks()
		was := prev.push[0]
		if dir == 1 {
			w, chunks, was = want.pull[0], g.InChunks(), prev.pull[0]
		}
		p := got[0]
		if len(got) != 1 || !slices.Equal(p.ChunkRows, w.ChunkRows) || !slices.Equal(p.OwnerRows, w.OwnerRows) || len(p.Chunks) != len(chunks) {
			t.Fatalf("direction %d: %d parts, chunk rows %v, owner rows %v, %d chunks; want 1, %v, %v, %d",
				dir, len(got), p.ChunkRows, p.OwnerRows, len(p.Chunks), w.ChunkRows, w.OwnerRows, len(chunks))
		}
		for c, rs := range p.Chunks {
			ch := chunks[c]
			if !sameArray(rs.Idx, ch.Idx) || !sameArray(rs.Cols, ch.Cols) || !sameArray(rs.Wts, ch.Wts) || !slices.Equal(rs.IDs, w.Chunks[c].IDs) {
				t.Fatalf("direction %d: chunk %d does not wrap the graph's arrays", dir, c)
			}
			if rs != was.Chunks[c] {
				rewrapped++
			}
		}
	}
	return rewrapped
}

// TestPartsPatch: patchParts gives what buildParts gives on the patched
// graph, chunk for chunk, and wraps afresh exactly the chunks whose arrays
// graph.Patch replaced: all of them on the first patch of a FromEdges
// graph, only the touched ones after. A 32-edit patch allocates its two
// chunk lists, one sg.Rows a rewrapped chunk, and 512 bytes for the parts'
// headers and size-class rounding.
func TestPartsPatch(t *testing.T) {
	base, err := gen.Load(gen.PowerLaw, gen.Small, true)
	if err != nil {
		t.Fatal(err)
	}
	chunks := 2 * len(base.OutChunks())
	g1 := base.Patch(nil, nil)
	p0 := buildParts(base)
	p1 := patchParts(p0, g1, nil, nil)
	if got := partsMatch(t, p1, p0, g1); got != chunks {
		t.Fatalf("first patch of a FromEdges graph rewrapped %d of %d chunks", got, chunks)
	}

	rng := gen.NewRNG(5)
	n := base.NumVertices()
	var deleted, appended []graph.Edge
	for len(deleted) < 16 {
		s := graph.Vertex(rng.Intn(n))
		if nbrs := g1.OutNeighbors(s); len(nbrs) > 0 {
			deleted = append(deleted, graph.Edge{Src: s, Dst: nbrs[rng.Intn(len(nbrs))]})
		}
		appended = append(appended, graph.Edge{Src: graph.Vertex(rng.Intn(n)), Dst: graph.Vertex(rng.Intn(n)), Wt: 1})
	}
	g2 := g1.Patch(deleted, appended)
	p2 := patchParts(p1, g2, deleted, appended)
	rewrapped := partsMatch(t, p2, p1, g2)
	var replaced int
	for dir, now := range [2][]graph.Chunk{g2.OutChunks(), g2.InChunks()} {
		was := g1.OutChunks()
		if dir == 1 {
			was = g1.InChunks()
		}
		for c := range now {
			if !sameArray(now[c].Idx, was[c].Idx) {
				replaced++
			}
		}
	}
	if rewrapped != replaced || replaced == 0 || replaced > 64 {
		t.Fatalf("32 edits replaced %d chunks' arrays; the patch rewrapped %d", replaced, rewrapped)
	}

	least := uint64(math.MaxUint64)
	for range 6 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p := patchParts(p1, g2, deleted, appended)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(p)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	limit := uint64(chunks)*uint64(unsafe.Sizeof((*sg.Rows)(nil))) + uint64(rewrapped)*uint64(unsafe.Sizeof(sg.Rows{})) + 512
	t.Logf("patching %d chunks' parts, %d rewrapped: %d bytes (limit %d)", chunks, rewrapped, least, limit)
	if least > limit {
		t.Fatalf("a 32-edit patch of Ligra's parts allocated %d bytes, over %d", least, limit)
	}
}

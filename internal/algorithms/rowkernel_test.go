package algorithms

import (
	"maps"
	"math"
	"slices"
	"testing"

	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/sg"
)

// The frontier leaf of the segment tests covers vertices [leafBase,
// leafBase+leafSpan) of segTestN: a kernel that forgets base reads the
// wrong bits.
const (
	segTestN = 160
	leafBase = 32
	leafSpan = 100
)

// segLayout draws a random layout of up to 40 rows and a segment [lo, hi)
// of it, which may start and end anywhere inside. A key (keyed) or column
// (!keyed) is drawn from the leaf's span, the other side from all
// segTestN vertices. Rows may be empty, hold repeated columns and
// self-loops; a weighted layout gives a quarter of its edges weight 0.
// With dense set the rows have no IDs — row r is keyed by vertex r — and
// the segment keeps inside the leaf when keyed.
func segLayout(rng *gen.RNG, keyed, dense, weighted bool) (rs *sg.Rows, lo, hi int) {
	inLeaf := func() graph.Vertex { return graph.Vertex(leafBase + rng.Intn(leafSpan)) }
	anywhere := func() graph.Vertex { return graph.Vertex(rng.Intn(segTestN)) }
	key, col := anywhere, inLeaf
	if keyed {
		key, col = inLeaf, anywhere
	}
	rows := 1 + rng.Intn(40)
	first := 0 // rows below first stay empty and out of the segment
	if dense {
		rows, first = segTestN, 0
		if keyed {
			rows, first = leafBase+leafSpan, leafBase
		}
	}
	rs = &sg.Rows{Idx: make([]int64, rows+1)}
	if !dense {
		rs.IDs = make([]graph.Vertex, rows)
	}
	for r := 0; r < rows; r++ {
		if rs.IDs != nil {
			rs.IDs[r] = key()
		}
		n := 0
		if r >= first && rng.Intn(5) > 0 { // a fifth of the rows are empty
			n = rng.Intn(6)
		}
		for j := 0; j < n; j++ {
			c := col()
			if k := rs.ID(r); rng.Intn(6) == 0 && (keyed || (int(k) >= leafBase && int(k) < leafBase+leafSpan)) {
				c = k // a self-loop, when the key may be a column
			}
			if j > 0 && rng.Intn(5) == 0 {
				c = rs.Cols[len(rs.Cols)-1] // a repeated column
			}
			rs.Cols = append(rs.Cols, c)
		}
		rs.Idx[r+1] = int64(len(rs.Cols))
	}
	if weighted {
		rs.Wts = make([]float32, len(rs.Cols))
		for j := range rs.Wts {
			if rng.Intn(4) > 0 {
				rs.Wts[j] = float32(rng.Float64() * 10)
			}
		}
	}
	lo = first + rng.Intn(rows-first)
	hi = lo + rng.Intn(rows-lo+1)
	return rs, lo, hi
}

// segLeaves are the frontier leaves of the segment tests: the full
// frontier (nil), an empty leaf and a sparse one.
func segLeaves(rng *gen.RNG) map[string][]uint64 {
	sparse := make([]uint64, (leafSpan+63)/64)
	for i := 0; i < leafSpan; i++ {
		if rng.Intn(3) == 0 {
			sparse[i/64] |= 1 << (i % 64)
		}
	}
	return map[string][]uint64{"full": nil, "empty": make([]uint64, (leafSpan+63)/64), "sparse": sparse}
}

// sameBits reports whether a and b are bit-equal.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestPushRowMatchesUpdateLoop holds the push segment forms to their
// per-edge definition over random layouts and segments (segLayout), with
// and without IDs and weights, under the full, an empty and a sparse
// frontier leaf. PushRows of PR, SpMV and BP must leave the kernel's array
// bit-equal to sg.PushRowsPerEdge and report its active rows and edges,
// every edge passing Cond and updating. Each kernel's state carries over
// from segment to segment, so later segments run on state the earlier
// ones wrote.
func TestPushRowMatchesUpdateLoop(t *testing.T) {
	rng := gen.NewRNG(43)
	random := func() []float64 {
		xs := make([]float64, segTestN)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		return xs
	}
	type pushKernel interface {
		sg.EdgeKernel
		sg.RowKernel
	}
	// Each push constructor returns two kernels over equal copies of one
	// random state and the two arrays they write.
	pushes := map[string]func() (seg, edge pushKernel, segDst, edgeDst []float64){
		"pr": func() (pushKernel, pushKernel, []float64, []float64) {
			src, scale, a := random(), random(), random()
			b := slices.Clone(a)
			return &prKernel{curr: src, next: a, invOut: scale}, &prKernel{curr: src, next: b, invOut: scale}, a, b
		},
		"spmv": func() (pushKernel, pushKernel, []float64, []float64) {
			src, a := random(), random()
			b := slices.Clone(a)
			return &spmvKernel{x: src, y: a}, &spmvKernel{x: src, y: b}, a, b
		},
		"bp": func() (pushKernel, pushKernel, []float64, []float64) {
			src, a := random(), random()
			b := slices.Clone(a)
			return &bpKernel{curr: src, acc: a}, &bpKernel{curr: src, acc: b}, a, b
		},
	}

	// Maps are walked in sorted order, so the draws are the same every run.
	leaves := segLeaves(rng)
	for _, lname := range slices.Sorted(maps.Keys(leaves)) {
		active := leaves[lname]
		for _, weighted := range []bool{false, true} {
			for _, name := range slices.Sorted(maps.Keys(pushes)) {
				segK, edgeK, segDst, edgeDst := pushes[name]()
				var pushed int64
				for trial := 0; trial < 300; trial++ {
					rs, lo, hi := segLayout(rng, true, trial%3 == 0, weighted)
					gotRows, gotEdges := segK.PushRows(rs, lo, hi, active, leafBase)
					wantRows, wantEdges, condChecks, updates := sg.PushRowsPerEdge(edgeK, rs, lo, hi, active, leafBase, nil, 0)
					if condChecks != wantEdges || updates != wantEdges {
						t.Fatalf("%s: %d edges, %d cond checks, %d updates: a segment form's Cond and Update are always true", name, wantEdges, condChecks, updates)
					}
					if gotRows != wantRows || gotEdges != wantEdges || !sameBits(segDst, edgeDst) {
						t.Fatalf("%s leaf=%s weighted=%v trial %d (rows [%d, %d), IDs %v): PushRows %d rows %d edges, per-edge %d %d, data equal %v",
							name, lname, weighted, trial, lo, hi, rs.IDs != nil, gotRows, gotEdges, wantRows, wantEdges, sameBits(segDst, edgeDst))
					}
					pushed += gotRows
				}
				if (pushed == 0) != (lname == "empty") {
					t.Errorf("%s leaf=%s weighted=%v: %d rows pushed", name, lname, weighted, pushed)
				}
			}
		}
	}
}

// TestPullRowMatchesUpdateLoop holds the pull segment forms to their
// per-edge definition over random layouts and segments (segLayout), with
// and without IDs and weights, under the full, an empty and a sparse
// frontier leaf. PullRows of BFS, CC and SSSP must leave the kernel's
// array bit-equal to sg.PullRowsPerEdge and report its edges and its hits,
// in order. Each kernel's state carries over from segment to segment, so
// later segments run on state the earlier ones wrote.
func TestPullRowMatchesUpdateLoop(t *testing.T) {
	rng := gen.NewRNG(44)
	type pullKernel interface {
		sg.EdgeKernel
		sg.PullRowKernel
	}
	// Each pull constructor returns two kernels over equal copies of one
	// random state and a bit-level comparison of the two copies.
	pulls := map[string]func() (seg, edge pullKernel, equal func() bool){
		"bfs": func() (pullKernel, pullKernel, func() bool) {
			a := make([]uint32, segTestN)
			for v := range a {
				a[v] = unvisited
				if rng.Intn(3) == 0 { // a third are claimed already
					a[v] = uint32(rng.Intn(segTestN))
				}
			}
			b := slices.Clone(a)
			return &bfsKernel{parent: a}, &bfsKernel{parent: b}, func() bool { return slices.Equal(a, b) }
		},
		"cc": func() (pullKernel, pullKernel, func() bool) {
			a := make([]uint32, segTestN)
			for v := range a {
				a[v] = uint32(rng.Intn(segTestN))
			}
			b := slices.Clone(a)
			return &ccKernel{labels: a}, &ccKernel{labels: b}, func() bool { return slices.Equal(a, b) }
		},
		"sssp": func() (pullKernel, pullKernel, func() bool) {
			a := make([]float64, segTestN)
			for v := range a {
				a[v] = rng.Float64() * 50
				if rng.Intn(4) == 0 {
					a[v] = infinity
				}
			}
			b := slices.Clone(a)
			return &ssspKernel{dist: a}, &ssspKernel{dist: b}, func() bool { return sameBits(a, b) }
		},
	}

	// Maps are walked in sorted order, so the draws are the same every run.
	leaves := segLeaves(rng)
	for _, lname := range slices.Sorted(maps.Keys(leaves)) {
		active := leaves[lname]
		for _, weighted := range []bool{false, true} {
			for _, name := range slices.Sorted(maps.Keys(pulls)) {
				segK, edgeK, equal := pulls[name]()
				var hits int
				for trial := 0; trial < 300; trial++ {
					rs, lo, hi := segLayout(rng, false, trial%3 == 0, weighted)
					prefix := []int32{-1} // what the caller passed in stays in front
					gotEdges, gotHits := segK.PullRows(rs, lo, hi, active, leafBase, slices.Clone(prefix))
					wantEdges, wantHits := sg.PullRowsPerEdge(edgeK, rs, lo, hi, active, leafBase, slices.Clone(prefix))
					if gotEdges != wantEdges || !slices.Equal(gotHits, wantHits) || !equal() {
						t.Fatalf("%s leaf=%s weighted=%v trial %d (rows [%d, %d), IDs %v): PullRows %d edges hits %v, per-edge %d %v, data equal %v",
							name, lname, weighted, trial, lo, hi, rs.IDs != nil, gotEdges, gotHits, wantEdges, wantHits, equal())
					}
					hits += len(gotHits) - len(prefix)
				}
				if (hits == 0) != (lname == "empty") {
					t.Errorf("%s leaf=%s weighted=%v: %d rows updated", name, lname, weighted, hits)
				}
			}
		}
	}

	// BFS's early exit, pinned: a claimed target scans nothing; an open one
	// scans up to and including the first active source and takes it.
	rs := &sg.Rows{IDs: []graph.Vertex{0, 1}, Idx: []int64{0, 4, 8}, Cols: []graph.Vertex{40, 41, 42, 43, 40, 41, 42, 43}}
	active := make([]uint64, (leafSpan+63)/64)
	active[0] = 1<<(42-leafBase) | 1<<(43-leafBase)
	k := &bfsKernel{parent: []uint32{0: 7, 1: unvisited, 50: 0}}
	if edges, hits := k.PullRows(rs, 0, 2, active, leafBase, nil); edges != 3 || !slices.Equal(hits, []int32{1}) || k.parent[0] != 7 || k.parent[1] != 42 {
		t.Errorf("claimed and open target scanned %d, hits %v, parents %d %d; want 3, [1], 7, 42", edges, hits, k.parent[0], k.parent[1])
	}
}

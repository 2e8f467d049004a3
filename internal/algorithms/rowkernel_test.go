package algorithms

import (
	"fmt"
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
	key, col := segDraws(rng, keyed)
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
		appendRow(rng, rs, r, n, keyed, col)
	}
	if weighted {
		drawWeights(rng, rs)
	}
	lo = first + rng.Intn(rows-first)
	hi = lo + rng.Intn(rows-lo+1)
	return rs, lo, hi
}

// segDraws returns the draws of a row's key and of its columns: one of
// them from the leaf's span, keys when keyed, the other from all segTestN
// vertices.
func segDraws(rng *gen.RNG, keyed bool) (key, col func() graph.Vertex) {
	inLeaf := func() graph.Vertex { return graph.Vertex(leafBase + rng.Intn(leafSpan)) }
	anywhere := func() graph.Vertex { return graph.Vertex(rng.Intn(segTestN)) }
	if keyed {
		return inLeaf, anywhere
	}
	return anywhere, inLeaf
}

// appendRow fills row r, the last of rs, with n columns drawn by col, now
// and then a self-loop (when the key may be a column) or a repeat of the
// column before.
func appendRow(rng *gen.RNG, rs *sg.Rows, r, n int, keyed bool, col func() graph.Vertex) {
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

// drawWeights weights rs's edges, a quarter of them 0.
func drawWeights(rng *gen.RNG, rs *sg.Rows) {
	rs.Wts = make([]float32, len(rs.Cols))
	for j := range rs.Wts {
		if rng.Intn(4) > 0 {
			rs.Wts[j] = float32(rng.Float64() * 10)
		}
	}
}

// fixedSegments are the row lengths of segments that pin the corner cases
// of the segment forms' edge loop (sg.RowCursor) and the push forms'
// shape test (sg.ShortRows): empty rows where the cursor starts, ends and
// steps over several, a segment of no edges and one of single edges, all
// walked by edge, and long rows, which push walks by row.
var fixedSegments = []struct {
	name string
	lens []int
}{
	{"starts on an empty row", []int{0, 2, 1, 3}},
	{"ends on an empty row", []int{2, 1, 3, 0}},
	{"a run of empty rows", []int{1, 0, 0, 0, 2, 1}},
	{"all empty", []int{0, 0, 0}},
	{"single edges", []int{1, 1, 1, 1, 1, 1}},
	{"long rows", []int{6, 9, 0, 5, 12}},
}

// fixedLayout lays out rows of the given lengths as the segment [lo, hi)
// of a larger layout: a row of two edges before it and, after it, an
// empty row and one of three edges, which the segment must not touch.
// Keys and columns are drawn as segLayout draws them; with dense set the
// rows have no IDs and the segment starts at row leafBase, so its keys
// lie in the leaf.
func fixedLayout(rng *gen.RNG, lens []int, keyed, dense, weighted bool) (rs *sg.Rows, lo, hi int) {
	key, col := segDraws(rng, keyed)
	lo = 1
	if dense {
		lo = leafBase
	}
	all := append(append(make([]int, lo), lens...), 0, 3)
	all[lo-1] = 2
	rs = &sg.Rows{Idx: make([]int64, len(all)+1)}
	if !dense {
		rs.IDs = make([]graph.Vertex, len(all))
	}
	for r, n := range all {
		if rs.IDs != nil {
			rs.IDs[r] = key()
		}
		appendRow(rng, rs, r, n, keyed, col)
	}
	if weighted {
		drawWeights(rng, rs)
	}
	return rs, lo, lo + len(lens)
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
// per-edge definition over random layouts and segments (segLayout) and
// the fixed segments (fixedLayout), with and without IDs and weights,
// under the full, an empty and a sparse frontier leaf. PushRows of PR,
// SpMV and BP must leave the kernel's array bit-equal to
// sg.PushRowsPerEdge and report its active rows and edges, every edge
// passing Cond and updating; both loop shapes must be taken. Each
// kernel's state carries over from segment to segment, so later segments
// run on state the earlier ones wrote.
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
	// The fixed segments draw from an RNG of their own, so the random cases
	// are the ones drawn before they existed.
	leaves, fixedRNG := segLeaves(rng), gen.NewRNG(46)
	shapes := map[bool]int{} // segments by sg.ShortRows
	for _, lname := range slices.Sorted(maps.Keys(leaves)) {
		active := leaves[lname]
		for _, weighted := range []bool{false, true} {
			for _, name := range slices.Sorted(maps.Keys(pushes)) {
				segK, edgeK, segDst, edgeDst := pushes[name]()
				push := func(what string, rs *sg.Rows, lo, hi int) int64 {
					shapes[sg.ShortRows(rs, lo, hi)]++
					gotRows, gotEdges := segK.PushRows(rs, lo, hi, active, leafBase)
					wantRows, wantEdges, condChecks, updates := sg.PushRowsPerEdge(edgeK, rs, lo, hi, active, leafBase, nil, 0)
					if condChecks != wantEdges || updates != wantEdges {
						t.Fatalf("%s: %d edges, %d cond checks, %d updates: a segment form's Cond and Update are always true", name, wantEdges, condChecks, updates)
					}
					if gotRows != wantRows || gotEdges != wantEdges || !sameBits(segDst, edgeDst) {
						t.Fatalf("%s leaf=%s weighted=%v %s (rows [%d, %d), IDs %v): PushRows %d rows %d edges, per-edge %d %d, data equal %v",
							name, lname, weighted, what, lo, hi, rs.IDs != nil, gotRows, gotEdges, wantRows, wantEdges, sameBits(segDst, edgeDst))
					}
					return gotRows
				}
				var pushed int64
				for trial := 0; trial < 300; trial++ {
					rs, lo, hi := segLayout(rng, true, trial%3 == 0, weighted)
					pushed += push(fmt.Sprintf("trial %d", trial), rs, lo, hi)
				}
				if (pushed == 0) != (lname == "empty") {
					t.Errorf("%s leaf=%s weighted=%v: %d rows pushed", name, lname, weighted, pushed)
				}
				for _, dense := range []bool{false, true} {
					for _, fs := range fixedSegments {
						rs, lo, hi := fixedLayout(fixedRNG, fs.lens, true, dense, weighted)
						push(fs.name, rs, lo, hi)
					}
				}
			}
		}
	}
	if shapes[true] == 0 || shapes[false] == 0 {
		t.Errorf("segments walked by edge %d, by row %d: both loop shapes must be taken", shapes[true], shapes[false])
	}
}

// TestPullRowMatchesUpdateLoop holds the pull segment forms to their
// per-edge definition over random layouts and segments (segLayout) and
// the fixed segments (fixedLayout), with and without IDs and weights,
// under the full, an empty and a sparse frontier leaf. PullRows of BFS,
// CC and SSSP must leave the kernel's array bit-equal to
// sg.PullRowsPerEdge and report its edges and its hits, in order (BFS by
// row, CC and SSSP by edge). Each kernel's state carries over from segment
// to segment, so later segments run on state the earlier ones wrote.
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
	// The fixed segments draw from an RNG of their own, so the random cases
	// are the ones drawn before they existed.
	leaves, fixedRNG := segLeaves(rng), gen.NewRNG(47)
	for _, lname := range slices.Sorted(maps.Keys(leaves)) {
		active := leaves[lname]
		for _, weighted := range []bool{false, true} {
			for _, name := range slices.Sorted(maps.Keys(pulls)) {
				segK, edgeK, equal := pulls[name]()
				pull := func(what string, rs *sg.Rows, lo, hi int) int {
					prefix := []int32{-1} // what the caller passed in stays in front
					gotEdges, gotHits := segK.PullRows(rs, lo, hi, active, leafBase, slices.Clone(prefix))
					wantEdges, wantHits := sg.PullRowsPerEdge(edgeK, rs, lo, hi, active, leafBase, slices.Clone(prefix))
					if gotEdges != wantEdges || !slices.Equal(gotHits, wantHits) || !equal() {
						t.Fatalf("%s leaf=%s weighted=%v %s (rows [%d, %d), IDs %v): PullRows %d edges hits %v, per-edge %d %v, data equal %v",
							name, lname, weighted, what, lo, hi, rs.IDs != nil, gotEdges, gotHits, wantEdges, wantHits, equal())
					}
					return len(gotHits) - len(prefix)
				}
				var hits int
				for trial := 0; trial < 300; trial++ {
					rs, lo, hi := segLayout(rng, false, trial%3 == 0, weighted)
					hits += pull(fmt.Sprintf("trial %d", trial), rs, lo, hi)
				}
				if (hits == 0) != (lname == "empty") {
					t.Errorf("%s leaf=%s weighted=%v: %d rows updated", name, lname, weighted, hits)
				}
				for _, dense := range []bool{false, true} {
					for _, fs := range fixedSegments {
						rs, lo, hi := fixedLayout(fixedRNG, fs.lens, false, dense, weighted)
						pull(fs.name, rs, lo, hi)
					}
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

// TestSparseRowMatchesUpdateLoop holds the sparse push row forms to their
// per-edge definition over random rows: a source anywhere, up to eight
// columns with repeats and self-loops, with and without weights (a quarter
// of them 0). PushRow of BFS and SSSP must leave the kernel's data
// bit-equal to sg.PushRowPerEdge, report its cond checks and append its
// targets, in order, behind what the queue held. Each kernel's state
// carries over from row to row, so later rows run on state the earlier
// ones wrote.
func TestSparseRowMatchesUpdateLoop(t *testing.T) {
	rng := gen.NewRNG(45)
	type rowKernel interface {
		sg.EdgeKernel
		sg.SparseRowKernel
	}
	// Each constructor returns two kernels over equal copies of one random
	// state and a bit-level comparison of the two copies.
	rows := map[string]func() (row, edge rowKernel, equal func() bool){
		"bfs": func() (rowKernel, rowKernel, func() bool) {
			a := make([]uint32, segTestN)
			for v := range a {
				a[v] = unvisited
				if rng.Intn(2) == 0 { // half are claimed already
					a[v] = uint32(rng.Intn(segTestN))
				}
			}
			b := slices.Clone(a)
			return &bfsKernel{parent: a}, &bfsKernel{parent: b}, func() bool { return slices.Equal(a, b) }
		},
		"sssp": func() (rowKernel, rowKernel, func() bool) {
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
	for _, weighted := range []bool{false, true} {
		for _, name := range slices.Sorted(maps.Keys(rows)) {
			rowK, edgeK, equal := rows[name]()
			var appended int
			for trial := 0; trial < 500; trial++ {
				s := graph.Vertex(rng.Intn(segTestN))
				cols := make([]graph.Vertex, rng.Intn(9))
				for j := range cols {
					switch c := rng.Intn(6); {
					case c == 0:
						cols[j] = s // a self-loop
					case c == 1 && j > 0:
						cols[j] = cols[j-1] // a repeated column
					default:
						cols[j] = graph.Vertex(rng.Intn(segTestN))
					}
				}
				var wts []float32
				if weighted {
					wts = make([]float32, len(cols))
					for j := range wts {
						if rng.Intn(4) > 0 {
							wts[j] = float32(rng.Float64() * 10)
						}
					}
				}
				prefix := []graph.Vertex{7} // what the queue held stays in front
				gotChecks, got := rowK.PushRow(s, cols, wts, slices.Clone(prefix))
				wantChecks, want := sg.PushRowPerEdge(edgeK, s, cols, wts, slices.Clone(prefix))
				if gotChecks != wantChecks || !slices.Equal(got, want) || !equal() {
					t.Fatalf("%s weighted=%v trial %d (source %d, columns %v): PushRow %d checks appended %v, per-edge %d %v, data equal %v",
						name, weighted, trial, s, cols, gotChecks, got, wantChecks, want, equal())
				}
				appended += len(got) - len(prefix)
			}
			if appended == 0 {
				t.Errorf("%s weighted=%v: no row updated a target", name, weighted)
			}
		}
	}
}

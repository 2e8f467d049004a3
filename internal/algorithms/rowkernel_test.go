package algorithms

import (
	"math"
	"slices"
	"testing"

	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/sg"
)

// TestPushRowMatchesUpdateLoop holds the three row kernels to the
// sg.RowKernel contract: over random rows (repeated targets included),
// with and without weights, PushRow leaves the target array bit-equal to
// the Update loop, and Cond is true everywhere.
func TestPushRowMatchesUpdateLoop(t *testing.T) {
	type rowKernel interface {
		sg.EdgeKernel
		sg.RowKernel
	}
	const n = 96
	// Each constructor returns the kernel and the array it writes.
	kernels := map[string]func(src, dst, scale []float64) (rowKernel, []float64){
		"pr": func(src, dst, scale []float64) (rowKernel, []float64) {
			return &prKernel{curr: src, next: dst, invOut: scale}, dst
		},
		"spmv": func(src, dst, _ []float64) (rowKernel, []float64) {
			return &spmvKernel{x: src, y: dst}, dst
		},
		"bp": func(src, dst, _ []float64) (rowKernel, []float64) {
			return &bpKernel{curr: src, acc: dst}, dst
		},
	}
	rng := gen.NewRNG(41)
	random := func() []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		return xs
	}
	for name, build := range kernels {
		for _, weighted := range []bool{false, true} {
			src, scale, init := random(), random(), random()
			rowK, rowDst := build(src, append([]float64(nil), init...), scale)
			edgeK, edgeDst := build(src, append([]float64(nil), init...), scale)
			for v := 0; v < n; v++ {
				if !rowK.Cond(graph.Vertex(v)) {
					t.Fatalf("%s: Cond(%d) is false; a row kernel's Cond is constantly true", name, v)
				}
			}
			for row := 0; row < 200; row++ {
				s := graph.Vertex(rng.Intn(n))
				cols := make([]graph.Vertex, rng.Intn(24))
				var wts []float32
				if weighted {
					wts = make([]float32, len(cols))
				}
				for j := range cols {
					cols[j] = graph.Vertex(rng.Intn(n))
					if weighted && rng.Intn(8) > 0 { // an eighth keep the zero weight
						wts[j] = float32(rng.Float64() * 100)
					}
				}
				rowK.PushRow(s, cols, wts)
				for j, d := range cols {
					var w float32
					if weighted {
						w = wts[j]
					}
					if !edgeK.Update(s, d, w) {
						t.Fatalf("%s: update reported false; a row kernel's always reports true", name)
					}
				}
			}
			for v := range rowDst {
				if math.Float64bits(rowDst[v]) != math.Float64bits(edgeDst[v]) {
					t.Fatalf("%s weighted=%v: [%d] = %x by rows, %x by edges",
						name, weighted, v, rowDst[v], edgeDst[v])
				}
			}
		}
	}
}

// perEdgePull is the literal dense pull loop of the engines over one row.
func perEdgePull(k sg.EdgeKernel, t graph.Vertex, cols []graph.Vertex, wts []float32, active []uint64, base int) (scanned int, updated bool) {
	if !k.Cond(t) {
		return 0, false
	}
	for j, s := range cols {
		scanned++
		if i := int(s) - base; active != nil && active[i/64]>>(i%64)&1 == 0 {
			continue
		}
		var w float32
		if wts != nil {
			w = wts[j]
		}
		if k.Update(s, t, w) {
			updated = true
		}
		if !k.Cond(t) {
			break
		}
	}
	return scanned, updated
}

// TestPullRowMatchesUpdateLoop holds the three traversal kernels to the
// sg.PullRowKernel contract: over random rows — self-loops and repeated
// sources included, zero weights on weighted rows — under an empty, a
// sparse and the full (nil) frontier leaf, PullRow leaves the kernel's
// array bit-equal to the per-edge loop and reports the same scanned count
// and outcome. The leaf starts at vertex 32, so a kernel
// that forgets base reads the wrong bits.
func TestPullRowMatchesUpdateLoop(t *testing.T) {
	type pullKernel interface {
		sg.EdgeKernel
		sg.PullRowKernel
	}
	const (
		n    = 160
		base = 32 // the leaf covers vertices [base, base+span)
		span = 100
	)
	rng := gen.NewRNG(43)
	// Each constructor returns two kernels over equal copies of one random
	// state, and a bit-level comparison of the two copies.
	kernels := map[string]func() (row, edge pullKernel, equal func() bool){
		"bfs": func() (pullKernel, pullKernel, func() bool) {
			a := make([]uint32, n)
			for v := range a {
				a[v] = unvisited
				if rng.Intn(3) == 0 { // a third are claimed already
					a[v] = uint32(rng.Intn(n))
				}
			}
			b := append([]uint32(nil), a...)
			return &bfsKernel{parent: a}, &bfsKernel{parent: b}, func() bool { return slices.Equal(a, b) }
		},
		"cc": func() (pullKernel, pullKernel, func() bool) {
			a := make([]uint32, n)
			for v := range a {
				a[v] = uint32(rng.Intn(n))
			}
			b := append([]uint32(nil), a...)
			return &ccKernel{labels: a}, &ccKernel{labels: b}, func() bool { return slices.Equal(a, b) }
		},
		"sssp": func() (pullKernel, pullKernel, func() bool) {
			a := make([]float64, n)
			for v := range a {
				a[v] = rng.Float64() * 50
				if rng.Intn(4) == 0 {
					a[v] = infinity
				}
			}
			b := append([]float64(nil), a...)
			return &ssspKernel{dist: a}, &ssspKernel{dist: b}, func() bool {
				return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
			}
		},
	}
	leaves := map[string]func() []uint64{
		"full":  func() []uint64 { return nil },
		"empty": func() []uint64 { return make([]uint64, (span+63)/64) },
		"sparse": func() []uint64 {
			w := make([]uint64, (span+63)/64)
			for i := 0; i < span; i++ {
				if rng.Intn(3) == 0 {
					w[i/64] |= 1 << (i % 64)
				}
			}
			return w
		},
	}
	for name, build := range kernels {
		for lname, leaf := range leaves {
			for _, weighted := range []bool{false, true} {
				rowK, edgeK, equal := build()
				active := leaf()
				var updates int
				for row := 0; row < 400; row++ {
					target := graph.Vertex(rng.Intn(n))
					cols := make([]graph.Vertex, rng.Intn(12))
					var wts []float32
					if weighted {
						wts = make([]float32, len(cols))
					}
					for j := range cols {
						cols[j] = graph.Vertex(base + rng.Intn(span))
						if in := int(target) >= base && int(target) < base+span; in && rng.Intn(6) == 0 {
							cols[j] = target // self-loop
						}
						if weighted && rng.Intn(4) > 0 { // a quarter keep the zero weight
							wts[j] = float32(rng.Float64() * 10)
						}
					}
					gotN, gotUp := rowK.PullRow(target, cols, wts, active, base)
					wantN, wantUp := perEdgePull(edgeK, target, cols, wts, active, base)
					if gotN != wantN || gotUp != wantUp || !equal() {
						t.Fatalf("%s leaf=%s weighted=%v row %d (t=%d cols=%v): PullRow scanned %d updated %v, per-edge %d %v, data equal %v",
							name, lname, weighted, row, target, cols, gotN, gotUp, wantN, wantUp, equal())
					}
					if gotUp {
						updates++
					}
				}
				if (updates == 0) != (lname == "empty") {
					t.Errorf("%s leaf=%s weighted=%v: %d rows updated", name, lname, weighted, updates)
				}
			}
		}
	}

	// BFS's early exit, pinned: a claimed target scans nothing; an open one
	// scans up to and including the first active source and takes it.
	cols := []graph.Vertex{40, 41, 42, 43}
	active := make([]uint64, (span+63)/64)
	active[0] = 1<<(42-base) | 1<<(43-base)
	k := &bfsKernel{parent: []uint32{0: 7, 1: unvisited, 50: 0}}
	if scanned, updated := k.PullRow(0, cols, nil, active, base); scanned != 0 || updated || k.parent[0] != 7 {
		t.Errorf("claimed target scanned %d, updated %v, parent %d", scanned, updated, k.parent[0])
	}
	if scanned, updated := k.PullRow(1, cols, nil, active, base); scanned != 3 || !updated || k.parent[1] != 42 {
		t.Errorf("claim mid-row scanned %d, updated %v, parent %d; want 3, true, 42", scanned, updated, k.parent[1])
	}
}

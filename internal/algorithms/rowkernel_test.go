package algorithms

import (
	"math"
	"testing"

	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/sg"
)

// TestPushRowMatchesUpdateLoop holds the three row kernels to the
// sg.RowKernel contract: over random rows (repeated targets included),
// with and without weights, PushRow leaves the target array bit-equal to
// the Update loop when unshared and to the UpdateAtomic loop when shared,
// and Cond is true everywhere.
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
			for _, shared := range []bool{false, true} {
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
					rowK.PushRow(s, cols, wts, shared)
					for j, d := range cols {
						var w float32
						if weighted {
							w = wts[j]
						}
						update := edgeK.Update
						if shared {
							update = edgeK.UpdateAtomic
						}
						if !update(s, d, w) {
							t.Fatalf("%s: update reported false; a row kernel's always reports true", name)
						}
					}
				}
				for v := range rowDst {
					if math.Float64bits(rowDst[v]) != math.Float64bits(edgeDst[v]) {
						t.Fatalf("%s weighted=%v shared=%v: [%d] = %x by rows, %x by edges",
							name, weighted, shared, v, rowDst[v], edgeDst[v])
					}
				}
			}
		}
	}
}

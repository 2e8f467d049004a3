package algorithms

import (
	"fmt"
	"testing"

	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/sg"
)

// shapeLayout is a synthetic part of a Polymer layout: 1<<17 edges in rows
// of mean edges each (lengths uniform in [1, 2*mean-1], so no row is
// empty and a row's end is not a fixed stride), keyed by ascending
// vertices spread over n, columns drawn from all n vertices.
func shapeLayout(rng *gen.RNG, n, mean int) *sg.Rows {
	const edges = 1 << 17
	rows := edges / mean
	rs := &sg.Rows{IDs: make([]graph.Vertex, rows), Idx: make([]int64, rows+1)}
	for r := range rows {
		rs.IDs[r] = graph.Vertex(r * n / rows)
		for range 1 + rng.Intn(2*mean-1) {
			rs.Cols = append(rs.Cols, graph.Vertex(rng.Intn(n)))
		}
		rs.Idx[r+1] = int64(len(rs.Cols))
	}
	return rs
}

// BenchmarkSegmentShape times the two loop shapes of PageRank's push
// segment form (the full frontier) on rows of 1, 2, 4, 8 and 16 edges on
// average, walking the layout in segments of 128 rows, about a sweep chunk
// of serve-churn's push layout on the 8x10 machine. The row length where
// by-edge stops beating by-row is sg.ShortRowEdges.
func BenchmarkSegmentShape(b *testing.B) {
	const n, segment = 16000, 128
	rng := gen.NewRNG(5)
	ranks := make([]float64, n)
	for v := range ranks {
		ranks[v] = rng.Float64()
	}
	for _, mean := range []int{1, 2, 4, 8, 16} {
		rs := shapeLayout(rng, n, mean)
		pr := &prKernel{curr: ranks, next: make([]float64, n), invOut: ranks}
		shapes := []struct {
			name string
			walk func(lo, hi int)
		}{
			{"pr-push/by-row", func(lo, hi int) { pr.pushByRow(rs, lo, hi, nil, 0) }},
			{"pr-push/by-edge", func(lo, hi int) { pr.pushByEdge(rs, lo, hi, nil, 0) }},
		}
		for _, sh := range shapes {
			b.Run(fmt.Sprintf("%s/rows=%d", sh.name, mean), func(b *testing.B) {
				for range b.N {
					for lo := 0; lo < rs.Len(); lo += segment {
						sh.walk(lo, min(lo+segment, rs.Len()))
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(rs.Cols)), "ns/edge")
			})
		}
	}
}

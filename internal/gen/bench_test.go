package gen

import "testing"

// BenchmarkRMAT generates engine-dense's input, RMAT(15,16,·): 2^19
// edges, 15 quadrant draws each.
func BenchmarkRMAT(b *testing.B) {
	b.ReportAllocs()
	var seed uint64
	for b.Loop() {
		RMAT(15, 16, seed)
		seed++
	}
}

func BenchmarkTwitterLike(b *testing.B) {
	for i := 0; i < b.N; i++ {
		TwitterLike(20000, uint64(i))
	}
}

func BenchmarkRoadGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		RoadGrid(120, 120, uint64(i))
	}
}

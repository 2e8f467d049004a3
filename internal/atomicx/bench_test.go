package atomicx

import "testing"

func BenchmarkAddFloat64(b *testing.B) {
	var x float64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			AddFloat64(&x, 1)
		}
	})
}

// Package atomicx holds the one lock-free numeric primitive left in the
// repository: atomic float64 accumulation (the paper's AtomicAdd in
// PageRank's edge function). No engine or kernel calls it — a phase runs
// on one goroutine (package par) and kernels use plain loads and stores —
// it is kept because the frozen benchmark/layers.go probes it as
// atomicx.add_float64_ns; delete the package when benchmark/ may change.
package atomicx

import (
	"math"
	"sync/atomic"
	"unsafe"
)

// AddFloat64 atomically adds v to *p. The uncontended attempt is kept
// small enough to inline into its caller, with the retry loop in the slow
// path.
func AddFloat64(p *float64, v float64) {
	u := (*uint64)(unsafe.Pointer(p))
	old := atomic.LoadUint64(u)
	if atomic.CompareAndSwapUint64(u, old, math.Float64bits(math.Float64frombits(old)+v)) {
		return
	}
	addFloat64Slow(u, v)
}

func addFloat64Slow(u *uint64, v float64) {
	for {
		old := atomic.LoadUint64(u)
		next := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(u, old, next) {
			return
		}
	}
}

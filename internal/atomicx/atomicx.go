// Package atomicx supplies the lock-free numeric primitives graph kernels
// need beyond sync/atomic: atomic float64 accumulation (the paper's
// AtomicAdd in PageRank's edge function) and atomic minimum for distances
// and labels.
package atomicx

import (
	"math"
	"sync/atomic"
	"unsafe"
)

// AddFloat64 atomically adds v to *p. The uncontended attempt is kept
// small enough to inline into its caller, with the retry loop in the slow
// path. That caller is a kernel's UpdateAtomic or shared row loop
// (sg.RowKernel), not an engine's edge loop: engines reach UpdateAtomic by
// an indirect call per edge, so only the row loops get the CAS inline
// next to the edge iteration.
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

// LoadFloat64 atomically loads *p.
func LoadFloat64(p *float64) float64 {
	return math.Float64frombits(atomic.LoadUint64((*uint64)(unsafe.Pointer(p))))
}

// StoreFloat64 atomically stores v into *p.
func StoreFloat64(p *float64, v float64) {
	atomic.StoreUint64((*uint64)(unsafe.Pointer(p)), math.Float64bits(v))
}

// MulFloat64 atomically multiplies *p by v (belief-propagation message
// products).
func MulFloat64(p *float64, v float64) {
	u := (*uint64)(unsafe.Pointer(p))
	for {
		old := atomic.LoadUint64(u)
		next := math.Float64bits(math.Float64frombits(old) * v)
		if atomic.CompareAndSwapUint64(u, old, next) {
			return
		}
	}
}

// MinFloat64 atomically sets *p = min(*p, v); it returns true if the value
// decreased.
func MinFloat64(p *float64, v float64) bool {
	u := (*uint64)(unsafe.Pointer(p))
	for {
		old := atomic.LoadUint64(u)
		cur := math.Float64frombits(old)
		if v >= cur {
			return false
		}
		if atomic.CompareAndSwapUint64(u, old, math.Float64bits(v)) {
			return true
		}
	}
}

// MinUint32 atomically sets *p = min(*p, v); it returns true if the value
// decreased.
func MinUint32(p *uint32, v uint32) bool {
	for {
		old := atomic.LoadUint32(p)
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapUint32(p, old, v) {
			return true
		}
	}
}

// MinInt64 atomically sets *p = min(*p, v); it returns true if the value
// decreased.
func MinInt64(p *int64, v int64) bool {
	for {
		old := atomic.LoadInt64(p)
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapInt64(p, old, v) {
			return true
		}
	}
}

// CASUint32 is a convenience re-export of CompareAndSwapUint32, used by
// BFS-style "claim once" kernels.
func CASUint32(p *uint32, old, new uint32) bool {
	return atomic.CompareAndSwapUint32(p, old, new)
}

// OrUint64 atomically sets *p |= v and returns the bits that were newly
// set (v &^ old). Multi-source traversal kernels use the return value as
// the per-source claim: each bit transitions 0->1 exactly once across
// all racing updaters.
func OrUint64(p *uint64, v uint64) uint64 {
	for {
		old := atomic.LoadUint64(p)
		fresh := v &^ old
		if fresh == 0 {
			return 0
		}
		if atomic.CompareAndSwapUint64(p, old, old|v) {
			return fresh
		}
	}
}

// LoadUint64 is a convenience re-export of atomic.LoadUint64 for kernels
// that mix atomic claims with condition checks on the same word.
func LoadUint64(p *uint64) uint64 { return atomic.LoadUint64(p) }

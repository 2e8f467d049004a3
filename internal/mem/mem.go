// Package mem provides partitioned, placement-aware arrays for the
// simulated NUMA machine.
//
// An Array is a contiguous Go slice plus a placement descriptor recording
// which simulated memory node owns each index range. Engines use the
// descriptor both to schedule computation (co-locating threads with their
// partition) and to classify accesses when charging the numa.Epoch ledger.
// The three placements mirror the paper's Table 1:
//
//   - CoLocated: each partition's pages live on its owning node (Polymer's
//     allocation strategy — worker threads on node i allocate partition i);
//   - Interleaved: pages are striped across all nodes (what first-touch by
//     construction-stage threads degenerates to in NUMA-oblivious systems);
//   - Centralized: all pages live on node 0 (main-thread allocation of
//     short-term runtime state in existing systems).
package mem

import (
	"fmt"
	"strings"
	"unsafe"

	"polymer/internal/numa"
)

// Placement describes how an array's physical pages are distributed.
type Placement uint8

const (
	// CoLocated places each partition on its owning node.
	CoLocated Placement = iota
	// Interleaved stripes pages round-robin across all nodes.
	Interleaved
	// Centralized places everything on node 0.
	Centralized
)

// String names the placement as in the paper's Table 1.
func (p Placement) String() string {
	switch p {
	case CoLocated:
		return "co-located"
	case Interleaved:
		return "interleaved"
	default:
		return "centralized"
	}
}

// Placements lists the three policies in Table 1 order.
func Placements() []Placement {
	return []Placement{CoLocated, Interleaved, Centralized}
}

// ParsePlacement maps a wire/CLI spelling to a Placement. Accepted forms
// are the String() names plus common aliases ("colocated", "local",
// "central"); matching is case-insensitive.
func ParsePlacement(s string) (Placement, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "co-located", "colocated", "co_located", "local":
		return CoLocated, nil
	case "interleaved", "interleave":
		return Interleaved, nil
	case "centralized", "centralised", "central":
		return Centralized, nil
	}
	return CoLocated, fmt.Errorf("mem: unknown placement %q (want co-located, interleaved or centralized)", s)
}

// Array is a placement-aware array of T.
type Array[T any] struct {
	// Data is the backing storage; index it directly in hot loops.
	Data []T

	m         *numa.Machine
	place     Placement
	bounds    []int // len Nodes+1 when CoLocated; nil otherwise
	label     string
	elemBytes int64
	freed     bool
	tier      *TierClass // nil on untiered machines: all-DRAM fast path
}

// New allocates an n-element array with the given placement. For CoLocated
// placement, bounds must hold Nodes+1 monotonically non-decreasing offsets
// with bounds[0] == 0 and bounds[Nodes] == n (partition p owns
// [bounds[p], bounds[p+1])). For other placements bounds must be nil.
// The allocation is registered with the machine's tracker under label.
func New[T any](m *numa.Machine, label string, n int, place Placement, bounds []int) *Array[T] {
	if place == CoLocated {
		if len(bounds) != m.Nodes+1 {
			panic(fmt.Sprintf("mem: co-located array needs %d bounds, got %d", m.Nodes+1, len(bounds)))
		}
		if bounds[0] != 0 || bounds[m.Nodes] != n {
			panic("mem: bounds must cover [0, n)")
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] < bounds[i-1] {
				panic("mem: bounds must be non-decreasing")
			}
		}
	} else if bounds != nil {
		panic("mem: bounds are only valid for co-located placement")
	}
	var zero T
	a := &Array[T]{
		Data:      make([]T, n),
		m:         m,
		place:     place,
		bounds:    bounds,
		label:     label,
		elemBytes: int64(unsafe.Sizeof(zero)),
	}
	if err := m.Alloc().Grow(label, a.Bytes()); err != nil {
		// Simulated allocation failure (fault injection): surface it as a
		// panic so it propagates through construction code; the resilience
		// harness (fault.Catch) recovers it into an error.
		panic(err)
	}
	return a
}

// Len returns the element count.
func (a *Array[T]) Len() int { return len(a.Data) }

// Bytes returns the simulated footprint in bytes.
func (a *Array[T]) Bytes() int64 { return a.elemBytes * int64(len(a.Data)) }

// ElemBytes returns the element size in bytes.
func (a *Array[T]) ElemBytes() int { return int(a.elemBytes) }

// Placement returns the array's placement policy.
func (a *Array[T]) Placement() Placement { return a.place }

// Label returns the allocation label.
func (a *Array[T]) Label() string { return a.label }

// BindTier attaches a tier class to the array: subsequent charges split
// between DRAM and the slow tier by the class's residency. A nil class
// (untiered machine) leaves the all-DRAM fast path in place. It returns
// the array for chaining.
func (a *Array[T]) BindTier(c *TierClass) *Array[T] {
	a.tier = c
	return a
}

// Tier returns the bound tier class (nil when untiered).
func (a *Array[T]) Tier() *TierClass { return a.tier }

// GrowTierDemand adds the array's per-node footprint to its bound tier
// class's demand: partition bytes for co-located arrays, an even spread
// for interleaved ones, node 0 for centralized. No-op when untiered.
func (a *Array[T]) GrowTierDemand() *Array[T] {
	switch {
	case a.tier == nil:
	case a.place == CoLocated:
		for p := 0; p < a.m.Nodes; p++ {
			a.tier.GrowDemand(p, a.elemBytes*int64(a.bounds[p+1]-a.bounds[p]))
		}
	case a.place == Centralized:
		a.tier.GrowDemand(0, a.Bytes())
	default:
		a.tier.GrowDemandEven(a.Bytes())
	}
	return a
}

// NodeOf returns the simulated node owning index i. Out-of-range indices
// clamp to the nearest partition, so speculative probes near array edges
// stay charge-safe.
func (a *Array[T]) NodeOf(i int) int {
	if i < 0 {
		i = 0
	} else if i >= len(a.Data) {
		i = len(a.Data) - 1
		if i < 0 {
			return 0
		}
	}
	switch a.place {
	case Centralized:
		return 0
	case Interleaved:
		// Page-granular striping; 4 KiB pages.
		page := int64(i) * a.elemBytes >> 12
		return int(page % int64(a.m.Nodes))
	default:
		// Binary search over partition bounds.
		lo, hi := 0, a.m.Nodes
		for lo < hi {
			mid := (lo + hi) / 2
			if a.bounds[mid+1] <= i {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
}

// Part returns the slice of Data owned by node p (only valid for
// CoLocated arrays).
func (a *Array[T]) Part(p int) []T {
	if a.place != CoLocated {
		panic("mem: Part requires co-located placement")
	}
	return a.Data[a.bounds[p]:a.bounds[p+1]]
}

// PartRange returns the index range owned by node p.
func (a *Array[T]) PartRange(p int) (lo, hi int) {
	if a.place != CoLocated {
		panic("mem: PartRange requires co-located placement")
	}
	return a.bounds[p], a.bounds[p+1]
}

// ChargeSeq records a sequential scan of count elements in partition-order
// starting conceptually at index lo by thread th. For co-located arrays the
// traffic is charged against the owning node(s); for interleaved and
// centralized arrays against the corresponding policy. The range is
// clamped to [0, Len()), so out-of-range descriptors charge only the
// overlapping part. On a tiered array the co-located path splits each
// partition's segment at its DRAM-resident boundary — the prefix charges
// DRAM, the tail the slow tier — so a range straddling the tier boundary
// charges each side exactly once.
func (a *Array[T]) ChargeSeq(e *numa.Epoch, th int, op numa.Op, lo, count int64) {
	if n := int64(len(a.Data)); true {
		if lo < 0 {
			count += lo
			lo = 0
		}
		if lo > n {
			lo = n
		}
		if count > n-lo {
			count = n - lo
		}
	}
	if count <= 0 {
		return
	}
	switch a.place {
	case Interleaved:
		a.tier.AccessInterleaved(e, th, numa.Seq, op, count, int(a.elemBytes), 0)
	case Centralized:
		a.tier.Access(e, th, numa.Seq, op, 0, count, int(a.elemBytes), 0)
	default:
		// Split [lo, lo+count) across partition bounds.
		if a.tier != nil {
			a.tier.record(e, count*a.elemBytes)
		}
		rem := count
		i := int(lo)
		for rem > 0 {
			p := a.NodeOf(i)
			end := a.bounds[p+1]
			take := int64(end - i)
			if take > rem {
				take = rem
			}
			// DRAM-resident prefix of the partition, slow-tier tail.
			b0, b1 := a.bounds[p], end
			boundary := b0 + int(a.tier.DRAMFrac(p)*float64(b1-b0))
			dram := int64(boundary - i)
			if dram < 0 {
				dram = 0
			} else if dram > take {
				dram = take
			}
			e.Access(th, numa.Seq, op, p, dram, int(a.elemBytes), 0)
			e.AccessSlow(th, numa.Seq, op, p, take-dram, int(a.elemBytes), 0)
			i += int(take)
			rem -= take
		}
	}
}

// ChargeRandLocal records count random accesses by thread th confined to
// node p's partition (e.g. Polymer's local random writes). ws defaults to
// the partition's byte size. An out-of-range p clamps to the nearest
// node.
func (a *Array[T]) ChargeRandLocal(e *numa.Epoch, th int, op numa.Op, p int, count int64) {
	if count <= 0 {
		return
	}
	if p < 0 {
		p = 0
	} else if p >= a.m.Nodes {
		p = a.m.Nodes - 1
	}
	ws := a.Bytes()
	if a.place == CoLocated {
		ws = a.elemBytes * int64(a.bounds[p+1]-a.bounds[p])
	}
	a.tier.Access(e, th, numa.Rand, op, p, count, int(a.elemBytes), ws)
}

// ChargeRandGlobal records count random accesses by thread th spread over
// the whole array (e.g. Ligra's push-mode scattered writes).
func (a *Array[T]) ChargeRandGlobal(e *numa.Epoch, th int, op numa.Op, count int64) {
	if count <= 0 {
		return
	}
	switch a.place {
	case Centralized:
		a.tier.Access(e, th, numa.Rand, op, 0, count, int(a.elemBytes), a.Bytes())
	default:
		// Both interleaved pages and co-located partitions look uniformly
		// spread to a globally-random access stream.
		a.tier.AccessInterleaved(e, th, numa.Rand, op, count, int(a.elemBytes), a.Bytes())
	}
}

// Free releases the simulated allocation. Double-free is a no-op.
func (a *Array[T]) Free() {
	if a.freed {
		return
	}
	a.freed = true
	a.m.Alloc().Release(a.label, a.Bytes())
}

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
	"slices"
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
// The allocation is registered with the machine's tracker under label. The
// host storage comes from Spare.
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
		Data:      Spare[T](n),
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

// spares is the spare list of host storage, by element type and length:
// Recycle (and Retire through it) puts a slice there, and Spare (and New
// through it) takes one out before it makes a new one.
var spares numa.Spares[spareKey]

// spareKey keys spares: elem is a nil *T, so that each element type keys
// apart without boxing anything on the heap, and n is the length.
type spareKey struct {
	elem any
	n    int
}

func keyOf[T any](n int) spareKey { return spareKey{(*T)(nil), n} }

// Spare returns n zeroed elements: a recycled slice of T's of length n,
// cleared, or a new slice.
func Spare[T any](n int) []T {
	if s, ok := spares.Get(keyOf[T](n)).(*[]T); ok {
		clear(*s)
		return *s
	}
	return make([]T, n)
}

// Len returns the element count.
func (a *Array[T]) Len() int { return len(a.Data) }

// Bytes returns the simulated footprint in bytes.
func (a *Array[T]) Bytes() int64 { return a.elemBytes * int64(len(a.Data)) }

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
	a.addTierDemand(1)
	return a
}

// addTierDemand adds sign times the array's per-node footprint to its tier
// class's demand. Integer division truncates toward zero, so the even
// spread of -b is exactly the negation of b's.
func (a *Array[T]) addTierDemand(sign int64) {
	switch {
	case a.tier == nil:
	case a.place == CoLocated:
		for p := 0; p < a.m.Nodes; p++ {
			a.tier.GrowDemand(p, sign*a.elemBytes*int64(a.bounds[p+1]-a.bounds[p]))
		}
	case a.place == Centralized:
		a.tier.GrowDemand(0, sign*a.Bytes())
	default:
		a.tier.GrowDemandEven(sign * a.Bytes())
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

// Retire is Free, then hands the array's host storage to the spare list
// for the next New of its element type and length. Nothing may read or
// write the array afterwards: its Data is nil.
func (a *Array[T]) Retire() {
	a.Free()
	Recycle(a.Data)
	a.Data = nil
}

// Recycle hands s to the spare list for the next Spare (or New) of its
// element type and length. Only s's last holder may recycle it: nothing
// may read or write s afterwards. An empty s is dropped.
func Recycle[T any](s []T) {
	if len(s) > 0 {
		spares.Put(keyOf[T](len(s)), &s)
	}
}

// Release hands the array back to whoever allocated it: Free, and exactly
// what GrowTierDemand added taken back, so the tier class's demand keeps
// mirroring the tracker. The host storage stays, for Reuse. A released or
// freed array is not released again.
func (a *Array[T]) Release() {
	if a.freed {
		return
	}
	a.Free()
	a.addTierDemand(-1)
}

// Reusable reports whether a is released and would serve a New of label,
// place and bounds on its machine.
func (a *Array[T]) Reusable(label string, place Placement, bounds []int) bool {
	return a.freed && a.label == label && a.place == place && slices.Equal(a.bounds, bounds)
}

// Reuse takes a released array back into service, as New would hand out a
// fresh one: it records the same Grow under the same label and bytes, then
// zeroes the data and grows the tier demand again. A failed Grow (fault
// injection) records nothing and leaves the array released.
func (a *Array[T]) Reuse() error {
	if err := a.m.Alloc().Grow(a.label, a.Bytes()); err != nil {
		return err
	}
	a.freed = false
	clear(a.Data)
	a.GrowTierDemand()
	return nil
}

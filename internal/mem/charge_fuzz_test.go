package mem

import (
	"math"
	"testing"

	"polymer/internal/numa"
)

// Satellite: the charge helpers are called with engine-computed
// descriptors; a bad descriptor (speculative range past the end, empty
// array, zero-byte element type) must never panic or corrupt the
// ledger — it charges the overlapping part, or nothing.

func chargeAll[T any](t *testing.T, m *numa.Machine, a *Array[T], lo, count int64, p int) {
	t.Helper()
	ep := m.NewEpoch()
	a.ChargeSeq(ep, 0, numa.Load, lo, count)
	_ = a.NodeOf(int(lo))
	_ = a.NodeOf(int(lo + count))
	if tm := ep.Time(); math.IsNaN(tm) || tm < 0 || math.IsInf(tm, 0) {
		t.Fatalf("corrupt clock %v after lo=%d count=%d p=%d", tm, lo, count, p)
	}
	var tr numa.TrafficMatrix
	ep.Traffic(&tr)
	if tot := tr.Total(); math.IsNaN(tot) || tot < 0 {
		t.Fatalf("corrupt traffic %v", tot)
	}
}

func FuzzArrayChargeBounds(f *testing.F) {
	f.Add(int64(0), int64(100), 100, uint8(0), int64(0), 0)
	f.Add(int64(-5), int64(10), 8, uint8(1), int64(1<<10), 1)
	f.Add(int64(90), int64(100), 100, uint8(2), int64(64), -3)
	f.Add(int64(1<<40), int64(1<<40), 0, uint8(0), int64(1), 99)
	f.Add(int64(-1<<40), int64(-1), 1, uint8(1), int64(0), 4)
	f.Add(int64(3), int64(0), 17, uint8(2), int64(256), 2)
	f.Fuzz(func(t *testing.T, lo, count int64, n int, placeRaw uint8, dramPerNode int64, p int) {
		if n < 0 || n > 1<<16 {
			return
		}
		m := numa.NewMachine(numa.IntelXeon80(), 4, 2)
		if dramPerNode > 0 {
			if err := m.SetTierConfig(numa.TierConfig{DRAMPerNode: dramPerNode, Policy: numa.TierHot, PromoteEvery: 1}); err != nil {
				t.Fatal(err)
			}
		}
		place := Placement(placeRaw % 3)
		var bounds []int
		if place == CoLocated {
			// Uneven split, including possibly-empty partitions.
			bounds = []int{0, n / 5, n / 5, n / 2, n}
		}
		tp := NewTierPlan(m)
		cls := tp.AddClass(ClassSpec{Label: "fuzz", BytesPerNode: evenBytes(4, int64(n)*8/4+1)})

		a := New[int64](m, "w", n, place, bounds).BindTier(cls)
		chargeAll(t, m, a, lo, count, p)

		// Zero-byte element type: all descriptors are weightless but must
		// still be safe.
		z := New[struct{}](m, "z", n, place, bounds).BindTier(cls)
		chargeAll(t, m, z, lo, count, p)

		// Empty array: every range clamps to nothing.
		var eb []int
		if place == CoLocated {
			eb = []int{0, 0, 0, 0, 0}
		}
		e := New[int64](m, "e", 0, place, eb).BindTier(cls)
		chargeAll(t, m, e, lo, count, p)
	})
}

// Tier-boundary-straddling ranges: a sequential scan across the
// DRAM/slow boundary charges each side exactly once, and the split is
// exact in bytes.
func TestChargeSeqTierBoundarySplit(t *testing.T) {
	m := numa.NewMachine(numa.IntelXeon80(), 4, 2)
	// DRAM covers exactly half of each node's partition of the array.
	const n = 4000
	const elem = 8
	perNode := int64(n / 4 * elem)
	if err := m.SetTierConfig(numa.TierConfig{DRAMPerNode: perNode / 2, Policy: numa.TierHot}); err != nil {
		t.Fatal(err)
	}
	tp := NewTierPlan(m)
	cls := tp.AddClass(ClassSpec{Label: "state", BytesPerNode: evenBytes(4, perNode)})
	bounds := []int{0, 1000, 2000, 3000, 4000}
	a := New[int64](m, "s", n, CoLocated, bounds).BindTier(cls)

	ep := m.NewEpoch()
	// Scan node 0's partition entirely: 500 elements DRAM, 500 slow.
	a.ChargeSeq(ep, 0, numa.Load, 0, 1000)
	var tm numa.TrafficMatrix
	ep.Traffic(&tm)
	levels := m.Topo.MaxLevel() + 1
	if got := tm.At(0, 0, numa.Seq); got != 500*elem {
		t.Fatalf("DRAM side = %v bytes, want %v", got, 500*elem)
	}
	if got := tm.At(0, levels+0, numa.Seq); got != 500*elem {
		t.Fatalf("slow side = %v bytes, want %v", got, 500*elem)
	}

	// A range straddling the boundary inside one partition splits at it.
	ep2 := m.NewEpoch()
	a.ChargeSeq(ep2, 0, numa.Load, 400, 200) // boundary at 500
	ep2.Traffic(&tm)
	if got := tm.At(0, 0, numa.Seq); got != 100*elem {
		t.Fatalf("straddle DRAM side = %v bytes, want %v", got, 100*elem)
	}
	if got := tm.At(0, levels+0, numa.Seq); got != 100*elem {
		t.Fatalf("straddle slow side = %v bytes, want %v", got, 100*elem)
	}

	// Entirely-resident and entirely-spilled ranges stay one-sided.
	ep3 := m.NewEpoch()
	a.ChargeSeq(ep3, 0, numa.Load, 0, 500)
	a.ChargeSeq(ep3, 0, numa.Load, 500, 500)
	ep3.Traffic(&tm)
	if got := tm.At(0, 0, numa.Seq); got != 500*elem {
		t.Fatalf("resident range DRAM = %v", got)
	}
	if got := tm.At(0, levels+0, numa.Seq); got != 500*elem {
		t.Fatalf("spilled range slow = %v", got)
	}
}

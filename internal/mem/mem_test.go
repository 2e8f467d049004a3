package mem

import (
	"reflect"
	"testing"

	"polymer/internal/numa"
)

func testMachine() *numa.Machine {
	return numa.NewMachine(numa.IntelXeon80(), 4, 2)
}

func TestNewRegistersAllocation(t *testing.T) {
	m := testMachine()
	a := New[float64](m, "data", 1000, Interleaved, nil)
	if got := m.Alloc().Label("data"); got != 8000 {
		t.Fatalf("tracked %d bytes, want 8000", got)
	}
	a.Free()
	if got := m.Alloc().Label("data"); got != 0 {
		t.Fatalf("after free: %d bytes", got)
	}
	a.Free() // double free is a no-op
	if got := m.Alloc().Current(); got != 0 {
		t.Fatalf("double free corrupted tracker: %d", got)
	}
}

func TestNewPanicsOnBadBounds(t *testing.T) {
	m := testMachine()
	for _, bounds := range [][]int{
		nil,                  // missing bounds for co-located
		{0, 10, 20, 30},      // too few
		{1, 10, 20, 30, 100}, // doesn't start at 0
		{0, 10, 20, 30, 99},  // doesn't end at n
		{0, 30, 20, 40, 100}, // decreasing
	} {
		func() {
			defer func() { _ = recover() }()
			New[int](m, "bad", 100, CoLocated, bounds)
			t.Fatalf("bounds %v should panic", bounds)
		}()
	}
	func() {
		defer func() { _ = recover() }()
		New[int](m, "bad", 100, Interleaved, []int{0, 100})
		t.Fatal("bounds with interleaved placement should panic")
	}()
}

func TestPlacementString(t *testing.T) {
	if CoLocated.String() != "co-located" || Interleaved.String() != "interleaved" || Centralized.String() != "centralized" {
		t.Fatal("Placement.String mismatch")
	}
}

// TestReleaseReuse: a released array leaves the tracker and its tier class
// exactly as they stood before it was allocated, for every placement (an
// interleaved array of 1,001 bytes spreads unevenly over four nodes), and
// Reuse takes it back into service zeroed, under the same label and bytes
// and with the same demand. A failed Grow leaves it released and the
// tracker untouched.
func TestReleaseReuse(t *testing.T) {
	m := tieredMachine(t, 4000, numa.TierHot, 0)
	tp := NewTierPlan(m)
	cls := tp.AddClass(ClassSpec{Label: "state", BytesPerNode: make([]int64, m.Nodes)})
	bounds := map[Placement][]int{CoLocated: {0, 100, 300, 600, 1001}}
	for _, place := range Placements() {
		demand, classes := tp.Demand(), tp.Classes()
		a := New[uint8](m, "x", 1001, place, bounds[place]).BindTier(cls).GrowTierDemand()
		grown := tp.Demand()
		a.Data[7] = 3
		a.Release()
		if m.Alloc().Current() != 0 || tp.Demand() != demand || !reflect.DeepEqual(tp.Classes(), classes) {
			t.Fatalf("%s: released array left %d tracked bytes and demand %d (was %d)", place, m.Alloc().Current(), tp.Demand(), demand)
		}
		if !a.Reusable("x", place, bounds[place]) || a.Reusable("y", place, bounds[place]) {
			t.Fatalf("%s: Reusable wrong for the array's own shape or another label", place)
		}
		m.Alloc().FailNext("x")
		if err := a.Reuse(); err == nil || m.Alloc().Current() != 0 || !a.Reusable("x", place, bounds[place]) {
			t.Fatalf("%s: failed Reuse: err %v, %d tracked bytes", place, err, m.Alloc().Current())
		}
		if err := a.Reuse(); err != nil {
			t.Fatal(err)
		}
		if m.Alloc().Label("x") != 1001 || a.Data[7] != 0 || tp.Demand() != grown || a.Reusable("x", place, bounds[place]) {
			t.Fatalf("%s: reused array tracks %d bytes, data[7] %v, demand %d (%d when new)", place, m.Alloc().Label("x"), a.Data[7], tp.Demand(), grown)
		}
		a.Release()
	}
}

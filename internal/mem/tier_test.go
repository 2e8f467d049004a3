package mem

import (
	"math"
	"reflect"
	"testing"

	"polymer/internal/numa"
)

func tieredMachine(t testing.TB, dramPerNode int64, pol numa.TierPolicy, every int) *numa.Machine {
	m := numa.NewMachine(numa.IntelXeon80(), 4, 2)
	if err := m.SetTierConfig(numa.TierConfig{DRAMPerNode: dramPerNode, Policy: pol, PromoteEvery: every}); err != nil {
		t.Fatal(err)
	}
	return m
}

func evenBytes(nodes int, per int64) []int64 {
	out := make([]int64, nodes)
	for i := range out {
		out[i] = per
	}
	return out
}

// Nil plan and nil class are the untiered fast path: every wrapper must
// charge bit-identically to the direct epoch call.
func TestNilTierClassPassThrough(t *testing.T) {
	m := numa.NewMachine(numa.IntelXeon80(), 4, 2)
	tp := NewTierPlan(m)
	if tp != nil {
		t.Fatal("untiered machine should yield a nil plan")
	}
	c := tp.AddClass(ClassSpec{Label: "x", BytesPerNode: evenBytes(4, 1)})
	if c != nil {
		t.Fatal("nil plan should yield a nil class")
	}

	direct, wrapped := m.NewEpoch(), m.NewEpoch()
	direct.Access(0, numa.Rand, numa.Store, 2, 1000, 8, 1<<24)
	direct.AccessInterleaved(1, numa.Seq, numa.Load, 500, 4, 0)
	direct.LatencyBound(2, numa.Store, 3, 77)
	c.Access(wrapped, 0, numa.Rand, numa.Store, 2, 1000, 8, 1<<24)
	c.AccessInterleaved(wrapped, 1, numa.Seq, numa.Load, 500, 4, 0)
	c.LatencyBound(wrapped, 2, numa.Store, 3, 77)
	var a, b numa.TrafficMatrix
	direct.Traffic(&a)
	wrapped.Traffic(&b)
	if !reflect.DeepEqual(a, b) || direct.Time() != wrapped.Time() {
		t.Fatal("nil tier class diverged from direct epoch charges")
	}
}

// Full-DRAM tiered charges must also be bit-identical to untiered ones:
// the resident fraction is exactly 1 and the slow split exactly zero.
func TestFullDRAMBitIdentical(t *testing.T) {
	flat := numa.NewMachine(numa.IntelXeon80(), 4, 2)
	tiered := tieredMachine(t, 1<<40, numa.TierHot, 4)
	tp := NewTierPlan(tiered)
	c := tp.AddClass(ClassSpec{Label: "state", BytesPerNode: evenBytes(4, 1<<20),
		HotMass: DegreeHotMass(100, func(i int) int64 { return int64(100 - i) })})

	e1, e2 := flat.NewEpoch(), tiered.NewEpoch()
	for th := 0; th < 8; th++ {
		e1.Access(th, numa.Rand, numa.Load, th%4, 10000, 8, 1<<22)
		e1.AccessInterleaved(th, numa.Seq, numa.Store, 2500, 4, 0)
		e1.LatencyBound(th, numa.Load, (th+1)%4, 31)
		c.Access(e2, th, numa.Rand, numa.Load, th%4, 10000, 8, 1<<22)
		c.AccessInterleaved(e2, th, numa.Seq, numa.Store, 2500, 4, 0)
		c.LatencyBound(e2, th, numa.Load, (th+1)%4, 31)
	}
	if g, w := e2.Time(), e1.Time(); g != w {
		t.Fatalf("full-DRAM tiered clock %v != untiered %v", g, w)
	}
	s1, s2 := e1.Stats(), e2.Stats()
	if s2.SlowCount != 0 {
		t.Fatalf("full-DRAM run charged %d slow accesses", s2.SlowCount)
	}
	s2.SlowRate = 0 // only field allowed to differ structurally
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
}

func TestHotFillOrderAndInterleaveBaseline(t *testing.T) {
	// DRAM holds half the total demand. Hot policy: pinned frontier
	// fully resident, then priority 0, the rest spills. Interleave:
	// everything at the uniform ratio.
	const per = 1 << 20
	hot := NewTierPlan(tieredMachine(t, 2*per, numa.TierHot, 0))
	fr := hot.AddClass(ClassSpec{Label: "frontier", BytesPerNode: evenBytes(4, per), Pinned: true, Priority: 9})
	st := hot.AddClass(ClassSpec{Label: "state", BytesPerNode: evenBytes(4, per), Priority: 0})
	topo := hot.AddClass(ClassSpec{Label: "topo", BytesPerNode: evenBytes(4, 2*per), Priority: 1})
	if fr.DRAMFrac(0) != 1 || st.DRAMFrac(0) != 1 {
		t.Fatalf("pinned/hot classes not resident: %v %v", fr.DRAMFrac(0), st.DRAMFrac(0))
	}
	if topo.DRAMFrac(0) != 0 {
		t.Fatalf("cold class resident: %v", topo.DRAMFrac(0))
	}

	il := NewTierPlan(tieredMachine(t, 2*per, numa.TierInterleave, 0))
	fr2 := il.AddClass(ClassSpec{Label: "frontier", BytesPerNode: evenBytes(4, per), Pinned: true})
	st2 := il.AddClass(ClassSpec{Label: "state", BytesPerNode: evenBytes(4, per)})
	to2 := il.AddClass(ClassSpec{Label: "topo", BytesPerNode: evenBytes(4, 2*per)})
	for _, c := range []*TierClass{fr2, st2, to2} {
		if got := c.DRAMFrac(0); got != 0.5 {
			t.Fatalf("interleave frac = %v, want 0.5", got)
		}
		if got := c.HitFrac(1); got != 0.5 {
			t.Fatalf("interleave hit = %v, want 0.5", got)
		}
	}
}

// Under equal residency, a skew-aware hot-mass curve must cover more
// access mass than the uniform baseline — the whole point of the policy.
func TestHotMassBeatsUniform(t *testing.T) {
	curve := DegreeHotMass(1000, func(i int) int64 {
		return int64(1000000 / (i + 1)) // zipf-ish
	})
	if curve == nil {
		t.Fatal("no curve")
	}
	for _, f := range []float64{0.1, 0.25, 0.5, 0.75} {
		if got := curve(f); got <= f {
			t.Fatalf("hot mass at %.2f residency = %v, not above uniform", f, got)
		}
	}
	if curve(0) != 0 || curve(1) != 1 {
		t.Fatalf("curve endpoints: %v %v", curve(0), curve(1))
	}
	for f := 0.0; f < 1; f += 0.01 {
		if curve(f) > curve(f+0.01)+1e-12 {
			t.Fatalf("curve not monotone at %v", f)
		}
	}
	// Degenerate inputs yield no curve (uniform fallback).
	if DegreeHotMass(0, nil) != nil {
		t.Fatal("empty curve should be nil")
	}
	if DegreeHotMass(5, func(int) int64 { return 0 }) != nil {
		t.Fatal("zero-mass curve should be nil")
	}
}

// Promotion determinism: identical charge schedules produce identical
// migration logs, residency, and ledgers on two independent plans.
func TestPromotionDeterminism(t *testing.T) {
	build := func() (*numa.Machine, *TierPlan, []*TierClass) {
		m := tieredMachine(t, 1<<20, numa.TierHot, 2)
		tp := NewTierPlan(m)
		cs := []*TierClass{
			tp.AddClass(ClassSpec{Label: "a", BytesPerNode: evenBytes(4, 1<<20), Priority: 0}),
			tp.AddClass(ClassSpec{Label: "b", BytesPerNode: evenBytes(4, 1<<20), Priority: 1}),
			tp.AddClass(ClassSpec{Label: "c", BytesPerNode: evenBytes(4, 1<<19), Priority: 2}),
		}
		return m, tp, cs
	}
	run := func(m *numa.Machine, tp *TierPlan, cs []*TierClass) (*numa.Epoch, []Migration) {
		total := m.NewEpoch()
		for step := 0; step < 10; step++ {
			ep := m.NewEpoch()
			// Class "c" is hammered hardest per byte; "a" barely touched.
			for th := 0; th < m.Threads(); th++ {
				cs[2].Access(ep, th, numa.Rand, numa.Load, th%m.Nodes, 50000, 8, 1<<20)
				cs[1].Access(ep, th, numa.Rand, numa.Load, th%m.Nodes, 10000, 8, 1<<20)
				cs[0].Access(ep, th, numa.Seq, numa.Load, th%m.Nodes, 100, 8, 0)
			}
			tp.Step(ep)
			total.Add(ep)
		}
		return total, tp.Migrations()
	}
	m1, tp1, cs1 := build()
	m2, tp2, cs2 := build()
	e1, log1 := run(m1, tp1, cs1)
	e2, log2 := run(m2, tp2, cs2)
	if !reflect.DeepEqual(log1, log2) {
		t.Fatalf("migration logs diverged:\n%v\n%v", log1, log2)
	}
	if len(log1) == 0 {
		t.Fatal("no migrations happened; schedule should force promotion")
	}
	var t1, t2 numa.TrafficMatrix
	e1.Traffic(&t1)
	e2.Traffic(&t2)
	if !reflect.DeepEqual(t1, t2) || e1.Time() != e2.Time() {
		t.Fatal("ledgers diverged under identical schedules")
	}
	// The hot class must have been promoted at the cold one's expense.
	if cs1[2].DRAMFrac(0) <= 0 {
		t.Fatalf("hot class not promoted: frac %v", cs1[2].DRAMFrac(0))
	}
}

// Snapshot/Restore must rewind residency, counters, pass clock, and the
// migration log so a rolled-back superstep replays identically.
func TestTierSnapshotRestoreReplay(t *testing.T) {
	m := tieredMachine(t, 1<<20, numa.TierHot, 1)
	tp := NewTierPlan(m)
	a := tp.AddClass(ClassSpec{Label: "a", BytesPerNode: evenBytes(4, 1<<20), Priority: 0})
	b := tp.AddClass(ClassSpec{Label: "b", BytesPerNode: evenBytes(4, 1<<20), Priority: 1})

	work := func(ep *numa.Epoch) {
		for th := 0; th < m.Threads(); th++ {
			b.Access(ep, th, numa.Rand, numa.Load, th%m.Nodes, 40000, 8, 1<<20)
			a.Access(ep, th, numa.Seq, numa.Load, th%m.Nodes, 10, 8, 0)
		}
	}
	warm := m.NewEpoch()
	work(warm)
	tp.Step(warm)

	snap := tp.Snapshot()
	ep1 := m.NewEpoch()
	work(ep1)
	tp.Step(ep1)
	log1 := append([]Migration(nil), tp.Migrations()...)
	frac1 := []float64{a.DRAMFrac(0), b.DRAMFrac(0)}

	tp.Restore(snap)
	ep2 := m.NewEpoch()
	work(ep2)
	tp.Step(ep2)
	if !reflect.DeepEqual(log1, tp.Migrations()) {
		t.Fatal("replayed migration log differs")
	}
	if frac1[0] != a.DRAMFrac(0) || frac1[1] != b.DRAMFrac(0) {
		t.Fatal("replayed residency differs")
	}
	var m1, m2 numa.TrafficMatrix
	ep1.Traffic(&m1)
	ep2.Traffic(&m2)
	if !reflect.DeepEqual(m1, m2) || ep1.Time() != ep2.Time() {
		t.Fatal("replayed epoch diverged")
	}
	if tp.Snapshot() == nil || !math.IsNaN(math.NaN()) {
		_ = tp // keep the nil-safety path covered below
	}
	var nilPlan *TierPlan
	if nilPlan.Snapshot() != nil {
		t.Fatal("nil plan snapshot should be nil")
	}
	nilPlan.Restore(nil) // must not panic
	nilPlan.Step(nil)    // must not panic
}

// TestTierRestoreAfterGrow: demand grown between Snapshot and Restore
// (a rolled-back step's lazy allocation, which survives the rollback)
// must leave the restored plan consistent with the grown demand — the
// same fill a committed run's Grow produces — not the snapshot's stale
// fractions. This is the regression test for the step-0 rollback bug:
// restoring pre-growth all-resident fractions over the grown demand
// silently turned the rest of the run all-DRAM.
func TestTierRestoreAfterGrow(t *testing.T) {
	for _, pol := range []numa.TierPolicy{numa.TierInterleave, numa.TierHot} {
		m := tieredMachine(t, 1<<10, pol, 0)
		tp := NewTierPlan(m)
		c := tp.AddClass(ClassSpec{Label: "c", BytesPerNode: evenBytes(4, 1<<9)})
		if c.DRAMFrac(0) != 1 {
			t.Fatalf("%v: pre-growth demand should be fully resident", pol)
		}
		snap := tp.Snapshot()
		c.GrowDemand(0, 1<<12) // lazy allocation inside the step being rolled back
		want := c.DRAMFrac(0)
		if want >= 1 {
			t.Fatalf("%v: grown demand should spill (frac %v)", pol, want)
		}
		tp.Restore(snap)
		if got := c.DRAMFrac(0); got != want {
			t.Errorf("%v: restored frac %v, want the committed-run fill %v", pol, got, want)
		}
		if h := c.HitFrac(0); h >= 1 {
			t.Errorf("%v: restored hit fraction %v still claims full residency", pol, h)
		}
	}
}

// A charge made once per node (numa.Epoch.ChargeNodes) must tally the
// whole node's bytes in the promotion counter, as the per-thread loop
// does. (The ledgers themselves are compared in package numa.)
func TestChargeNodesTalliesWholeNode(t *testing.T) {
	m := tieredMachine(t, 1<<10, numa.TierHot, 4)
	charge := func(c *TierClass, ep *numa.Epoch, th, node int) {
		c.Access(ep, th, numa.Seq, numa.Load, node, 1000, 8, 0)
		c.AccessInterleaved(ep, th, numa.Rand, numa.Store, 300, 4, 1<<20)
		c.LatencyBound(ep, th, numa.Store, (node+1)%m.Nodes, 77)
	}
	loop := NewTierPlan(m).AddClass(ClassSpec{Label: "c", BytesPerNode: evenBytes(4, 1<<12)})
	ep := m.NewEpoch()
	for th := 0; th < m.Threads(); th++ {
		charge(loop, ep, th, m.NodeOfThread(th))
	}
	byNode := NewTierPlan(m).AddClass(ClassSpec{Label: "c", BytesPerNode: evenBytes(4, 1<<12)})
	ep2 := m.NewEpoch()
	ep2.ChargeNodes(func(th, node int) { charge(byNode, ep2, th, node) })
	if got, want := byNode.acc, loop.acc; got != want || want == 0 {
		t.Fatalf("promotion tally %d bytes charged by node, %d by thread", got, want)
	}
}

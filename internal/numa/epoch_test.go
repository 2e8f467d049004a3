package numa

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, rel float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d/m <= rel
}

func TestSeqLocalBandwidth(t *testing.T) {
	m := NewMachine(IntelXeon80(), 1, 1)
	e := m.NewEpoch()
	// 3207 MB at local sequential bandwidth should take ~1 second.
	e.Access(0, Seq, Load, 0, 3207*1e6/8, 8, 0)
	if got := e.Time(); !approx(got, 1.0, 1e-9) {
		t.Fatalf("seq local time = %v, want 1.0", got)
	}
}

func TestRemoteSeqSlowerButFasterThanRandLocal(t *testing.T) {
	m := NewMachine(IntelXeon80(), 8, 1)
	const bytes = 64 * 1e6
	// thread 0 is on node 0; find a 2-hop node.
	var far int
	for n := 1; n < 8; n++ {
		if m.Level(0, n) == 2 {
			far = n
			break
		}
	}
	seqRemote := m.NewEpoch()
	seqRemote.Access(0, Seq, Load, far, bytes/8, 8, 0)
	randLocal := m.NewEpoch()
	randLocal.Access(0, Rand, Load, 0, bytes/8, 8, 1<<40) // huge working set: all misses
	if !(seqRemote.Time() < randLocal.Time()) {
		t.Fatalf("sequential remote (%v) must beat random local (%v) — the paper's core observation",
			seqRemote.Time(), randLocal.Time())
	}
}

func TestRandomCacheFitIsFast(t *testing.T) {
	m := NewMachine(IntelXeon80(), 1, 1)
	small := m.NewEpoch()
	small.Access(0, Rand, Store, 0, 1<<14, 8, 32<<10) // fits in the 64 KiB LLC
	big := m.NewEpoch()
	big.Access(0, Rand, Store, 0, 1<<14, 8, 64<<20) // far exceeds LLC
	if !(small.Time() < big.Time()/5) {
		t.Fatalf("cache-resident random access should be much faster: %v vs %v", small.Time(), big.Time())
	}
}

func TestInterleavedSlowerThanLocal(t *testing.T) {
	m := NewMachine(IntelXeon80(), 8, 1)
	local := m.NewEpoch()
	local.Access(0, Seq, Load, 0, 1<<20, 8, 0)
	il := m.NewEpoch()
	il.AccessInterleaved(0, Seq, Load, 1<<20, 8, 0)
	if !(local.Time() < il.Time()) {
		t.Fatalf("interleaved (%v) must be slower than local (%v)", il.Time(), local.Time())
	}
}

func TestInterleavedOnOneNodeEqualsLocal(t *testing.T) {
	m := NewMachine(IntelXeon80(), 1, 2)
	a := m.NewEpoch()
	a.Access(0, Seq, Load, 0, 1<<20, 8, 0)
	b := m.NewEpoch()
	b.AccessInterleaved(0, Seq, Load, 1<<20, 8, 0)
	if !approx(a.Time(), b.Time(), 1e-9) {
		t.Fatalf("single-node interleaved should equal local: %v vs %v", b.Time(), a.Time())
	}
	if s := b.Stats(); s.RemoteCount != 0 {
		t.Fatalf("single node cannot have remote accesses, got %d", s.RemoteCount)
	}
}

func TestCongestionCapsSharedNode(t *testing.T) {
	// Eight threads on different sockets all streaming from node 0 must be
	// limited by node 0's aggregate bandwidth, not their individual links.
	m := NewMachine(IntelXeon80(), 8, 1)
	shared := m.NewEpoch()
	spread := m.NewEpoch()
	const count = 1 << 22
	for th := 0; th < 8; th++ {
		shared.Access(th, Seq, Load, 0, count, 8, 0)
		spread.Access(th, Seq, Load, th, count, 8, 0)
	}
	if !(spread.Time() < shared.Time()) {
		t.Fatalf("co-located (%v) must beat centralised (%v) under contention", spread.Time(), shared.Time())
	}
}

func TestStatsRemoteRate(t *testing.T) {
	m := NewMachine(IntelXeon80(), 2, 1)
	e := m.NewEpoch()
	e.Access(0, Seq, Load, 0, 300, 8, 0)
	e.Access(0, Seq, Load, 1, 100, 8, 0)
	s := e.Stats()
	if s.LocalCount != 300 || s.RemoteCount != 100 {
		t.Fatalf("counts = %d/%d, want 300/100", s.LocalCount, s.RemoteCount)
	}
	if !approx(s.RemoteRate, 0.25, 1e-12) {
		t.Fatalf("RemoteRate = %v, want 0.25", s.RemoteRate)
	}
}

func TestLatencyBound(t *testing.T) {
	m := NewMachine(IntelXeon80(), 2, 1)
	e := m.NewEpoch()
	// One million local loads at 117 cycles on a 2 GHz clock.
	e.LatencyBound(0, Load, 0, 1e6)
	want := 1e6 * 117 / 2e9
	if got := e.Time(); !approx(got, want, 1e-9) {
		t.Fatalf("latency-bound time = %v, want %v", got, want)
	}
	remote := m.NewEpoch()
	remote.LatencyBound(0, Store, 1, 1e6)
	if !(remote.Time() > e.Time()) {
		t.Fatal("remote latency-bound ops must be slower than local")
	}
}

func TestEpochAddAndReset(t *testing.T) {
	m := NewMachine(IntelXeon80(), 2, 2)
	a := m.NewEpoch()
	b := m.NewEpoch()
	a.Access(0, Seq, Load, 0, 1000, 8, 0)
	b.Access(3, Rand, Store, 1, 1000, 8, 1<<30)
	ta, tb := a.Time(), b.Time()
	sum := m.NewEpoch()
	sum.Add(a)
	sum.Add(b)
	// Different threads: phase time is the max, and both contributions must appear in stats.
	if got := sum.Time(); !approx(got, math.Max(ta, tb), 1e-9) {
		t.Fatalf("Add time = %v, want max(%v,%v)", got, ta, tb)
	}
	s := sum.Stats()
	if s.LocalCount+s.RemoteCount != 2000 {
		t.Fatalf("total accesses = %d, want 2000", s.LocalCount+s.RemoteCount)
	}
	sum.Reset()
	if sum.Time() != 0 {
		t.Fatal("Reset must zero the ledger")
	}
	if s := sum.Stats(); s.LocalCount != 0 || s.RemoteCount != 0 {
		t.Fatal("Reset must zero stats")
	}
}

// The ledger is one flat block per epoch; every whole-ledger operation
// must still move every field of every thread, on both ledger shapes.
func TestLedgerRoundTrip(t *testing.T) {
	for _, tiered := range []bool{false, true} {
		m := NewMachine(IntelXeon80(), 3, 2)
		if tiered {
			if err := m.SetTierConfig(TierConfig{DRAMPerNode: 1 << 20, Policy: TierHot}); err != nil {
				t.Fatal(err)
			}
		}
		a := m.NewEpoch()
		for th := 0; th < m.Threads(); th++ {
			a.Access(th, Seq, Load, (th+1)%3, int64(1000+th), 8, 0)
			a.AccessInterleaved(th, Rand, Store, int64(700*th), 4, 1<<30)
			a.LatencyBound(th, Store, th%3, int64(5+th))
			a.Compute(th, float64(th)*1e-6)
			if tiered {
				a.AccessSlow(th, Rand, Load, th%3, int64(300+th), 8, 1<<30)
				a.AccessSlowInterleaved(th, Seq, Store, int64(90+th), 8, 0)
				a.LatencyBoundSlow(th, Load, (th+2)%3, int64(3+th))
			}
		}
		fresh := m.NewEpoch()
		if a.Equal(fresh) {
			t.Fatal("a charged ledger compares equal to a fresh one")
		}
		c := a.Clone()
		if !c.Equal(a) {
			t.Fatalf("tiered=%v: Clone differs from its source", tiered)
		}
		c.Compute(m.Threads()-1, 1e-9)
		if c.Equal(a) {
			t.Fatal("Clone shares storage with its source, or Equal misses the last thread")
		}
		c.CopyFrom(a)
		if !c.Equal(a) {
			t.Fatalf("tiered=%v: CopyFrom left a difference", tiered)
		}
		sum := m.NewEpoch()
		sum.Add(a)
		if !sum.Equal(a) {
			t.Fatalf("tiered=%v: Add into a fresh ledger differs from the addend", tiered)
		}
		sum.Reset()
		if !sum.Equal(fresh) {
			t.Fatalf("tiered=%v: Reset ledger differs from a fresh one", tiered)
		}
	}
}

func TestAddPanicsAcrossMachines(t *testing.T) {
	a := NewMachine(IntelXeon80(), 1, 1).NewEpoch()
	b := NewMachine(IntelXeon80(), 1, 1).NewEpoch()
	defer func() {
		if recover() == nil {
			t.Fatal("Add across machines must panic")
		}
	}()
	a.Add(b)
}

func TestComputeAddsToThreadTime(t *testing.T) {
	m := NewMachine(IntelXeon80(), 1, 2)
	e := m.NewEpoch()
	e.Compute(1, 0.5)
	if !approx(e.Time(), 0.5, 1e-12) {
		t.Fatalf("compute-only time = %v", e.Time())
	}
	if !approx(e.ThreadSeconds(1), 0.5, 1e-12) || e.ThreadSeconds(0) != 0 {
		t.Fatal("ThreadSeconds attribution wrong")
	}
}

func TestZeroCountIsNoop(t *testing.T) {
	m := NewMachine(IntelXeon80(), 2, 1)
	e := m.NewEpoch()
	e.Access(0, Seq, Load, 1, 0, 8, 0)
	e.AccessInterleaved(0, Rand, Store, 0, 8, 0)
	e.LatencyBound(0, Load, 1, 0)
	if e.Time() != 0 {
		t.Fatal("zero-count records must not advance time")
	}
}

func TestTimeMonotoneInBytesProperty(t *testing.T) {
	m := NewMachine(IntelXeon80(), 4, 2)
	f := func(c1, c2 uint32) bool {
		a, b := int64(c1%1e6), int64(c2%1e6)
		lo, hi := a, a+b
		e1 := m.NewEpoch()
		e1.Access(0, Rand, Load, 2, lo, 8, 1<<20)
		e2 := m.NewEpoch()
		e2.Access(0, Rand, Load, 2, hi, 8, 1<<20)
		return e2.Time() >= e1.Time()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHitFractionBounds(t *testing.T) {
	m := NewMachine(IntelXeon80(), 1, 1)
	e := m.NewEpoch()
	f := func(ws int64) bool {
		if ws < 0 {
			ws = -ws
		}
		h := e.hitFraction(ws)
		return h >= 0 && h <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if e.hitFraction(0) != 0 {
		t.Fatal("zero working set means no cache modelling")
	}
	if e.hitFraction(1) != 1 {
		t.Fatal("tiny working set must always hit")
	}
}

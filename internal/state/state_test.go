package state

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

var testBounds = []int{0, 25, 50, 100}

func TestNewAll(t *testing.T) {
	s := NewAll(testBounds)
	if s.Count() != 100 || !s.Dense() || s.IsEmpty() {
		t.Fatalf("NewAll: count=%d dense=%t", s.Count(), s.Dense())
	}
	for v := uint32(0); v < 100; v++ {
		if !s.Contains(v) {
			t.Fatalf("NewAll must contain %d", v)
		}
	}
}

func TestNewAllPartialLastWord(t *testing.T) {
	// 100-25=75 vertices in last leaf: the tail word must not contain
	// stray bits beyond the range.
	s := NewAll(testBounds)
	n := 0
	s.ForEachInNode(2, func(v uint32) {
		if v < 50 || v >= 100 {
			t.Fatalf("vertex %d outside leaf range", v)
		}
		n++
	})
	if n != 50 {
		t.Fatalf("leaf 2 iterated %d vertices, want 50", n)
	}
}

func TestNewEmptyAndSingle(t *testing.T) {
	e := NewEmpty(testBounds)
	if !e.IsEmpty() || e.Dense() {
		t.Fatal("NewEmpty broken")
	}
	s := NewSingle(testBounds, 60)
	if s.Count() != 1 || !s.Contains(60) || s.Contains(59) {
		t.Fatal("NewSingle broken")
	}
	if got := s.List(2); len(got) != 1 || got[0] != 60 {
		t.Fatalf("List(2) = %v", got)
	}
}

func TestFromVerticesDedup(t *testing.T) {
	s := FromVertices(testBounds, []uint32{5, 99, 5, 30, 99, 30})
	if s.Count() != 3 {
		t.Fatalf("Count = %d, want 3", s.Count())
	}
	var got []uint32
	s.ForEach(func(v uint32) { got = append(got, v) })
	want := []uint32{5, 30, 99}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("ForEach = %v, want %v", got, want)
	}
}

func TestDenseSparseRoundTripProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		vs := make([]uint32, len(raw))
		for i, v := range raw {
			vs[i] = v % 100
		}
		sp := FromVertices(testBounds, vs)
		d := sp.ToDense()
		back := d.ToSparse()
		if sp.Count() != d.Count() || d.Count() != back.Count() {
			return false
		}
		for v := uint32(0); v < 100; v++ {
			if sp.Contains(v) != d.Contains(v) || d.Contains(v) != back.Contains(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestToDenseIdempotent(t *testing.T) {
	s := NewAll(testBounds)
	if s.ToDense() != s {
		t.Fatal("ToDense on dense must return itself")
	}
	sp := NewSingle(testBounds, 3)
	if sp.ToSparse() != sp {
		t.Fatal("ToSparse on sparse must return itself")
	}
}

// The simulated threads of a phase are concurrent on the simulated machine
// and interleaved on the host: eight threads' Sets land on the same bitmap
// words, each vertex twice, and every bit and every degree counts once.
func TestBuilderDenseConcurrent(t *testing.T) {
	b := NewBuilder(testBounds, 8, true).WithDegrees(func(v uint32) int64 { return int64(v) })
	for pass := 0; pass < 2; pass++ {
		for v := uint32(0); v < 100; v++ {
			b.Set(int(v%8), v)
		}
	}
	s := b.Build()
	if s.Count() != 100 {
		t.Fatalf("dense build lost bits: %d", s.Count())
	}
	if d, ok := s.Degree(); !ok || d != 99*100/2 {
		t.Fatalf("degree sum = %d (%v), want each vertex counted once: %d", d, ok, 99*100/2)
	}
}

func TestBuilderSparseRoutesAndSorts(t *testing.T) {
	b := NewBuilder(testBounds, 2, false)
	b.Add(0, 70)
	b.Add(1, 10)
	b.Add(0, 10) // duplicate across threads
	b.Add(1, 40)
	s := b.Build()
	if s.Count() != 3 {
		t.Fatalf("Count = %d, want 3", s.Count())
	}
	if l := s.List(0); len(l) != 1 || l[0] != 10 {
		t.Fatalf("node 0 list = %v", l)
	}
	if l := s.List(1); len(l) != 1 || l[0] != 40 {
		t.Fatalf("node 1 list = %v", l)
	}
	if l := s.List(2); len(l) != 1 || l[0] != 70 {
		t.Fatalf("node 2 list = %v", l)
	}
	for p := 0; p < 3; p++ {
		if !sort.SliceIsSorted(s.List(p), func(i, j int) bool { return s.List(p)[i] < s.List(p)[j] }) {
			t.Fatal("lists must be sorted")
		}
	}
}

// A bulk append (Queue, append, Extend) builds what one Add a vertex
// builds: the same queues, so the same subset, and the same degree sum,
// duplicates and all.
func TestBuilderExtendMatchesAdd(t *testing.T) {
	degree := func(v uint32) int64 { return int64(v) + 1 }
	batches := [][]uint32{{70, 10}, {}, {10, 40, 99, 40}}
	added := NewBuilder(testBounds, 2, false).WithDegrees(degree)
	extended := NewBuilder(testBounds, 2, false).WithDegrees(degree)
	for i, vs := range batches {
		th := i % 2
		for _, v := range vs {
			added.Add(th, v)
		}
		extended.Extend(th, append(extended.Queue(th), vs...))
	}
	for th := 0; th < 2; th++ {
		if a, e := added.Queue(th), extended.Queue(th); !slices.Equal(a, e) {
			t.Fatalf("thread %d queue: Add %v, Extend %v", th, a, e)
		}
	}
	a, e := added.Build(), extended.Build()
	da, _ := a.Degree()
	de, _ := e.Degree()
	if a.Count() != e.Count() || da != de {
		t.Fatalf("Add built %d vertices of degree %d, Extend %d of degree %d", a.Count(), da, e.Count(), de)
	}
}

func TestContainsSparseBinarySearch(t *testing.T) {
	s := FromVertices(testBounds, []uint32{2, 4, 8, 16, 32, 64})
	for _, v := range []uint32{2, 4, 8, 16, 32, 64} {
		if !s.Contains(v) {
			t.Fatalf("must contain %d", v)
		}
	}
	for _, v := range []uint32{0, 3, 33, 99} {
		if s.Contains(v) {
			t.Fatalf("must not contain %d", v)
		}
	}
}

func TestWordsListPanics(t *testing.T) {
	d := NewAll(testBounds)
	sp := NewEmpty(testBounds)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("List on dense must panic")
			}
		}()
		d.List(0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Words on sparse must panic")
			}
		}()
		sp.Words(0)
	}()
}

func TestShouldDense(t *testing.T) {
	// 100 active + 900 degree = 1000 > 10000/20 = 500 -> dense.
	if !ShouldDense(100, 900, 10000, 20) {
		t.Fatal("should switch to dense")
	}
	if ShouldDense(10, 90, 10000, 20) {
		t.Fatal("should stay sparse")
	}
	// Zero threshold uses the default of 20.
	if !ShouldDense(100, 900, 10000, 0) {
		t.Fatal("default threshold must apply")
	}
}

func TestBytes(t *testing.T) {
	d := NewAll(testBounds)
	sp := NewSingle(testBounds, 1)
	if d.Bytes() <= 0 || sp.Bytes() <= 0 {
		t.Fatal("Bytes must be positive")
	}
	if sp.Bytes() >= d.Bytes() {
		t.Fatal("a single-vertex sparse subset must be smaller than a full bitmap")
	}
}

func TestForEachAscendingGlobal(t *testing.T) {
	s := FromVertices(testBounds, []uint32{99, 0, 50, 25, 24, 26})
	var prev int64 = -1
	s.ForEach(func(v uint32) {
		if int64(v) <= prev {
			t.Fatalf("ForEach out of order: %d after %d", v, prev)
		}
		prev = int64(v)
	})
}

func TestSingleNodeBounds(t *testing.T) {
	bounds := []int{0, 10}
	s := FromVertices(bounds, []uint32{3, 7})
	if s.Nodes() != 1 || s.Count() != 2 {
		t.Fatal("single-node subset broken")
	}
	d := s.ToDense()
	if !d.Contains(3) || !d.Contains(7) || d.Contains(5) {
		t.Fatal("single-node dense conversion broken")
	}
}

func TestEmptyLeafIteration(t *testing.T) {
	s := NewEmpty(testBounds)
	s.ForEach(func(v uint32) { t.Fatal("empty subset must not iterate") })
	d := s.ToDense()
	d.ForEach(func(v uint32) { t.Fatal("empty dense subset must not iterate") })
	if d.Count() != 0 {
		t.Fatal("empty dense count")
	}
}

// TestScratchReusesReleasedSubsets: a subset handed back to a scratch reads
// as empty, and the next Build, ToDense, ToSparse or Empty of its style
// takes its storage, holding exactly the new set with no vertex of the old
// one left in a reused leaf.
func TestScratchReusesReleasedSubsets(t *testing.T) {
	var sc BuilderScratch
	members := func(s *Subset) []uint32 {
		var vs []uint32
		s.ForEach(func(v uint32) { vs = append(vs, v) })
		return vs
	}
	build := func(dense bool, vs ...uint32) *Subset {
		b := sc.Builder(testBounds, 2, dense, nil)
		for i, v := range vs {
			if dense {
				b.Set(i%2, v)
			} else {
				b.Add(i%2, v)
			}
		}
		return b.Build()
	}
	for _, dense := range []bool{false, true} {
		old := build(dense, 3, 30, 60, 99)
		sc.Release(old)
		if !old.IsEmpty() || len(members(old)) != 0 {
			t.Fatalf("dense=%t: a released subset reads %v", dense, members(old))
		}
		next := build(dense, 99, 4)
		if next != old {
			t.Fatalf("dense=%t: the build did not take the released subset", dense)
		}
		if got := members(next); !slices.Equal(got, []uint32{4, 99}) || next.Count() != 2 {
			t.Fatalf("dense=%t: reused subset holds %v (count %d), want [4 99]", dense, got, next.Count())
		}
		sc.Release(next)
		view := sc.ToSparse(NewAll(testBounds))
		if dense {
			view = sc.ToDense(FromVertices(testBounds, []uint32{7, 51}))
		}
		if view != next {
			t.Fatalf("dense=%t: the conversion did not take the released subset", dense)
		}
		want := []uint32{7, 51}
		if !dense {
			want = members(NewAll(testBounds))
		}
		if got := members(view); !slices.Equal(got, want) || view.Count() != int64(len(want)) {
			t.Fatalf("dense=%t: reused conversion holds %v, want %v", dense, got, want)
		}
	}
	sc.Release(build(false, 5))
	if e := sc.Empty(testBounds); !e.IsEmpty() || len(members(e)) != 0 || e.Nodes() != len(testBounds)-1 {
		t.Fatalf("Empty over released storage holds %v", members(e))
	}
}

// TestRebindKeepsFittingSubsets: a scratch rebound to other bounds keeps
// the handed-back subsets whose leaves fit them, every sparse one and the
// dense ones of the same leaf sizes, and drops the rest, so a dense build
// over the new bounds gets leaves of their sizes.
func TestRebindKeepsFittingSubsets(t *testing.T) {
	wider := slices.Clone(testBounds)
	wider[len(wider)-1] += 64 // the last leaf one word longer
	for _, tc := range []struct {
		bounds []int
		dense  bool // the dense subset stays
	}{{testBounds, true}, {wider, false}} {
		var sc BuilderScratch
		dense, sparse := sc.ToDense(NewSingle(testBounds, 3)), sc.ToSparse(NewAll(testBounds))
		sc.Release(dense)
		sc.Release(sparse)
		sc.Rebind(tc.bounds)
		if got := sc.Empty(tc.bounds); got != sparse {
			t.Fatalf("bounds %v: the sparse subset was not kept", tc.bounds)
		}
		b := sc.Builder(tc.bounds, 1, true, nil)
		b.Set(0, uint32(tc.bounds[len(tc.bounds)-1]-1))
		got := b.Build()
		if (got == dense) != tc.dense || got.Count() != 1 || !fitsDense(got.words, tc.bounds) {
			t.Fatalf("bounds %v: dense build reused the old subset %t, want %t; count %d", tc.bounds, got == dense, tc.dense, got.Count())
		}
	}
}

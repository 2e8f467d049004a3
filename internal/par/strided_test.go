package par

import (
	"testing"
	"testing/quick"
)

func TestStridedCoversExactly(t *testing.T) {
	f := func(nRaw, cRaw, tRaw uint16) bool {
		n := int64(nRaw % 3000)
		chunk := int64(cRaw % 100)
		threads := 1 + int(tRaw%16)
		s := MakeStrided(n, chunk, threads)
		covered := make([]int, n)
		for th := 0; th < threads; th++ {
			s.Do(th, func(lo, hi int64) {
				if lo < 0 || hi > n || lo >= hi {
					t.Fatalf("bad chunk [%d,%d) of %d", lo, hi, n)
				}
				for i := lo; i < hi; i++ {
					covered[i]++
				}
			})
		}
		for _, c := range covered {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestStridedDeterministic(t *testing.T) {
	s := MakeStrided(1000, 64, 4)
	var a, b []int64
	s.Do(2, func(lo, hi int64) { a = append(a, lo, hi) })
	s.Do(2, func(lo, hi int64) { b = append(b, lo, hi) })
	if len(a) != len(b) {
		t.Fatal("non-deterministic chunk count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic chunks")
		}
	}
}

func TestStridedRoundRobin(t *testing.T) {
	// With chunk=1 and 4 threads, thread t gets exactly indices
	// t, t+4, t+8, ...
	s := MakeStrided(10, 1, 4)
	var got []int64
	s.Do(1, func(lo, hi int64) { got = append(got, lo) })
	want := []int64{1, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestStridedBalance(t *testing.T) {
	// Chunk counts across threads differ by at most one.
	s := MakeStrided(100000, 16, 7)
	counts := make([]int64, 7)
	for th := 0; th < 7; th++ {
		s.Do(th, func(lo, hi int64) { counts[th] += hi - lo })
	}
	min, max := counts[0], counts[0]
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max-min > 16 {
		t.Fatalf("imbalance %d exceeds one chunk", max-min)
	}
}

func TestStridedDegenerateInputs(t *testing.T) {
	s := MakeStrided(0, 10, 3)
	s.Do(0, func(lo, hi int64) { t.Fatal("empty range must not iterate") })
	s = MakeStrided(5, 0, 0) // clamps to chunk=1, threads=1
	var total int64
	s.Do(0, func(lo, hi int64) { total += hi - lo })
	if total != 5 {
		t.Fatalf("clamped stride covered %d of 5", total)
	}
}

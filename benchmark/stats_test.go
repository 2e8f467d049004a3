package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}, {95.5, 96}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("p95 of one sample = %v, want it", got)
	}
	if got := percentile([]float64(nil), 95); got != 0 {
		t.Errorf("p95 of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of unsorted input = %v, want 5", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2 {
		t.Errorf("nearest-rank median of four = %v, want the lower middle", got)
	}
}

// p95 may be reported only with ten samples beyond it: 200 is the fewest.
func TestTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{{200, 95, 10}, {199, 95, 9}, {1000, 95, 50}, {1000, 99, 10}, {100, 90, 10}, {20, 50, 10}, {0, 95, 0}} {
		if got := samplesBeyond(c.n, c.p); got != c.beyond {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.p, got, c.beyond)
		}
	}
	if samplesBeyond(199, 95) >= minBeyond || samplesBeyond(200, 95) < minBeyond {
		t.Error("the ten-beyond rule must admit p95 at exactly 200 samples")
	}
}

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a by 10
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the parent
		{Name: "aa", Start: 15, End: 20, Parent: 1},
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
}

func TestHistogramPercentile(t *testing.T) {
	var h histogram
	var xs []float64
	for i := 1; i <= 20000; i++ {
		v := 0.005 + float64(i)*1e-6 // 5-25 us, in ms
		h.add(v)
		xs = append(xs, v)
	}
	for _, p := range []float64{50, 95, 99.9} {
		want, got := percentile(xs, p), h.percentile(p)
		if got < want || got > want*histStep*histStep {
			t.Errorf("p%v = %v, exact %v: not within two buckets above", p, got, want)
		}
	}
	h.add(0) // below the floor and beyond the top both land in an end bucket
	h.add(1e9)
	if h.n != 20002 || h.counts[0] != 1 || h.counts[histBuckets-1] != 1 {
		t.Error("out-of-range values were not clamped to the end buckets")
	}
}

// Op counts depend on --seconds alone and never leave p95 short of samples.
func TestSizingHoldsTheP95Floor(t *testing.T) {
	for _, z := range []sizing{denseSpec.size, sparseSpec.size, hotSize, churnSize} {
		for _, seconds := range []float64{0.5, 1, 24, 60} {
			n := z.opsPerEpoch(seconds)
			if samplesBeyond(n*z.epochs, 95) < minBeyond {
				t.Errorf("%+v at %v s: %d ops x %d epochs leave fewer than %d beyond p95", z, seconds, n, z.epochs, minBeyond)
			}
		}
		if z.opsPerEpoch(48) < 2*z.opsPerEpoch(24)-1 {
			t.Errorf("%+v: twice the seconds is not twice the ops", z)
		}
	}
}

package main

import (
	"math"
	"slices"
)

// Samples are kept as float32 where a run has millions of them, so that
// the benchmark's own memory stays small beside the program's.
type sample interface{ ~float32 | ~float64 }

// percentile reads the p-th percentile (0 < p <= 100) of an ascending
// slice by nearest rank: the smallest sample with at least p% of the
// samples at or below it. An empty slice reads 0.
func percentile[T sample](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// samplesBeyond counts the samples strictly above the p-th percentile's
// rank. A percentile is reported only when at least ten samples lie
// beyond it, so one slow sample cannot set it; p95 therefore needs 200.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

const (
	minBeyond = 10
	minPooled = 200 // the fewest samples that leave minBeyond beyond p95
)

// sizing fixes how much a workload measures: how many times it rebuilds
// what it measures (epochs) and how many ops it times on each build. The
// count depends on --seconds alone — it is what the reference box gets
// through in that time — so a slower box runs longer, not shorter, and
// runs of one length have the same number of samples behind every
// percentile, never fewer than p95 needs.
type sizing struct {
	epochs       int
	opsPerSecond float64 // per epoch, per second of --seconds
}

func (z sizing) opsPerEpoch(seconds float64) int {
	return max((minPooled+z.epochs-1)/z.epochs, int(z.opsPerSecond*seconds))
}

func sortedCopy[T sample](xs []T) []T {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

func median[T sample](xs []T) T { return percentile(sortedCopy(xs), 50) }

// histogram counts positive values in buckets 0.1 % apart, from 1e-4 up
// (in milliseconds: from 100 ns). serve-hot's two million latencies a run
// go here and not into a slice: a slice of them was more live heap than
// the server's own, which changed how often the collector ran and with
// it the tail this is there to measure.
type histogram struct {
	counts [histBuckets]uint32
	n      int
}

const (
	histFloor   = 1e-4
	histStep    = 1.001
	histBuckets = 1 << 14 // reaches 1.3 s
)

var histLogStep = math.Log(histStep)

func (h *histogram) add(v float64) {
	i := 0
	if v > histFloor {
		i = min(int(math.Log(v/histFloor)/histLogStep), histBuckets-1)
	}
	h.counts[i]++
	h.n++
}

// percentile is the upper edge of the bucket holding the p-th
// percentile's nearest rank.
func (h *histogram) percentile(p float64) float64 {
	want, seen := rank(h.n, p), 0
	for i, c := range h.counts {
		if seen += int(c); seen >= want {
			return histFloor * math.Pow(histStep, float64(i+1))
		}
	}
	return 0
}

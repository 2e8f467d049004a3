// Package plan is the cost-model-driven planner: it profiles loaded
// graphs into deterministic feature vectors, predicts the simulated cost
// of every viable (engine, placement, partition count) candidate from the
// numa access-class tables, picks the argmin, and learns correction
// factors online from observed traffic.
//
// The package deliberately sits below the serving layer: it knows
// engines, placements and topologies, but nothing about HTTP, queues or
// what other requests did: a decision is a function of its query.
package plan

// sketchBuckets is one bucket per log2 magnitude of a 63-bit value plus
// one for zero.
const sketchBuckets = 64

// Sketch is a deterministic streaming quantile sketch over non-negative
// integer samples (vertex degrees): fixed log2 buckets, so Add is O(1),
// memory is constant, and — unlike sampling sketches — the result is a
// pure function of the multiset of samples. Quantiles are exact to within
// a factor of 2 (sub-bucket position is interpolated linearly), which is
// all the cost model needs: degree skew matters in orders of magnitude.
type Sketch struct {
	count   int64
	sum     float64
	max     int64
	buckets [sketchBuckets]int64
}

// Add records one sample into its log2 bucket (bucket 0 holds zeros;
// bucket i>0 holds values in [2^(i-1), 2^i)). Negative samples are
// clamped to zero.
func (s *Sketch) Add(v int64) {
	if v < 0 {
		v = 0
	}
	s.count++
	s.sum += float64(v)
	if v > s.max {
		s.max = v
	}
	b := 0
	for x := v; x > 0; x >>= 1 {
		b++
	}
	s.buckets[b]++
}

// Count returns the number of samples.
func (s *Sketch) Count() int64 { return s.count }

// Mean returns the sample mean (0 for an empty sketch).
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Max returns the largest sample.
func (s *Sketch) Max() int64 { return s.max }

// Quantile returns an estimate of the q-quantile (q in [0,1]): the
// position within the covering bucket is interpolated linearly between
// the bucket's bounds. Empty sketches return 0.
func (s *Sketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.count-1)
	var seen float64
	for b := 0; b < sketchBuckets; b++ {
		n := float64(s.buckets[b])
		if n == 0 {
			continue
		}
		if seen+n > rank {
			if b == 0 {
				return 0
			}
			lo := float64(int64(1) << uint(b-1))
			hi := lo * 2
			frac := (rank - seen) / n
			v := lo + frac*(hi-lo)
			if m := float64(s.max); v > m {
				v = m
			}
			return v
		}
		seen += n
	}
	return float64(s.max)
}

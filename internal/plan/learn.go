// The online learner: per-(feature-bucket, candidate) multiplicative
// correction factors fed by observed runs. The cost model charges the
// engines' own recipes, so its per-workload bias is the bias of its count
// estimates; it shows up as a stable ratio observed/predicted, which an
// EWMA tracks and the chooser multiplies back into future predictions.
// Corrections are keyed by a coarse feature bucket — exact feature vectors
// would never repeat across datasets — and by the full candidate, because
// the counts estimated for, say, X-Stream err differently from Polymer's.

package plan

import (
	"math"
	"sync"
	"sync/atomic"

	"math/bits"

	"polymer/internal/bench"
)

// Bucket is the coarse workload class used to index corrections: the
// algorithm plus log-scale graph size, a skew class and a diameter
// class. Comparable, so it can key maps and the decision cache.
type Bucket struct {
	Alg       bench.Algo
	LogV      int8 // bits.Len(vertices): log2 size class
	LogM      int8
	SkewHigh  bool // max degree > 8x mean: power-law-ish
	DiamClass int8 // 0: <8 levels, 1: <64, 2: >=64 (road-like)
	// Tiered separates runs on DRAM-constrained machines: their observed
	// clocks carry slow-tier stalls, so letting them share corrections
	// with untiered runs would skew both models.
	Tiered bool
}

// BucketOf classifies a feature vector.
func BucketOf(f Features, alg bench.Algo) Bucket {
	b := Bucket{
		Alg:      alg,
		LogV:     int8(bits.Len64(uint64(f.Vertices))),
		LogM:     int8(bits.Len64(uint64(f.Edges))),
		SkewHigh: f.Skew > 8,
	}
	switch {
	case f.DiameterEst >= 64:
		b.DiamClass = 2
	case f.DiameterEst >= 8:
		b.DiamClass = 1
	}
	return b
}

// Correction clamps and smoothing constants: a single wild observation
// (say, a run the model could not price) cannot move a
// factor outside [minFactor, maxFactor], and the EWMA forgets old
// traffic with weight learnAlpha per observation. genEpsilon is the
// relative factor change below which the decision cache is not
// invalidated — once the learner converges, cached decisions stay hot.
const (
	minFactor  = 0.25
	maxFactor  = 4.0
	learnAlpha = 0.3
	genEpsilon = 0.02
)

type learnKey struct {
	b Bucket
	c Candidate
}

type corr struct {
	factor float64
	n      int64
}

// Learner accumulates correction factors and regret statistics. All
// methods are safe for concurrent use.
type Learner struct {
	mu   sync.RWMutex
	corr map[learnKey]*corr
	gen  atomic.Uint64

	obs       atomic.Int64
	absRelErr float64 // EWMA of |observed-predicted|/predicted, under mu
	errInit   bool
}

// NewLearner returns an empty learner (all factors 1).
func NewLearner() *Learner {
	return &Learner{corr: make(map[learnKey]*corr)}
}

// Gen is the learner generation: it advances whenever a correction
// factor moves materially, signalling decision caches to recompute.
func (l *Learner) Gen() uint64 { return l.gen.Load() }

// Factor returns the current multiplicative correction for (b, c);
// 1 when nothing has been observed yet.
func (l *Learner) Factor(b Bucket, c Candidate) float64 {
	l.mu.RLock()
	e := l.corr[learnKey{b, c}]
	l.mu.RUnlock()
	if e == nil {
		return 1
	}
	return e.factor
}

// Observe feeds one completed run: the cost the model predicted for the
// chosen candidate and the simulated seconds actually charged. Non-
// positive inputs are ignored (a degenerate or failed run teaches
// nothing).
func (l *Learner) Observe(b Bucket, c Candidate, predicted, observed float64) {
	if predicted <= 0 || observed <= 0 || math.IsInf(observed, 0) || math.IsNaN(observed) {
		return
	}
	ratio := min(max(observed/predicted, minFactor), maxFactor)
	relErr := math.Abs(observed-predicted) / predicted
	l.obs.Add(1)

	l.mu.Lock()
	if l.errInit {
		l.absRelErr += learnAlpha * (relErr - l.absRelErr)
	} else {
		l.absRelErr = relErr
		l.errInit = true
	}
	k := learnKey{b, c}
	e := l.corr[k]
	var old float64
	if e == nil {
		e = &corr{factor: ratio}
		l.corr[k] = e
		old = 1
	} else {
		old = e.factor
		e.factor += learnAlpha * (ratio - e.factor)
	}
	e.n++
	changed := math.Abs(e.factor-old)/old > genEpsilon
	l.mu.Unlock()

	if changed {
		l.gen.Add(1)
	}
}

// LearnerStats is a point-in-time snapshot for /metricsz and -plan.
type LearnerStats struct {
	Observations int64   `json:"observations"`
	Buckets      int     `json:"buckets"`
	MeanAbsErr   float64 `json:"mean_abs_rel_err"` // EWMA of |obs-pred|/pred
	Gen          uint64  `json:"gen"`
}

// Stats snapshots the learner.
func (l *Learner) Stats() LearnerStats {
	l.mu.RLock()
	n := len(l.corr)
	err := l.absRelErr
	l.mu.RUnlock()
	return LearnerStats{
		Observations: l.obs.Load(),
		Buckets:      n,
		MeanAbsErr:   err,
		Gen:          l.gen.Load(),
	}
}

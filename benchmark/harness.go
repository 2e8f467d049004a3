package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"
)

// env is what every workload is handed: the seed, the seconds its op
// counts are sized for, the calibrator, and the span recorder (nil on the
// untraced run).
type env struct {
	seed    uint64
	seconds float64
	cal     *calibrator
	rec     *recorder
	// recAll is the traced run's recorder. The measured loops point rec
	// at it for every other op or block, so traced and untraced ops
	// interleave on the same machine and their ratio is the tracing
	// overhead.
	recAll *recorder
	opSeq  int64 // op ids for spans
	err    error // first failure inside a probe's timed closure
}

func (e *env) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

func (e *env) alternate(i int) {
	if e.recAll == nil {
		return
	}
	e.rec = nil
	if i%2 == 0 {
		e.rec = e.recAll
	}
}

// phase accumulates one measured phase. Samples are grouped by epoch: a
// workload rebuilds its engines, or its server, once per epoch. A sample
// is one op, except on serve-hot, where it is the median of a window of
// hotWindow requests.
type phase struct {
	cal        *calibrator
	epochCalMs [][]float32 // calibrated op durations, per epoch
	rawMs      []float32   // raw op durations, pooled (diagnosis)
	sliceMs    []float64   // calibration slice durations
	// hist holds, on serve-hot, every request's calibrated latency.
	hist       *histogram
	tracedMs   []float32 // calibrated, ops run with spans on
	untracedMs []float32 // calibrated, ops run with spans off
	busyCal    time.Duration
	busyRaw    time.Duration
	alloc      uint64
	attempted  int
	failed     int
}

// newEpoch opens an epoch with room for about sizeHint samples.
func (p *phase) newEpoch(sizeHint int) {
	p.epochCalMs = append(p.epochCalMs, make([]float32, 0, sizeHint))
	p.rawMs = slices.Grow(p.rawMs, sizeHint)
}

// add records one timed op: raw duration and the calibration slices
// taken before and after it. It returns the calibrated milliseconds.
func (p *phase) add(raw, calBefore, calAfter time.Duration) float32 {
	d := float32(ms(scale(raw, calBefore, calAfter)))
	last := len(p.epochCalMs) - 1
	p.epochCalMs[last] = append(p.epochCalMs[last], d)
	p.rawMs = append(p.rawMs, float32(ms(raw)))
	return d
}

// compare files a sample under traced or untraced, for the tracing
// overhead.
func (p *phase) compare(calMs float32, traced bool) {
	if traced {
		p.tracedMs = append(p.tracedMs, calMs)
	} else {
		p.untracedMs = append(p.untracedMs, calMs)
	}
}

// busy records one timed section (an engine op, or a block of serve
// ops): goodput divides by the calibrated sum of these.
func (p *phase) busy(raw, calBefore, calAfter time.Duration) {
	p.busyRaw += raw
	p.busyCal += scale(raw, calBefore, calAfter)
}

func (p *phase) pooled() []float32 {
	all := slices.Concat(p.epochCalMs...)
	slices.Sort(all)
	return all
}

// p50 is the median of per-epoch medians, so one epoch with an unlucky
// memory layout moves it by at most one rank.
func (p *phase) p50() float32 {
	var meds []float32
	for _, e := range p.epochCalMs {
		if len(e) > 0 {
			meds = append(meds, median(e))
		}
	}
	return median(meds)
}

// endToEnd fills the host-clock end-to-end metrics every workload shares.
// It refuses a phase too short for its p95: ten samples must lie beyond.
func (p *phase) endToEnd(m *metricSet) error {
	pooled := p.pooled()
	p95, n := float64(percentile(pooled, 95)), len(pooled)
	if p.hist != nil {
		p95, n = p.hist.percentile(95), p.hist.n
	}
	if beyond := samplesBeyond(n, 95); beyond < minBeyond {
		return fmt.Errorf("op_p95_ms: %d samples leave %d beyond the percentile, fewer than %d", n, beyond, minBeyond)
	}
	m.set("op_p50_ms", float64(p.p50()), "ms_cal")
	m.set("op_p95_ms", p95, "ms_cal")
	m.set("goodput_per_s", float64(p.attempted-p.failed)/p.busyCal.Seconds(), "1/s_cal")
	m.set("alloc_kb_per_op", float64(p.alloc)/1024/float64(max(p.attempted, 1)), "KB")
	m.set("peak_rss_mb", peakRSSMB(), "MB")
	var meds []float32
	for _, e := range p.epochCalMs {
		meds = append(meds, median(e))
	}
	logf("ops=%d failed=%d; per-epoch medians %v ms_cal; p95 of %d samples, %d beyond it", p.attempted, p.failed, meds, n, samplesBeyond(n, 95))
	// The same numbers before calibration, for the noise study.
	rawSorted, cals := sortedCopy(p.rawMs), sortedCopy(p.sliceMs)
	logf(`raw {"op_p50_ms": %v, "op_p95_ms": %v, "goodput_per_s": %v, "cal_ms": %v, "cal_p10_ms": %v, "cal_p90_ms": %v}`,
		percentile(rawSorted, 50), percentile(rawSorted, 95), float64(p.attempted-p.failed)/p.busyRaw.Seconds(),
		percentile(cals, 50), percentile(cals, 10), percentile(cals, 90))
	return nil
}

func (p *phase) slice() time.Duration {
	d := p.cal.slice()
	p.sliceMs = append(p.sliceMs, ms(d))
	return d
}

// metricSet is name -> (value, unit) in emission order.
type metricSet struct {
	vals  map[string]metricValue
	order []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newMetricSet() *metricSet {
	return &metricSet{vals: make(map[string]metricValue)}
}

func (m *metricSet) set(name string, v float64, unit string) {
	if _, ok := m.vals[name]; !ok {
		m.order = append(m.order, name)
	}
	m.vals[name] = metricValue{Value: v, Unit: unit}
}

// setDefault keeps a value the workload's own spans already produced.
func (m *metricSet) setDefault(name string, v float64, unit string) {
	if _, ok := m.vals[name]; !ok {
		m.set(name, v, unit)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocBytes reads the cumulative heap allocation counter without
// stopping the world (runtime.ReadMemStats would).
func allocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// peakRSSMB reads the process's resident-set high-water mark. Each
// workload runs in its own process, so peaks do not leak across.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.Sys) / (1 << 20)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// stopwatch adds up the calibrated time of a set-up, stage by stage, with
// a calibration slice between stages: a set-up is one long section, and
// scaled by the two slices at its ends alone it was the noisiest number
// the benchmark had (the machine changes speed in less time than a
// set-up takes). A nil stopwatch runs the stages untimed.
type stopwatch struct {
	cal      *calibrator
	before   time.Duration
	sum, raw time.Duration
}

func newStopwatch(c *calibrator) *stopwatch { return &stopwatch{cal: c, before: c.slice()} }

func (w *stopwatch) lap(stage func()) {
	if w == nil {
		stage()
		return
	}
	start := time.Now()
	stage()
	raw := time.Since(start)
	after := w.cal.slice()
	w.sum += scale(raw, w.before, after)
	w.raw += raw
	w.before = after
}

// timed runs fn under a span, between two steady calibration readings
// taken outside the span, and returns the calibrated duration.
func (e *env) timed(name string, parent int, fn func()) time.Duration {
	before := e.cal.steady()
	sp := e.rec.begin(name, parent, 0)
	start := time.Now()
	fn()
	raw := time.Since(start)
	e.rec.end(sp)
	return scale(raw, before, e.cal.steady())
}

package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans are
// recorded by the benchmark around its own calls; nothing inside the
// program under test is instrumented.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	Op     int64  `json:"op"`     // spans of one op share this id
	// Cal is calRefMs over the calibration slice taken last before the
	// span began: duration x Cal is the span in reference-box time.
	Cal float64 `json:"cal"`
}

// recorder keeps spans in memory and writes them when the run ends. A nil
// recorder records nothing, which is how the untraced run is untraced.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	cal   *calibrator
	spans []span
}

func newRecorder(cal *calibrator) *recorder { return &recorder{t0: time.Now(), cal: cal} }

const noSpan = -1

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(name string, parent int, op int64) int {
	if r == nil {
		return noSpan
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: parent, Op: op, Cal: r.cal.factor})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id == noSpan {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (overlapping children are counted
// once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// calMs collects the calibrated durations, in milliseconds, of every
// span with the given name.
func (r *recorder) calMs(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6*s.Cal)
		}
	}
	return out
}

// selfByName sums self time per span name, in milliseconds.
func (r *recorder) selfByName() map[string]float64 {
	out := make(map[string]float64)
	for i, d := range selfTimes(r.spans) {
		out[r.spans[i].Name] += float64(d) / 1e6
	}
	return out
}

type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	SelfMs   map[string]float64 `json:"self_ms_by_name"`
	Spans    []span             `json:"spans"`
}

func (r *recorder) write(path, workload string, seed uint64) error {
	enc, err := json.Marshal(traceFile{Workload: workload, Seed: seed, SelfMs: r.selfByName(), Spans: r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, enc, 0o644)
}

// Package obs is the observability layer: a low-overhead event API
// threaded through the engines, the worker pool, the fault layer and the
// serving layer, with pluggable sinks (Chrome trace export, per-superstep
// breakdown tables, an in-memory flight recorder).
//
// The design rules, in priority order:
//
//  1. Disabled tracing is free. A nil *Tracer is the disabled tracer:
//     every method is nil-safe and allocation-free, so instrumentation
//     sites need no guards and the hot path pays one predictable branch.
//  2. Tracing never perturbs simulated output. Engine events are stamped
//     with the simulated clock and read ledgers the engines already
//     maintain; a traced run is bit-identical to an untraced one.
//  3. One event schema everywhere. polymer, polymerd and experiments
//     emit the same Event, so every sink works with every binary.
//
// Timestamps live in two distinct lanes, distinguished by Pid: simulated
// time (PidSim, deterministic, golden-testable) and host wall time
// (PidHost for the pool, PidServe for request spans).
package obs

import (
	"sync"
	"time"

	"polymer/internal/numa"
)

// Pid lanes separate the two clock domains (and serving) in trace
// viewers: events within one pid share a comparable time axis.
const (
	// PidSim is the simulated-machine lane; Ts/Dur are simulated
	// microseconds and deterministic across runs.
	PidSim = 0
	// PidHost is the host-execution lane (par.Pool dispatches); Ts/Dur are
	// wall microseconds since process start.
	PidHost = 1
	// PidServe is the serving lane (polymerd request spans); wall clock.
	PidServe = 2
	// PidPlan is the planner lane (profile builds, plan decisions and
	// learner observations); wall clock, like PidServe.
	PidPlan = 3
)

// Event phase types, mirroring the Chrome trace_event "ph" field.
const (
	// PhSpan is a complete event: Ts..Ts+Dur.
	PhSpan = "X"
	// PhInstant is a point event at Ts.
	PhInstant = "i"
)

// Event is one trace record. Fields are fixed and typed — no maps — so
// emitting an event allocates nothing beyond what the sink retains.
type Event struct {
	// Name is the event kind: "edgemap", "vertexmap", "superstep",
	// "checkpoint", "rollback", "replay", "request", "pool.run",
	// "evict", ...
	Name string `json:"name"`
	// Cat is the emitting subsystem: an engine name ("polymer", "ligra",
	// "xstream", "galois"), "fault", "serve", "par" or "micro" (the
	// Figure 4 bandwidth sweep).
	Cat string `json:"cat"`
	// Ph is PhSpan or PhInstant.
	Ph string `json:"ph"`
	// Pid selects the clock lane (PidSim, PidHost, PidServe).
	Pid int `json:"pid"`
	// Tid is a free sub-lane within the pid (0 unless stated otherwise).
	Tid int `json:"tid"`
	// Ts is the event start in microseconds (simulated or wall, per Pid);
	// Dur the span length for PhSpan events.
	Ts  float64 `json:"ts"`
	Dur float64 `json:"dur,omitempty"`

	// Step is the superstep index for engine events, -1 when not
	// applicable.
	Step int `json:"step"`
	// Active is the phase's input frontier size (engine events) or a
	// request id (serve spans); 0 when not applicable.
	Active int64 `json:"active,omitempty"`
	// Dense and Push describe an edgemap phase's representation and
	// direction.
	Dense bool `json:"dense,omitempty"`
	Push  bool `json:"push,omitempty"`
	// Detail is free-form context: fault error text, request status.
	Detail string `json:"detail,omitempty"`
	// Traffic is the per-node × per-hop × SEQ/RAND byte attribution of a
	// superstep event; nil for other events. Sinks must treat it as
	// immutable.
	Traffic *numa.TrafficMatrix `json:"traffic,omitempty"`
}

// Sink receives emitted events. Sinks are called under the tracer's lock:
// one event at a time, in emission order. Implementations must not call
// back into the tracer.
type Sink interface {
	Emit(Event)
}

// Multi fans one event out to several sinks in order.
type Multi []Sink

// Emit implements Sink.
func (m Multi) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}

// PhaseLog is a sink that keeps the engines' edgemap and vertexmap events
// in emission order: the per-phase view of a run, rolled-back attempts
// included.
type PhaseLog struct {
	Events []Event
}

// Emit implements Sink.
func (p *PhaseLog) Emit(ev Event) {
	if ev.Pid == PidSim && (ev.Name == "edgemap" || ev.Name == "vertexmap") {
		p.Events = append(p.Events, ev)
	}
}

// Tracer routes events to a sink. The nil *Tracer is the disabled tracer:
// all methods are nil-safe no-ops, and instrumented code holds tracers as
// plain fields with no enabled flag. A non-nil Tracer serialises sink
// calls, so engines, the pool and the server can share one.
type Tracer struct {
	mu   sync.Mutex
	sink Sink
}

// New returns a tracer feeding sink, or nil (the disabled tracer) when
// sink is nil.
func New(sink Sink) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{sink: sink}
}

// Enabled reports whether events reach a sink.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit sends one event to the sink.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sink.Emit(ev)
	t.mu.Unlock()
}

// Phase records one engine phase (edgemap, vertexmap, scatter, ...) on the
// simulated clock: cat is the engine, simStart/simDur in seconds.
func (t *Tracer) Phase(cat, kind string, dense, push bool, active int64, simStart, simDur float64) {
	if t == nil {
		return
	}
	t.Emit(Event{
		Name: kind, Cat: cat, Ph: PhSpan, Pid: PidSim,
		Ts: simStart * 1e6, Dur: simDur * 1e6,
		Step: -1, Active: active, Dense: dense, Push: push,
	})
}

// Superstep records one committed superstep with its traffic attribution.
// The tracer takes ownership of tm; callers must pass a fresh matrix.
func (t *Tracer) Superstep(cat string, step int, simStart, simDur float64, tm *numa.TrafficMatrix) {
	if t == nil {
		return
	}
	t.Emit(Event{
		Name: "superstep", Cat: cat, Ph: PhSpan, Pid: PidSim, Tid: 1,
		Ts: simStart * 1e6, Dur: simDur * 1e6,
		Step: step, Traffic: tm,
	})
}

// Instant records a point event on the simulated clock (fault checkpoints,
// rollbacks, replays, cache evictions).
func (t *Tracer) Instant(cat, name string, step int, simTs float64, detail string) {
	if t == nil {
		return
	}
	t.Emit(Event{
		Name: name, Cat: cat, Ph: PhInstant, Pid: PidSim,
		Ts: simTs * 1e6, Step: step, Detail: detail,
	})
}

// HostInstant records a point event on a host-clock lane (load shedding,
// cache evictions, invalidations); ts is wall microseconds (see NowMicros).
func (t *Tracer) HostInstant(cat, name string, pid int, ts float64, step int, detail string) {
	if t == nil {
		return
	}
	t.Emit(Event{
		Name: name, Cat: cat, Ph: PhInstant, Pid: pid,
		Ts: ts, Step: step, Detail: detail,
	})
}

// Span records a host-clock span (pool dispatches, request lifecycles) in
// the given pid lane; ts and dur are wall microseconds (see NowMicros).
func (t *Tracer) Span(cat, name string, pid int, ts, dur float64, step int, active int64, detail string) {
	if t == nil {
		return
	}
	t.Emit(Event{
		Name: name, Cat: cat, Ph: PhSpan, Pid: pid,
		Ts: ts, Dur: dur, Step: step, Active: active, Detail: detail,
	})
}

// processStart anchors the host-clock lanes so wall timestamps are small
// and comparable within one process.
var processStart = time.Now()

// NowMicros returns wall microseconds since process start, the time base
// of the PidHost and PidServe lanes.
func NowMicros() float64 {
	return float64(time.Since(processStart)) / float64(time.Microsecond)
}

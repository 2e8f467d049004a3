package obs

import (
	"sync"
	"testing"

	"polymer/internal/numa"
)

// collect is a trivial sink for assertions.
type collect struct {
	mu  sync.Mutex
	evs []Event
}

func (c *collect) Emit(ev Event) {
	c.mu.Lock()
	c.evs = append(c.evs, ev)
	c.mu.Unlock()
}

func (c *collect) all() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.evs...)
}

// stubSource is a minimal SimSource whose tracer can be toggled.
type stubSource struct {
	tr  *Tracer
	sim float64
}

func (s *stubSource) Tracer() *Tracer     { return s.tr }
func (s *stubSource) TraceCat() string    { return "stub" }
func (s *stubSource) SimSeconds() float64 { return s.sim }
func (s *stubSource) TrafficSnapshot(dst *numa.TrafficMatrix) {
	dst.Resize(2, 2)
	dst.Cells[0] = s.sim * 100
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	// None of these may panic.
	tr.Emit(Event{Name: "x"})
	tr.Phase("polymer", "edgemap", true, true, 10, 0, 1)
	tr.Superstep("polymer", 0, 0, 1, nil)
	tr.Instant("fault", "rollback", 1, 0.5, "err")
	tr.HostInstant("serve", "shed", PidServe, 1, -1, "")
	tr.Span("serve", "request", PidServe, 0, 1, -1, 7, "")
	if New(nil) != nil {
		t.Fatal("New(nil) must return the disabled tracer")
	}
}

// TestDisabledPathAllocsNothing is the hard overhead contract: with
// tracing off, every instrumentation site is allocation-free.
func TestDisabledPathAllocsNothing(t *testing.T) {
	var tr *Tracer
	var src any = &stubSource{} // nil tracer
	if allocs := testing.AllocsPerRun(200, func() {
		tr.Phase("polymer", "edgemap", true, true, 10, 0, 1)
		tr.Superstep("polymer", 0, 0, 1, nil)
		tr.Instant("fault", "rollback", 1, 0.5, "")
		tr.Span("serve", "request", PidServe, 0, 1, -1, 7, "")
		tr.HostInstant("serve", "shed", PidServe, 1, 0, "")
		sp := BeginStep(src, 3)
		sp.End()
	}); allocs != 0 {
		t.Fatalf("disabled tracing allocates %.1f objects per op, want 0", allocs)
	}
}

func TestBeginStepEmitsDelta(t *testing.T) {
	sink := &collect{}
	src := &stubSource{tr: New(sink), sim: 2}
	sp := BeginStep(src, 4)
	src.sim = 5 // the step "runs": clock and traffic advance
	sp.End()

	evs := sink.all()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Name != "superstep" || ev.Cat != "stub" || ev.Step != 4 || ev.Pid != PidSim {
		t.Fatalf("bad event: %+v", ev)
	}
	if ev.Ts != 2e6 || ev.Dur != 3e6 {
		t.Errorf("ts/dur = %g/%g, want 2e6/3e6", ev.Ts, ev.Dur)
	}
	if ev.Traffic == nil || ev.Traffic.Cells[0] != 300 {
		t.Errorf("traffic delta = %+v, want cell0 = 300", ev.Traffic)
	}

	// A source without the capability yields a no-op span.
	sp2 := BeginStep(struct{}{}, 0)
	sp2.End()
	if len(sink.all()) != 1 {
		t.Error("no-op span emitted an event")
	}
}

func TestMultiFansOut(t *testing.T) {
	a, b := &collect{}, &collect{}
	tr := New(Multi{a, b})
	tr.Instant("fault", "checkpoint", 0, 0, "")
	if len(a.all()) != 1 || len(b.all()) != 1 {
		t.Fatalf("multi did not fan out: %d/%d", len(a.all()), len(b.all()))
	}
}

func TestRingWraparound(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Emit(Event{Step: i})
	}
	if r.Total() != 5 {
		t.Fatalf("total = %d, want 5", r.Total())
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len = %d, want 3", len(snap))
	}
	for i, ev := range snap {
		if want := i + 2; ev.Step != want { // oldest retained first: 2,3,4
			t.Errorf("snap[%d].Step = %d, want %d", i, ev.Step, want)
		}
	}

	// Partial fill returns only what was written.
	r2 := NewRing(8)
	r2.Emit(Event{Step: 9})
	if snap := r2.Snapshot(); len(snap) != 1 || snap[0].Step != 9 {
		t.Errorf("partial snapshot = %+v", snap)
	}

	// Zero-size ring records nothing but stays safe.
	r3 := NewRing(0)
	r3.Emit(Event{})
	if len(r3.Snapshot()) != 0 || r3.Total() != 1 {
		t.Error("zero-size ring misbehaved")
	}
}

func TestRecorderRouting(t *testing.T) {
	rec := NewRecorder(4, 4)
	rec.Emit(Event{Cat: "serve", Name: "request"})
	rec.Emit(Event{Cat: "polymer", Name: "superstep"})
	rec.Emit(Event{Cat: "fault", Name: "rollback"})
	if got := len(rec.Requests.Snapshot()); got != 1 {
		t.Errorf("requests ring holds %d, want 1", got)
	}
	if got := len(rec.Steps.Snapshot()); got != 2 {
		t.Errorf("steps ring holds %d, want 2", got)
	}
}

// TestConcurrentEmission hammers one tracer from many goroutines; run
// under -race this is the thread-safety check for the tracer and sinks.
func TestConcurrentEmission(t *testing.T) {
	chrome := NewChrome()
	bd := NewBreakdown()
	ring := NewRing(64)
	tr := New(Multi{chrome, bd, ring})

	var wg sync.WaitGroup
	const workers, per = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				switch i % 3 {
				case 0:
					tr.Phase("polymer", "edgemap", true, false, int64(i), float64(i), 1)
				case 1:
					tm := &numa.TrafficMatrix{}
					tm.Resize(2, 2)
					tr.Superstep("polymer", i, float64(i), 1, tm)
				default:
					tr.Span("serve", "request", PidServe, float64(i), 1, -1, int64(w), "ok")
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := chrome.Len(), workers*per; got != want {
		t.Fatalf("chrome sink saw %d events, want %d", got, want)
	}
	if got := len(bd.Rows()); got != workers*(per/3) {
		t.Fatalf("breakdown rows = %d, want %d", got, workers*(per/3))
	}
}

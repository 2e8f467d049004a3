package fault

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"polymer/internal/numa"
)

func TestScheduleDeterministic(t *testing.T) {
	a := Schedule(42, 5, 8, 4)
	b := Schedule(42, 5, 8, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", specOf(a), specOf(b))
	}
	if len(a) != 4 {
		t.Fatalf("want panic+stall+offline+link = 4 events, got %d", len(a))
	}
}

func TestScheduleSeedsDiffer(t *testing.T) {
	seen := map[string]uint64{}
	for seed := uint64(1); seed <= 8; seed++ {
		s := specOf(Schedule(seed, 7, 16, 4))
		if prev, ok := seen[s]; ok {
			t.Fatalf("seeds %d and %d collide on schedule %q", prev, seed, s)
		}
		seen[s] = seed
	}
}

func TestScheduleSingleNodeOmitsLink(t *testing.T) {
	evs := Schedule(1, 5, 4, 1)
	for _, ev := range evs {
		if ev.Kind == LinkDegraded {
			t.Fatalf("single-node schedule contains a link event: %s", ev)
		}
	}
}

func TestScheduleSorted(t *testing.T) {
	evs := Schedule(7, 9, 8, 4)
	for i := 1; i < len(evs); i++ {
		if evs[i].Step < evs[i-1].Step {
			t.Fatalf("schedule not sorted by step: %s", specOf(evs))
		}
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	spec := "panic@2:t3,stall@1:t0,offline@1:n1,link@3:n0-n1*0.25,alloc@0,alloc@-1"
	evs, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 6 {
		t.Fatalf("want 6 events, got %d", len(evs))
	}
	again, err := ParseSpec(specOf(evs))
	if err != nil {
		t.Fatalf("re-parsing %q: %v", specOf(evs), err)
	}
	if specOf(again) != specOf(evs) {
		t.Fatalf("round trip changed spec: %q vs %q", specOf(evs), specOf(again))
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"bogus@1:t0",       // unknown kind
		"panic",            // missing @step
		"panic@x:t0",       // non-numeric step
		"panic@1",          // missing thread target
		"panic@1:n0",       // wrong target class
		"offline@1:t0",     // wrong target class
		"link@1:n0*0.5",    // missing pair
		"link@1:n0-n1*1.5", // factor out of range
		"link@1:n0-n1*0",   // factor out of range
		"alloc@1:t0",       // alloc takes no target
		"stall@2",          // missing thread target
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted malformed spec", bad)
		}
	}
}

func TestCheckFinite(t *testing.T) {
	if err := CheckFinite("x", []float64{0, 1.5, -2}); err != nil {
		t.Fatalf("finite input rejected: %v", err)
	}
	if err := CheckFinite("x", []float64{0, math.NaN()}); err == nil {
		t.Fatal("NaN not detected")
	}
	if err := CheckFinite("x", []float64{math.Inf(1)}); err == nil {
		t.Fatal("+Inf not detected")
	}
}

func TestWatchdogBudget(t *testing.T) {
	w := Watchdog{MaxSteps: 3}
	for i := 0; i < 3; i++ {
		if err := w.Tick(1); err != nil {
			t.Fatalf("step %d within budget errored: %v", i, err)
		}
	}
	if err := w.Tick(1); err == nil {
		t.Fatal("budget overrun not detected")
	}
}

func TestWatchdogStall(t *testing.T) {
	w := Watchdog{StallSteps: 2}
	if err := w.Tick(5); err != nil {
		t.Fatal(err)
	}
	if err := w.Tick(5); err != nil { // first repeat: stalled=1
		t.Fatal(err)
	}
	if err := w.Tick(5); err == nil { // second repeat: stall
		t.Fatal("stalled frontier not detected")
	}
	// Progress resets the counter; empty frontiers never count as a stall.
	w = Watchdog{StallSteps: 2}
	for _, c := range []int64{5, 5, 6, 6, 0, 0, 0} {
		if err := w.Tick(c); err != nil {
			t.Fatalf("Tick(%d): %v", c, err)
		}
	}
}

// fakeEngine is a minimal Engine for driving Session without a real graph
// engine: one tracked clock that work advances, plus the hook plumbing.
type fakeEngine struct {
	m     *numa.Machine
	err   error
	hook  func(int) error
	clock float64
	snap  float64
}

func (f *fakeEngine) Machine() *numa.Machine         { return f.m }
func (f *fakeEngine) Err() error                     { return f.err }
func (f *fakeEngine) ClearErr()                      { f.err = nil }
func (f *fakeEngine) SnapshotSim()                   { f.snap = f.clock }
func (f *fakeEngine) RestoreSim()                    { f.clock = f.snap }
func (f *fakeEngine) SetFaultHook(h func(int) error) { f.hook = h }
func (f *fakeEngine) SetContext(context.Context)     {}

func newFakeEngine() *fakeEngine {
	return &fakeEngine{m: numa.NewMachine(numa.IntelXeon80(), 2, 2)}
}

// TestSessionRollbackReplay injects a worker panic at step 1 and checks the
// faulty attempt is rolled back (tracked state and clock restored) before a
// clean replay commits.
func TestSessionRollbackReplay(t *testing.T) {
	evs, err := ParseSpec("panic@1:t0")
	if err != nil {
		t.Fatal(err)
	}
	eng := newFakeEngine()
	sess := NewSession(eng, NewInjector(evs))
	vals := make([]float64, 4)
	sess.TrackF64(vals)

	attempts := 0
	for step := 0; step < 3; step++ {
		err := sess.Step(step, func() error {
			attempts++
			// One unit of work: bump every vertex and the sim clock, then
			// pass through the dispatch hook as the worker pool would.
			for i := range vals {
				vals[i]++
			}
			eng.clock++
			if eng.hook != nil {
				for th := 0; th < eng.m.Threads(); th++ {
					if err := eng.hook(th); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if attempts != 4 {
		t.Fatalf("want 3 committed + 1 rolled-back attempt, got %d", attempts)
	}
	if sess.Rollbacks() != 1 {
		t.Fatalf("want 1 rollback, got %d", sess.Rollbacks())
	}
	for i, v := range vals {
		if v != 3 {
			t.Fatalf("vertex %d = %g after 3 committed steps, want 3 (rollback leaked)", i, v)
		}
	}
	if eng.clock != 3 {
		t.Fatalf("sim clock = %g, want 3", eng.clock)
	}
	if eng.hook != nil {
		t.Fatal("fault hook not removed after step")
	}
	if sess.Injector().Pending() {
		t.Fatal("injector still has unrepaired events")
	}
	actions := map[string]int{}
	for _, rec := range sess.Injector().Log() {
		actions[rec.Action]++
	}
	if actions["armed"] != 1 || actions["detected"] != 1 || actions["repaired"] != 1 {
		t.Fatalf("unexpected log %v", sess.Injector().Log())
	}
}

// TestSessionLinkPerturbationReplays checks that a degraded link — which
// corrupts only the simulated clock, not correctness — still triggers a
// rollback so the replay runs at full bandwidth.
func TestSessionLinkPerturbationReplays(t *testing.T) {
	evs, err := ParseSpec("link@0:n0-n1*0.25")
	if err != nil {
		t.Fatal(err)
	}
	eng := newFakeEngine()
	sess := NewSession(eng, NewInjector(evs))
	runs := 0
	if err := sess.Step(0, func() error { runs++; return nil }); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("armed step must replay after repair: ran %d times, want 2", runs)
	}
	if sess.Rollbacks() != 1 {
		t.Fatalf("want 1 rollback, got %d", sess.Rollbacks())
	}
}

// TestSessionRetryBound checks a fault that persists across replays fails
// the step instead of looping forever.
func TestSessionRetryBound(t *testing.T) {
	eng := newFakeEngine()
	sess := NewSession(eng, NewInjector(nil))
	sess.SetMaxRetries(2)
	runs := 0
	err := sess.Step(0, func() error { runs++; panic("always broken") })
	if err == nil {
		t.Fatal("persistent fault not surfaced")
	}
	if runs != 3 {
		t.Fatalf("want initial attempt + 2 replays = 3 runs, got %d", runs)
	}
}

// TestStepNilSession checks the package-level fast path: no session means
// bare panic containment and nothing else.
func TestStepNilSession(t *testing.T) {
	if err := Step(nil, 0, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := Step(nil, 0, func() error { panic("boom") }); err == nil {
		t.Fatal("panic not converted to error")
	}
}

func TestArmSetup(t *testing.T) {
	evs, err := ParseSpec("alloc@-1")
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(evs)
	m := numa.NewMachine(numa.IntelXeon80(), 2, 2)
	if !inj.ArmSetup(m) {
		t.Fatal("setup event not armed")
	}
	if err := m.Alloc().Grow("t", 64); err == nil {
		t.Fatal("armed setup fault did not fail the next allocation")
	}
	m.Alloc().ClearFailure()
	inj.RetireSetup()
	if inj.Pending() {
		t.Fatal("setup event still pending after retire")
	}
	// A second arm attempt finds nothing: the event fires once.
	if inj.ArmSetup(numa.NewMachine(numa.IntelXeon80(), 2, 2)) {
		t.Fatal("retired setup event re-armed")
	}
}

func specOf(evs []*Event) string {
	parts := make([]string, len(evs))
	for i, ev := range evs {
		parts[i] = ev.String()
	}
	return strings.Join(parts, ",")
}

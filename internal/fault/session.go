package fault

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"polymer/internal/numa"
	"polymer/internal/obs"
	"polymer/internal/state"
)

// Engine is the surface a graph engine exposes to the recovery harness.
// All four engines (core, ligra, xstream, galois) implement it.
type Engine interface {
	// Machine returns the simulated machine the engine charges against.
	Machine() *numa.Machine
	// Err returns the first execution failure recorded by the engine
	// (worker panic, offline node, allocation failure), or nil.
	Err() error
	// ClearErr resets the failure so a rolled-back step can be replayed.
	ClearErr()
	// SnapshotSim saves the engine's simulated-time state (clock,
	// cumulative traffic ledger, metrics, trace position) into the
	// engine's single internal snapshot slot.
	SnapshotSim()
	// RestoreSim rolls the simulated-time state back to the snapshot.
	RestoreSim()
	// SetFaultHook installs (nil removes) the per-dispatch injection hook
	// on the engine's worker pool.
	SetFaultHook(func(th int) error)
	// SetContext installs a cancellation context consulted around each
	// parallel phase (nil restores the default). A cancelled context fails
	// the phase before any simulated charging, so an abandoned request
	// stops charging the sim at the next superstep boundary.
	SetContext(context.Context)
}

// Session wraps an engine's superstep loop with checkpoint/restart. The
// caller registers the algorithm's vertex arrays (Track*) and frontier
// accessors once, then funnels every superstep through Step: the session
// snapshots state, arms the injector's events for that step, runs the
// body, and on any detected fault rolls back, repairs, and replays.
type Session struct {
	eng Engine
	inj *Injector
	ck  *state.Checkpoint

	getFrontier   func() *state.Subset
	setFrontier   func(*state.Subset)
	savedFrontier *state.Subset

	maxRetries int
	rollbacks  int
}

// NewSession pairs an engine with an injector, which must be non-nil: a
// run with no faults to inject runs its steps with no session at all
// (Step with a nil session).
func NewSession(eng Engine, inj *Injector) *Session {
	return &Session{eng: eng, inj: inj, ck: state.NewCheckpoint(), maxRetries: 3}
}

// Checkpoint returns the session's state checkpoint for Track* calls.
func (s *Session) Checkpoint() *state.Checkpoint { return s.ck }

// TrackF64 registers float64 vertex arrays for snapshotting.
func (s *Session) TrackF64(xs ...[]float64) { s.ck.TrackF64(xs...) }

// TrackU32 registers uint32 vertex arrays for snapshotting.
func (s *Session) TrackU32(xs ...[]uint32) { s.ck.TrackU32(xs...) }

// TrackI64 registers int64 vertex arrays for snapshotting.
func (s *Session) TrackI64(xs ...[]int64) { s.ck.TrackI64(xs...) }

// Frontier registers the algorithm's frontier accessors. Subsets are
// immutable, so the snapshot retains the pointer — no copying.
func (s *Session) Frontier(get func() *state.Subset, set func(*state.Subset)) {
	s.getFrontier, s.setFrontier = get, set
}

// SetMaxRetries bounds how many times one step may be replayed.
func (s *Session) SetMaxRetries(n int) { s.maxRetries = n }

// Rollbacks returns how many step rollbacks the session performed.
func (s *Session) Rollbacks() int { return s.rollbacks }

// Injector returns the session's injector (for its log).
func (s *Session) Injector() *Injector { return s.inj }

// Step is the package-level superstep wrapper: with a nil session it
// degrades to bare panic containment (Catch) with zero further overhead,
// so fault-free call sites pay nothing.
func Step(s *Session, step int, body func() error) error {
	if s == nil {
		return Catch(body)
	}
	return s.Step(step, body)
}

// traceSource is the optional tracing capability of an engine. It is
// asserted per step rather than added to Engine, so engines without
// tracing still satisfy the interface and a tracer installed after the
// session was built is picked up.
type traceSource interface {
	Tracer() *obs.Tracer
	SimSeconds() float64
}

// trace returns the engine's tracer and simulated clock, or nil when the
// engine has no enabled tracer.
func (s *Session) trace() (*obs.Tracer, float64) {
	if ts, ok := s.eng.(traceSource); ok {
		if tr := ts.Tracer(); tr != nil {
			return tr, ts.SimSeconds()
		}
	}
	return nil, 0
}

// Step runs one superstep under the session's fault regime:
//
//	save state  ->  arm this step's events  ->  run body  ->  detect
//
// A detected fault (engine error, escaped panic, or an armed clock
// perturbation such as a degraded link) rolls vertex state, the frontier,
// and the simulated clock back to the pre-step snapshot, repairs the
// fault, and replays the step. Replay of a repaired step is clean, so
// the committed result is bit-identical to a fault-free run.
func (s *Session) Step(step int, body func() error) error {
	evs := s.inj.eventsAt(step)
	for attempt := 0; ; attempt++ {
		s.save()
		if tr, sim := s.trace(); tr != nil {
			if attempt > 0 {
				tr.Instant("fault", "replay", step, sim, fmt.Sprintf("attempt %d", attempt+1))
			} else {
				tr.Instant("fault", "checkpoint", step, sim, "")
			}
		}
		armed := s.arm(evs)
		err := Catch(body)
		s.disarm(evs)
		if err == nil {
			err = s.eng.Err()
		}
		if err == nil && !armed {
			return nil // commit
		}
		// Cancellation is not a repairable fault: the caller abandoned the
		// request, so roll the step's partial state and sim charges back
		// (no post-cancel charging) and surface the context error without
		// replaying.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.eng.ClearErr()
			s.restore()
			if tr, sim := s.trace(); tr != nil {
				tr.Instant("fault", "rollback", step, sim, err.Error())
			}
			return err
		}
		if err != nil {
			for _, ev := range evs {
				if ev.fired && !ev.repaired {
					s.inj.record(ev, "detected")
				}
			}
		}
		s.eng.ClearErr()
		s.restore()
		s.repair(evs)
		s.rollbacks++
		if tr, sim := s.trace(); tr != nil {
			detail := "armed fault"
			if err != nil {
				detail = err.Error()
			}
			tr.Instant("fault", "rollback", step, sim, detail)
		}
		if attempt >= s.maxRetries {
			if err == nil {
				err = fmt.Errorf("fault: step %d: fault persisted", step)
			}
			return fmt.Errorf("fault: step %d failed after %d replays: %w", step, attempt+1, err)
		}
	}
}

func (s *Session) save() {
	s.ck.Save()
	if s.getFrontier != nil {
		// Subsets are immutable; retaining the pointer is the snapshot.
		s.savedFrontier = s.getFrontier()
	}
	s.eng.SnapshotSim()
}

func (s *Session) restore() {
	s.ck.Restore()
	s.eng.RestoreSim()
}

// arm applies this step's not-yet-fired events to the machine and pool
// and reports whether any event is live for this attempt. Events are
// marked fired here, so a replay after repair arms nothing.
func (s *Session) arm(evs []*Event) bool {
	m := s.eng.Machine()
	var hooked []*Event
	armed := false
	for _, ev := range evs {
		if ev.fired || ev.repaired {
			continue
		}
		ev.fired = true
		armed = true
		s.inj.record(ev, "armed")
		switch ev.Kind {
		case WorkerPanic, WorkerStall:
			hooked = append(hooked, ev)
		case NodeOffline:
			_ = m.SetNodeOffline(ev.Node%m.Nodes, true)
			hooked = append(hooked, ev)
		case LinkDegraded:
			_ = m.DegradeLink(ev.Node%m.Nodes, ev.NodeB%m.Nodes, ev.Factor)
		case AllocFail:
			m.Alloc().FailNext("")
		}
	}
	if len(hooked) > 0 {
		threads := m.Threads()
		shots := make([]atomic.Bool, len(hooked))
		s.eng.SetFaultHook(func(th int) error {
			for i, ev := range hooked {
				switch ev.Kind {
				case WorkerPanic:
					if th == ev.Thread%threads && shots[i].CompareAndSwap(false, true) {
						panic(fmt.Sprintf("fault: injected panic on worker %d", th))
					}
				case WorkerStall:
					if th == ev.Thread%threads && shots[i].CompareAndSwap(false, true) {
						time.Sleep(time.Millisecond)
						return fmt.Errorf("fault: injected stall on worker %d", th)
					}
				case NodeOffline:
					if m.NodeOfThread(th) == ev.Node%m.Nodes {
						return fmt.Errorf("fault: node %d offline", ev.Node%m.Nodes)
					}
				}
			}
			return nil
		})
	}
	return armed
}

// disarm removes the dispatch hook after the attempt; machine-level
// effects are reverted by repair.
func (s *Session) disarm(evs []*Event) {
	if len(evs) > 0 {
		s.eng.SetFaultHook(nil)
	}
}

// repair reverts machine-level fault effects and retires the events so
// the replay runs clean.
func (s *Session) repair(evs []*Event) {
	m := s.eng.Machine()
	if s.setFrontier != nil {
		s.setFrontier(s.savedFrontier)
	}
	for _, ev := range evs {
		if !ev.fired || ev.repaired {
			continue
		}
		switch ev.Kind {
		case NodeOffline:
			_ = m.SetNodeOffline(ev.Node%m.Nodes, false)
		case LinkDegraded:
			m.RepairLink(ev.Node%m.Nodes, ev.NodeB%m.Nodes)
		case AllocFail:
			m.Alloc().ClearFailure()
		}
		ev.repaired = true
		s.inj.record(ev, "repaired")
	}
}

// Catch runs body, converting an escaped panic into an error.
func Catch(body func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = fmt.Errorf("fault: recovered panic: %w", e)
			} else {
				err = fmt.Errorf("fault: recovered panic: %v", r)
			}
		}
	}()
	return body()
}

// ArmSetup arms the injector's setup-time event (Step < 0) against a
// machine about to construct an engine, and reports whether one fired.
// Setup faults are recovered by whole-run restart with a fresh machine:
// the harness discards the partially charged machine, so the retried
// run's peak-allocation accounting is untouched.
func (in *Injector) ArmSetup(m *numa.Machine) bool {
	ev := in.setupEvent()
	if ev == nil {
		return false
	}
	if ev.Kind != AllocFail {
		return false
	}
	ev.fired = true
	in.record(ev, "armed")
	m.Alloc().FailNext("")
	return true
}

// RetireSetup marks the fired setup event repaired after the harness has
// restarted the run.
func (in *Injector) RetireSetup() {
	for _, ev := range in.events {
		if ev.Step < 0 && ev.fired && !ev.repaired {
			ev.repaired = true
			in.record(ev, "restart")
		}
	}
}

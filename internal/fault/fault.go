// Package fault is the deterministic fault-injection substrate for the
// simulated NUMA machine. An Injector holds a schedule of events — worker
// panics, worker stalls, node-offline windows, link-bandwidth degradation,
// allocation failures — generated from a seed or parsed from a spec
// string, and arms them against a Machine / worker pool at superstep
// boundaries. A Session wraps an engine's superstep loop with
// checkpoint/restart: vertex state, the frontier, and the simulated
// clock/ledger are snapshotted before each step, injected faults are
// detected after the step, and a faulty step is rolled back, repaired and
// replayed so the final simulated output is bit-identical to a fault-free
// run.
//
// Everything is deterministic: the same seed produces the same schedule,
// and because recovery replays from state snapshots, runs with and
// without injected transient faults print identical dump goldens.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates injectable fault classes.
type Kind int

const (
	// WorkerPanic makes one worker panic at dispatch of the step's first
	// parallel phase.
	WorkerPanic Kind = iota
	// WorkerStall makes one worker sleep briefly and then fail its share
	// of the phase (a hung thread detected by the harness).
	WorkerStall
	// NodeOffline fails every worker on one simulated node for the step.
	NodeOffline
	// LinkDegraded runs one superstep with a node pair's bandwidth scaled
	// down, then repairs the link. It perturbs the simulated clock, so
	// recovery rolls the clock back and replays at full bandwidth.
	LinkDegraded
	// AllocFail makes the next simulated allocation fail. At Step < 0 it
	// fires during engine construction (recovered by whole-run restart).
	AllocFail
)

// String names the kind the way ParseSpec spells it.
func (k Kind) String() string {
	switch k {
	case WorkerPanic:
		return "panic"
	case WorkerStall:
		return "stall"
	case NodeOffline:
		return "offline"
	case LinkDegraded:
		return "link"
	case AllocFail:
		return "alloc"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one scheduled fault. Events fire exactly once: the injector
// marks an event fired when armed and repaired when the harness has
// recovered from it, so a replayed step re-executes cleanly.
type Event struct {
	Kind Kind
	// Step is the superstep index the event fires at. Step < 0 means
	// "during setup" (engine construction), which only AllocFail uses.
	Step int
	// Thread is the target worker for WorkerPanic/WorkerStall.
	Thread int
	// Node is the target for NodeOffline; NodeA/NodeB the pair for
	// LinkDegraded.
	Node, NodeB int
	// Factor is the LinkDegraded bandwidth multiplier in (0, 1).
	Factor float64

	fired    bool
	repaired bool
}

func (ev *Event) String() string {
	switch ev.Kind {
	case WorkerPanic, WorkerStall:
		return fmt.Sprintf("%s@%d:t%d", ev.Kind, ev.Step, ev.Thread)
	case NodeOffline:
		return fmt.Sprintf("%s@%d:n%d", ev.Kind, ev.Step, ev.Node)
	case LinkDegraded:
		return fmt.Sprintf("%s@%d:n%d-n%d*%g", ev.Kind, ev.Step, ev.Node, ev.NodeB, ev.Factor)
	case AllocFail:
		return fmt.Sprintf("%s@%d", ev.Kind, ev.Step)
	}
	return fmt.Sprintf("?@%d", ev.Step)
}

// Record is one log entry of injector activity, for the fault report.
type Record struct {
	Event  string
	Action string // "armed", "detected", "rolled back", "repaired", "restart"
}

// Injector owns a fault schedule and the log of what fired.
type Injector struct {
	events []*Event
	log    []Record
}

// NewInjector wraps an explicit schedule.
func NewInjector(events []*Event) *Injector {
	return &Injector{events: events}
}

// splitmix64 is the deterministic schedule generator: a tiny, seedable,
// platform-independent PRNG (math/rand would tie schedules to Go's
// generator evolution).
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix64) intn(n int) int { return int(r.next() % uint64(n)) }

// Schedule generates a deterministic schedule from a seed: one worker
// panic, one worker stall, one node-offline event, and one degraded-link
// event, spread over the first steps supersteps of a machine with the
// given thread and node counts. The same (seed, steps, threads, nodes)
// always yields the same schedule.
func Schedule(seed uint64, steps, threads, nodes int) []*Event {
	if steps < 1 {
		steps = 1
	}
	r := &splitmix64{s: seed}
	pick := func() int { return r.intn(steps) }
	evs := []*Event{
		{Kind: WorkerPanic, Step: pick(), Thread: r.intn(threads)},
		{Kind: WorkerStall, Step: pick(), Thread: r.intn(threads)},
		{Kind: NodeOffline, Step: pick(), Node: r.intn(nodes)},
	}
	if nodes > 1 {
		a := r.intn(nodes)
		b := r.intn(nodes - 1)
		if b >= a {
			b++
		}
		factor := 0.1 + 0.4*float64(r.intn(9))/8 // in {0.10, 0.15, ..., 0.50}
		evs = append(evs, &Event{Kind: LinkDegraded, Step: pick(), Node: a, NodeB: b, Factor: factor})
	}
	sortEvents(evs)
	return evs
}

func sortEvents(evs []*Event) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Step < evs[j].Step })
}

// ParseSpec parses a comma-separated fault spec, e.g.
//
//	panic@2:t3,stall@1:t0,offline@1:n1,link@3:n0-n1*0.25,alloc@0,alloc@-1
//
// kind@step with a kind-specific target: tN a thread, nN a node,
// nA-nB*F a link pair with bandwidth factor F. alloc takes no target;
// alloc@-1 fires during engine construction.
func ParseSpec(spec string) ([]*Event, error) {
	var evs []*Event
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ev, err := parseEvent(part)
		if err != nil {
			return nil, err
		}
		evs = append(evs, ev)
	}
	sortEvents(evs)
	return evs, nil
}

func parseEvent(s string) (*Event, error) {
	kindStr, rest, ok := strings.Cut(s, "@")
	if !ok {
		return nil, fmt.Errorf("fault: %q: want kind@step[:target]", s)
	}
	stepStr, target, _ := strings.Cut(rest, ":")
	step, err := strconv.Atoi(stepStr)
	if err != nil {
		return nil, fmt.Errorf("fault: %q: bad step %q", s, stepStr)
	}
	ev := &Event{Step: step}
	switch kindStr {
	case "panic", "stall":
		if kindStr == "panic" {
			ev.Kind = WorkerPanic
		} else {
			ev.Kind = WorkerStall
		}
		if !strings.HasPrefix(target, "t") {
			return nil, fmt.Errorf("fault: %q: want thread target tN", s)
		}
		if ev.Thread, err = strconv.Atoi(target[1:]); err != nil {
			return nil, fmt.Errorf("fault: %q: bad thread %q", s, target)
		}
	case "offline":
		ev.Kind = NodeOffline
		if !strings.HasPrefix(target, "n") {
			return nil, fmt.Errorf("fault: %q: want node target nN", s)
		}
		if ev.Node, err = strconv.Atoi(target[1:]); err != nil {
			return nil, fmt.Errorf("fault: %q: bad node %q", s, target)
		}
	case "link":
		ev.Kind = LinkDegraded
		pair, factorStr, ok := strings.Cut(target, "*")
		if !ok {
			return nil, fmt.Errorf("fault: %q: want link target nA-nB*factor", s)
		}
		aStr, bStr, ok := strings.Cut(pair, "-")
		if !ok || !strings.HasPrefix(aStr, "n") || !strings.HasPrefix(bStr, "n") {
			return nil, fmt.Errorf("fault: %q: want link target nA-nB*factor", s)
		}
		if ev.Node, err = strconv.Atoi(aStr[1:]); err != nil {
			return nil, fmt.Errorf("fault: %q: bad node %q", s, aStr)
		}
		if ev.NodeB, err = strconv.Atoi(bStr[1:]); err != nil {
			return nil, fmt.Errorf("fault: %q: bad node %q", s, bStr)
		}
		if ev.Factor, err = strconv.ParseFloat(factorStr, 64); err != nil || ev.Factor <= 0 || ev.Factor >= 1 {
			return nil, fmt.Errorf("fault: %q: bad factor %q (want 0 < f < 1)", s, factorStr)
		}
	case "alloc":
		ev.Kind = AllocFail
		if target != "" {
			return nil, fmt.Errorf("fault: %q: alloc takes no target", s)
		}
	default:
		return nil, fmt.Errorf("fault: unknown kind %q in %q", kindStr, s)
	}
	return ev, nil
}

// Events returns the schedule (shared slice; callers must not mutate).
func (in *Injector) Events() []*Event { return in.events }

// Log returns the activity log.
func (in *Injector) Log() []Record { return in.log }

func (in *Injector) record(ev *Event, action string) {
	in.log = append(in.log, Record{Event: ev.String(), Action: action})
}

// Pending reports whether any event has not yet been repaired.
func (in *Injector) Pending() bool {
	for _, ev := range in.events {
		if !ev.repaired {
			return true
		}
	}
	return false
}

// setupEvent returns the unfired setup-time (Step < 0) event, if any.
func (in *Injector) setupEvent() *Event {
	for _, ev := range in.events {
		if ev.Step < 0 && !ev.fired {
			return ev
		}
	}
	return nil
}

// eventsAt returns unrepaired events scheduled for one step.
func (in *Injector) eventsAt(step int) []*Event {
	var out []*Event
	for _, ev := range in.events {
		if ev.Step == step && !ev.repaired {
			out = append(out, ev)
		}
	}
	return out
}

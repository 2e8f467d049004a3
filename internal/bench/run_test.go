package bench

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"polymer/internal/fault"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/mem"
	"polymer/internal/numa"
	"polymer/internal/obs"
)

func tinyMachine() *numa.Machine { return numa.NewMachine(numa.IntelXeon80(), 2, 2) }

// TestOptionsComposeInOneCall: a non-native placement and a tracer ride
// one call — on the plain and on the resilient path — and neither moves
// the simulated result.
func TestOptionsComposeInOneCall(t *testing.T) {
	g, err := LoadDataset(gen.PowerLaw, gen.Tiny, PR)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Layout: mem.Interleaved, LayoutSet: true}
	bare, err := RunWith(Polymer, PR, g, tinyMachine(), opt)
	if err != nil {
		t.Fatal(err)
	}
	chrome := obs.NewChrome()
	opt.Tracer = obs.New(chrome)
	full, err := RunWith(Polymer, PR, g, tinyMachine(), opt)
	if err != nil {
		t.Fatal(err)
	}
	plainEvents := chrome.Len()
	resilient, _, err := RunResilientCtx(context.Background(), Polymer, PR, g, tinyMachine, nil,
		ResilientOptions{SessionRetries: -1, Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	if plainEvents == 0 || chrome.Len() <= plainEvents {
		t.Errorf("tracer saw %d events on the plain run, %d after the resilient one", plainEvents, chrome.Len())
	}
	for name, r := range map[string]RunResult{"plain": full, "resilient": resilient} {
		if math.Float64bits(r.SimSeconds) != math.Float64bits(bare.SimSeconds) ||
			math.Float64bits(r.Checksum) != math.Float64bits(bare.Checksum) {
			t.Errorf("%s: sim %x checksum %x, bare run %x %x", name, r.SimSeconds, r.Checksum, bare.SimSeconds, bare.Checksum)
		}
		if r.AgentBytes == 0 || r.AgentBytes != bare.AgentBytes {
			t.Errorf("%s: agent bytes %d, bare run %d", name, r.AgentBytes, bare.AgentBytes)
		}
	}
}

// TestUnsupportedIsNotAFault: a cell whose driver cannot run under a
// session is a static configuration error — no machine is built for it
// and nothing counts as a restart, whatever the restart budget.
func TestUnsupportedIsNotAFault(t *testing.T) {
	evs, err := fault.ParseSpec("panic@1:t0")
	if err != nil {
		t.Fatal(err)
	}
	unsupported := 0
	for _, alg := range Algos() {
		g, err := LoadDataset(gen.PowerLaw, gen.Tiny, alg)
		if err != nil {
			t.Fatal(err)
		}
		for _, sys := range Systems() {
			if SessionCapable(sys, alg) {
				continue
			}
			unsupported++
			built := 0
			mk := func() *numa.Machine { built++; return tinyMachine() }
			_, rep, err := RunResilientCtx(context.Background(), sys, alg, g, mk, fault.NewInjector(evs),
				ResilientOptions{MaxRestarts: 3, SessionRetries: -1})
			if !errors.Is(err, ErrUnsupported) || built != 0 || rep.Restarts != 0 {
				t.Errorf("%s/%s: err %v, %d machine(s) built, %d restart(s)", sys, alg, err, built, rep.Restarts)
			}
		}
	}
	if unsupported != 12 {
		t.Fatalf("%d unsupported cells, want 12 (PR everywhere; SpMV/BP/BFS/SSSP on Polymer and Ligra)", unsupported)
	}
}

// TestFailedEngineIsNotASuccess: a driver that has no error to return
// leaves its failure on the engine and a half-written array behind; run
// must report the failure, not the array's checksum. Every dispatch of
// every one of the 28 cells fails here.
func TestFailedEngineIsNotASuccess(t *testing.T) {
	errBoom := errors.New("boom")
	for _, alg := range append(Algos(), PRDelta) {
		g, err := LoadDataset(gen.PowerLaw, gen.Tiny, alg)
		if err != nil {
			t.Fatal(err)
		}
		for _, sys := range Systems() {
			s, err := newSpec(sys, alg, g, Options{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			build := s.system.build
			s.system.build = func(s *spec, m *numa.Machine) (engine, error) {
				e, err := build(s, m)
				if err == nil {
					e.SetFaultHook(func(int) error { return errBoom })
				}
				return e, err
			}
			if _, _, err := run(s, tinyMachine()); !errors.Is(err, errBoom) {
				t.Errorf("%s/%s on a failing engine: err %v, want the hook's", sys, alg, err)
			}
		}
	}
}

// TestUnweightedViewRunsLikeUnweightedLoad: polymerd reads a dataset's
// unweighted cells through graph.Unweighted of its weighted base, so each
// must run on that view exactly as on an unweighted load — same clock bits,
// Stats, peak and checksum — on a fresh root, and again after a weighted
// Polymer run has built its layouts on the same root.
func TestUnweightedViewRunsLikeUnweightedLoad(t *testing.T) {
	mk := func() *numa.Machine { return numa.NewMachine(numa.IntelXeon80(), 8, 10) }
	cells := []struct {
		sys System
		alg Algo
	}{{Polymer, PR}, {Ligra, PR}, {XStream, PR}, {Galois, PR}, {Polymer, BFS}, {Ligra, BFS}}
	for _, d := range []gen.Dataset{gen.PowerLaw, gen.Twitter} {
		plain, err := gen.Load(d, gen.Tiny, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			want := RunFrom(c.sys, c.alg, plain, mk(), 0)
			root, err := gen.Load(d, gen.Tiny, true)
			if err != nil {
				t.Fatal(err)
			}
			fresh := RunFrom(c.sys, c.alg, root.Unweighted(), mk(), 0)
			RunFrom(Polymer, SSSP, root, mk(), 0)
			after := RunFrom(c.sys, c.alg, root.Unweighted(), mk(), 0)
			for name, got := range map[string]RunResult{"fresh root": fresh, "after a weighted run": after} {
				if math.Float64bits(got.SimSeconds) != math.Float64bits(want.SimSeconds) || got.Stats != want.Stats ||
					got.PeakBytes != want.PeakBytes || math.Float64bits(got.Checksum) != math.Float64bits(want.Checksum) {
					t.Errorf("%s %s/%s on the view (%s): sim %x stats %+v peak %d checksum %x, unweighted load %x %+v %d %x",
						d, c.sys, c.alg, name, got.SimSeconds, got.Stats, got.PeakBytes, got.Checksum,
						want.SimSeconds, want.Stats, want.PeakBytes, want.Checksum)
				}
			}
		}
	}
}

// TestWarmOptionIsHonoured: a warm run with no edits between its prior and
// its graph repairs nothing, so it returns the cold run's bits and charges
// strictly less simulated time than traversing from scratch. Comparing
// outputs alone (conform.CheckWarm) cannot tell a repair from a cold run
// that ignored Options.Warm; the clock can.
func TestWarmOptionIsHonoured(t *testing.T) {
	for _, alg := range []Algo{BFS, SSSP} {
		g, err := LoadDataset(gen.PowerLaw, gen.Tiny, alg)
		if err != nil {
			t.Fatal(err)
		}
		for _, sys := range []System{Polymer, Ligra} {
			cold, err := RunWith(sys, alg, g, tinyMachine(), Options{Src: 1})
			if err != nil {
				t.Fatal(err)
			}
			warm, err := RunWith(sys, alg, g, tinyMachine(), Options{Src: 1, Warm: &Warm{Prior: cold.Out}})
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(warm.Checksum) != math.Float64bits(cold.Checksum) {
				t.Errorf("%s/%s: warm checksum %x, cold %x", sys, alg, warm.Checksum, cold.Checksum)
			}
			if !(warm.SimSeconds < cold.SimSeconds) {
				t.Errorf("%s/%s: zero-edit warm run charged %g s, cold run %g s", sys, alg, warm.SimSeconds, cold.SimSeconds)
			}
		}
	}
}

// TestRunOptionsRefused: a warm repair or a multi-source sweep on a cell
// with no driver for it, both at once, or either under injected faults,
// is ErrUnsupported before any machine is built.
func TestRunOptionsRefused(t *testing.T) {
	g, err := LoadDataset(gen.PowerLaw, gen.Tiny, BFS)
	if err != nil {
		t.Fatal(err)
	}
	warm := &Warm{Prior: RunFrom(Polymer, BFS, g, tinyMachine(), 0).Out}
	srcs := []graph.Vertex{0, 1}
	cases := []struct {
		name string
		sys  System
		alg  Algo
		opt  Options
		inj  *fault.Injector
	}{
		{"warm PR", Polymer, PR, Options{Warm: warm}, nil},
		{"warm X-Stream", XStream, BFS, Options{Warm: warm}, nil},
		{"multi-source PR", Ligra, PR, Options{Sources: srcs}, nil},
		{"multi-source Galois", Galois, BFS, Options{Sources: srcs}, nil},
		{"warm and multi-source", Polymer, BFS, Options{Warm: warm, Sources: srcs}, nil},
		{"injected warm", Polymer, BFS, Options{Warm: warm}, fault.NewInjector(nil)},
		{"injected multi-source", Ligra, BFS, Options{Sources: srcs}, fault.NewInjector(nil)},
	}
	for _, c := range cases {
		built := 0
		mk := func() *numa.Machine { built++; return tinyMachine() }
		_, rep, err := RunResilientCtx(context.Background(), c.sys, c.alg, g, mk, c.inj,
			ResilientOptions{MaxRestarts: 3, SessionRetries: -1, Options: c.opt})
		if !errors.Is(err, ErrUnsupported) || built != 0 || rep.Restarts != 0 {
			t.Errorf("%s: err %v, %d machine(s) built, %d restart(s)", c.name, err, built, rep.Restarts)
		}
	}
}

// TestInjectedRunRepeats: an injected run is a deterministic function of
// its cell, graph, machine and fault schedule, so a second run with a
// fresh injector from the same schedule ends exactly as the first did —
// the same error text, or the same checksum and clock bits, with the same
// rollbacks and restarts. This is why polymerd runs a request once: a
// whole-run retry of a failed run can only repeat its failure.
func TestInjectedRunRepeats(t *testing.T) {
	var schedules []func() []*fault.Event
	for _, spec := range []string{"panic@0:t0", "stall@1:t1,offline@2:n1", "link@1:n0-n1*0.25", "alloc@-1,alloc@0"} {
		schedules = append(schedules, func() []*fault.Event {
			evs, err := fault.ParseSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			return evs
		})
	}
	for _, seed := range []uint64{3, 11} {
		schedules = append(schedules, func() []*fault.Event { return fault.Schedule(seed, 5, 4, 2) })
	}
	failed, recovered := 0, 0
	for _, alg := range Algos() {
		g, err := LoadDataset(gen.PowerLaw, gen.Tiny, alg)
		if err != nil {
			t.Fatal(err)
		}
		for _, sys := range Systems() {
			if !SessionCapable(sys, alg) {
				continue
			}
			for i, schedule := range schedules {
				for _, retries := range []int{0, -1} {
					for _, restarts := range []int{0, 1} {
						opt := ResilientOptions{MaxRestarts: restarts, SessionRetries: retries}
						run := func() (string, error) {
							r, rep, err := RunResilientCtx(context.Background(), sys, alg, g, tinyMachine,
								fault.NewInjector(schedule()), opt)
							return fmt.Sprintf("err %v checksum %x sim %x rollbacks %d restarts %d",
								err, math.Float64bits(r.Checksum), math.Float64bits(r.SimSeconds), rep.Rollbacks, rep.Restarts), err
						}
						first, err := run()
						if second, _ := run(); second != first {
							t.Errorf("%s/%s schedule %d session_retries %d restarts %d:\n first  %s\n second %s",
								sys, alg, i, retries, restarts, first, second)
						}
						if err != nil {
							failed++
						} else {
							recovered++
						}
					}
				}
			}
		}
	}
	if failed == 0 || recovered == 0 {
		t.Fatalf("%d failed and %d recovered runs: the matrix must hold both", failed, recovered)
	}
	t.Logf("%d failed and %d recovered configurations, each run twice", failed, recovered)
}

package bench

import (
	"context"
	"errors"
	"math"
	"testing"

	"polymer/internal/fault"
	"polymer/internal/gen"
	"polymer/internal/mem"
	"polymer/internal/numa"
	"polymer/internal/obs"
)

func tinyMachine() *numa.Machine { return numa.NewMachine(numa.IntelXeon80(), 2, 2) }

// TestOptionsComposeInOneCall: a non-native placement, a tracer and the
// phase trace ride one call — on the plain and on the resilient path —
// and none of them moves the simulated result.
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
	if len(bare.Phases) != 0 {
		t.Fatalf("phase trace recorded without Options.Phases: %d records", len(bare.Phases))
	}
	chrome := obs.NewChrome()
	opt.Tracer, opt.Phases = obs.New(chrome), true
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
		if len(r.Phases) == 0 {
			t.Errorf("%s: no phase records", name)
		}
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
			s, err := newSpec(sys, alg, g, Options{})
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

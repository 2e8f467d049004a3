package polymer_test

// The fault matrix: every engine must survive an injected worker panic, a
// worker stall, a node-offline window, a degraded link and a setup-time
// allocation failure in a single run, and the recovered run's committed
// simulated output must be hex-exact identical to the fault-free run.

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"polymer/internal/bench"
	"polymer/internal/fault"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
)

const (
	matrixSockets = 4
	matrixCores   = 2
)

// matrixSpec hits every fault class in one run: a setup-time allocation
// failure (whole-run restart), a node-offline window, a worker panic, a
// worker stall and a degraded link (transient rollback/replay each).
const matrixSpec = "alloc@-1,offline@0:n1,panic@1:t3,stall@2:t0,link@3:n0-n1*0.25"

// fingerprint renders the simulated outcome hex-exactly, so equality means
// bit-identity, not approximate agreement.
func fingerprint(r bench.RunResult) string {
	return fmt.Sprintf("sim=%x sum=%x remote=%x",
		math.Float64bits(r.SimSeconds), math.Float64bits(r.Checksum), r.Stats.RemoteCount)
}

func matrixMachine(topo *numa.Topology) func() *numa.Machine {
	return func() *numa.Machine { return numa.NewMachine(topo, matrixSockets, matrixCores) }
}

func TestFaultMatrixPageRank(t *testing.T) {
	topo := numa.IntelXeon80()
	g, err := bench.LoadDataset(gen.PowerLaw, gen.Tiny, bench.PR)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []bench.System{bench.Polymer, bench.Ligra, bench.XStream, bench.Galois} {
		t.Run(string(sys), func(t *testing.T) {
			clean, _, err := resilient(sys, bench.PR, g, matrixMachine(topo), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			evs, err := fault.ParseSpec(matrixSpec)
			if err != nil {
				t.Fatal(err)
			}
			faulty, rep, err := resilient(sys, bench.PR, g, matrixMachine(topo), fault.NewInjector(evs), 3)
			if err != nil {
				t.Fatalf("run did not survive %q: %v", matrixSpec, err)
			}
			if got, want := fingerprint(faulty), fingerprint(clean); got != want {
				t.Errorf("recovered output differs from fault-free run:\n got %s\nwant %s", got, want)
			}
			if rep.Restarts != 1 {
				t.Errorf("setup alloc failure: want 1 restart, got %d", rep.Restarts)
			}
			if rep.Rollbacks < 4 {
				t.Errorf("want >= 4 rollbacks (offline, panic, stall, link), got %d", rep.Rollbacks)
			}
			assertRepaired(t, rep, "offline@0:n1", "panic@1:t3", "stall@2:t0", "link@3:n0-n1*0.25")
		})
	}
}

func TestFaultMatrixBFS(t *testing.T) {
	topo := numa.IntelXeon80()
	g, err := bench.LoadDataset(gen.PowerLaw, gen.Tiny, bench.BFS)
	if err != nil {
		t.Fatal(err)
	}
	const spec = "panic@1:t2,offline@0:n1,link@1:n2-n3*0.5"
	for _, sys := range []bench.System{bench.Polymer, bench.Ligra} {
		t.Run(string(sys), func(t *testing.T) {
			clean, _, err := resilient(sys, bench.BFS, g, matrixMachine(topo), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			evs, err := fault.ParseSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			faulty, rep, err := resilient(sys, bench.BFS, g, matrixMachine(topo), fault.NewInjector(evs), 3)
			if err != nil {
				t.Fatalf("run did not survive %q: %v", spec, err)
			}
			if got, want := fingerprint(faulty), fingerprint(clean); got != want {
				t.Errorf("recovered output differs from fault-free run:\n got %s\nwant %s", got, want)
			}
			// panic@1 and link@1 share a step, so they roll back together.
			if rep.Rollbacks < 2 {
				t.Errorf("want >= 2 rollbacks, got %d", rep.Rollbacks)
			}
			assertRepaired(t, rep, "panic@1:t2", "offline@0:n1", "link@1:n2-n3*0.5")
		})
	}
}

// TestFaultMatrixSeeded runs the seeded schedule path end to end: the
// generated schedule must be identical across injectors with the same seed
// and the recovered run bit-identical to fault-free.
func TestFaultMatrixSeeded(t *testing.T) {
	topo := numa.IntelXeon80()
	g, err := bench.LoadDataset(gen.PowerLaw, gen.Tiny, bench.PR)
	if err != nil {
		t.Fatal(err)
	}
	clean, _, err := resilient(bench.Polymer, bench.PR, g, matrixMachine(topo), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	threads := matrixSockets * matrixCores
	evs := fault.Schedule(7, 5, threads, matrixSockets)
	faulty, rep, err := resilient(bench.Polymer, bench.PR, g, matrixMachine(topo), fault.NewInjector(evs), 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(faulty), fingerprint(clean); got != want {
		t.Errorf("seeded schedule: recovered output differs:\n got %s\nwant %s", got, want)
	}
	if rep.Rollbacks == 0 {
		t.Error("seeded schedule injected nothing")
	}
}

// TestResilientRanksBitIdentical compares the full per-vertex rank vector
// — not just the checksum — between a faulted and a fault-free run, via
// the dump-style hex rendering of every value (bench.DumpLine).
func TestResilientRanksBitIdentical(t *testing.T) {
	topo := numa.IntelXeon80()
	g, err := bench.LoadDataset(gen.PowerLaw, gen.Tiny, bench.PR)
	if err != nil {
		t.Fatal(err)
	}
	run := func(spec string) string {
		var evs []*fault.Event
		if spec != "" {
			var err error
			evs, err = fault.ParseSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
		}
		ranks, err := resilientRanks(g, topo, fault.NewInjector(evs))
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, r := range ranks {
			fmt.Fprintf(&sb, "%x\n", math.Float64bits(r))
		}
		return sb.String()
	}
	if run("") != run("panic@0:t1,link@2:n0-n1*0.1") {
		t.Error("per-vertex ranks differ between faulted and fault-free runs")
	}
}

func resilientRanks(g *graph.Graph, topo *numa.Topology, inj *fault.Injector) ([]float64, error) {
	r, _, err := resilient(bench.Polymer, bench.PR, g, matrixMachine(topo), inj, 0)
	return r.Out.F64, err
}

// resilient runs one cell from vertex 0 under inj with the session's
// default replay budget.
func resilient(sys bench.System, alg bench.Algo, g *graph.Graph, mk func() *numa.Machine, inj *fault.Injector, maxRestarts int) (bench.RunResult, bench.ResilienceReport, error) {
	opt := bench.ResilientOptions{MaxRestarts: maxRestarts, SessionRetries: -1}
	return bench.RunResilientCtx(context.Background(), sys, alg, g, mk, inj, opt)
}

func assertRepaired(t *testing.T, rep bench.ResilienceReport, events ...string) {
	t.Helper()
	repaired := map[string]bool{}
	for _, rec := range rep.Log {
		if rec.Action == "repaired" {
			repaired[rec.Event] = true
		}
	}
	for _, ev := range events {
		if !repaired[ev] {
			t.Errorf("event %s never repaired; log: %+v", ev, rep.Log)
		}
	}
}

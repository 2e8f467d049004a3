package polymer_test

// The fault matrix: every engine must survive an injected worker panic, a
// worker stall, a node-offline window, a degraded link and a setup-time
// allocation failure in a single run, and the recovered run's committed
// simulated output must be hex-exact identical to the fault-free run.
// Permanent node loss (RunPolymerDegraded) is the one exception: the
// re-partitioned survivors schedule floating-point additions differently,
// so it is checked to tolerance instead.

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
	"polymer/internal/partition"
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

// TestPolymerDegraded loses node 1 permanently after two iterations and
// finishes on the survivors. Bit-identity is impossible here (the
// re-partitioned engine schedules additions differently), so the checksum
// is compared to tolerance and the migration must be charged.
func TestPolymerDegraded(t *testing.T) {
	topo := numa.IntelXeon80()
	g, err := bench.LoadDataset(gen.PowerLaw, gen.Tiny, bench.PR)
	if err != nil {
		t.Fatal(err)
	}
	full := bench.RunFrom(bench.Polymer, bench.PR, g, numa.NewMachine(topo, matrixSockets, matrixCores), 0)
	deg, err := bench.RunPolymerDegraded(g, topo, matrixSockets, matrixCores, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(deg.Result.Checksum-full.Checksum) / math.Abs(full.Checksum)
	if rel > 1e-9 {
		t.Errorf("degraded checksum %g vs full %g (rel err %g)", deg.Result.Checksum, full.Checksum, rel)
	}
	if deg.MigratedBytes <= 0 || deg.MigrationSeconds <= 0 {
		t.Errorf("migration not charged: %d bytes, %g s", deg.MigratedBytes, deg.MigrationSeconds)
	}
	if deg.Result.SimSeconds <= deg.MigrationSeconds {
		t.Errorf("total %g s not greater than migration alone %g s", deg.Result.SimSeconds, deg.MigrationSeconds)
	}
	if _, err := bench.RunPolymerDegraded(g, topo, 1, matrixCores, 0, 2); err == nil {
		t.Error("single-node degraded run accepted")
	}
	if _, err := bench.RunPolymerDegraded(g, topo, matrixSockets, matrixCores, 0, 99); err == nil {
		t.Error("out-of-range fail step accepted")
	}
}

// TestPolymerDegradedOnInheritedPartition: on a mutated snapshot that
// inherited its lineage's partition, the lost node's range is the one the
// engine ran on, not a fresh split's: MigratedBytes is that range's length
// times the 16 bytes of two ranks.
func TestPolymerDegradedOnInheritedPartition(t *testing.T) {
	topo := numa.IntelXeon80()
	g, err := bench.LoadDataset(gen.PowerLaw, gen.Tiny, bench.PR)
	if err != nil {
		t.Fatal(err)
	}
	g.MarkHead(1)
	first, _, _ := partition.Sticky(g, matrixSockets, partition.In)
	rng := gen.NewRNG(9)
	hot := first.Ranges[2]
	for seq := uint64(2); ; seq++ {
		if seq > 50 {
			t.Fatal("no snapshot inherited a partition that differs from a fresh split")
		}
		batch := make([]graph.Edge, 4)
		for i := range batch {
			batch[i] = graph.Edge{Src: graph.Vertex(rng.Intn(g.NumVertices())), Dst: graph.Vertex(hot.Lo + rng.Intn(hot.Len()))}
		}
		g = g.Patch(nil, batch)
		g.MarkHead(seq)
		own, _, _ := partition.Sticky(g, matrixSockets, partition.In)
		if own.Seq != 1 {
			t.Fatalf("seq %d re-balanced before the inherited split drifted from a fresh one", seq)
		}
		if partition.EdgeBalanced(g, matrixSockets, partition.In)[1] != own.Ranges[1] {
			break
		}
	}
	own, _, _ := partition.Sticky(g, matrixSockets, partition.In)
	fresh := partition.EdgeBalanced(g, matrixSockets, partition.In)
	deg, err := bench.RunPolymerDegraded(g, topo, matrixSockets, matrixCores, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(own.Ranges[1].Len()) * 16; deg.MigratedBytes != want || want == int64(fresh[1].Len())*16 {
		t.Fatalf("migrated %d bytes; the engine's part %v holds %d, a fresh split's %v %d",
			deg.MigratedBytes, own.Ranges[1], want, fresh[1], int64(fresh[1].Len())*16)
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

package cluster

import (
	"context"
	"math"
	"testing"

	"polymer/internal/fault"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
	"polymer/internal/obs"
)

func testGraph(t testing.TB, name gen.Dataset, weighted bool) *graph.Graph {
	t.Helper()
	g, err := gen.Load(name, gen.Tiny, weighted)
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	return g
}

func run(t testing.TB, g *graph.Graph, cfg Config, alg Algo, src graph.Vertex) *Result {
	t.Helper()
	cl, err := New(g, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := cl.Run(context.Background(), alg, src)
	if err != nil {
		t.Fatalf("Run(%s): %v", alg, err)
	}
	return res
}

// bitIdentical fails unless two outputs match bit for bit.
func bitIdentical(t *testing.T, what string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d vs %d", what, len(want), len(got))
	}
	for v := range want {
		if math.Float64bits(want[v]) != math.Float64bits(got[v]) {
			t.Fatalf("%s: vertex %d: want %v (%#x), got %v (%#x)",
				what, v, want[v], math.Float64bits(want[v]), got[v], math.Float64bits(got[v]))
		}
	}
}

// TestMachineCountInvariance: the committed answer must not depend on
// how many machines the graph is sharded across, for any kernel.
func TestMachineCountInvariance(t *testing.T) {
	for _, alg := range Algos() {
		g := testGraph(t, gen.RMat24, alg.Weighted())
		base := run(t, g, Config{Machines: 1}, alg, 3)
		for _, mc := range []int{2, 3, 4, 7} {
			res := run(t, g, Config{Machines: mc, Replicas: 2}, alg, 3)
			bitIdentical(t, string(alg), base.Out, res.Out)
			if res.SimSeconds <= 0 {
				t.Fatalf("%s@%d: no simulated time charged", alg, mc)
			}
			if mc > 1 && res.NetBytes == 0 {
				t.Fatalf("%s@%d: no network traffic charged", alg, mc)
			}
		}
	}
}

// TestPreferReplicaPlacement: a hedged run starting every shard on its
// replica must answer bit-identically (only the charged placement moves).
func TestPreferReplicaPlacement(t *testing.T) {
	g := testGraph(t, gen.PowerLaw, false)
	a := run(t, g, Config{Machines: 4, Replicas: 2}, PR, 0)
	b := run(t, g, Config{Machines: 4, Replicas: 2, PreferReplica: true}, PR, 0)
	bitIdentical(t, "pr", a.Out, b.Out)
	for i, m := range b.Machines {
		for _, si := range m.Shards {
			if si == i {
				t.Fatalf("machine %d still owns its home shard under PreferReplica", i)
			}
		}
	}
}

// TestFailoverRecovers: crash a machine and require a failover, the
// fault-free answer, and a crashed entry in the health report.
func TestFailoverRecovers(t *testing.T) {
	g := testGraph(t, gen.Twitter, false)
	want := run(t, g, Config{Machines: 4}, PR, 0)
	ev := []*fault.ClusterEvent{{Kind: fault.MachineCrash, Step: 1, Machine: 2}}
	res := run(t, g, Config{Machines: 4, Replicas: 2, Events: ev}, PR, 0)
	bitIdentical(t, "pr", want.Out, res.Out)
	if res.Failovers == 0 {
		t.Fatal("crash caused no failover")
	}
	if res.Machines[2].State != "crashed" {
		t.Fatalf("machine 2 state = %s, want crashed", res.Machines[2].State)
	}
	if len(res.Machines[2].Shards) != 0 {
		t.Fatalf("crashed machine still owns shards %v", res.Machines[2].Shards)
	}
	if len(res.Protocol) == 0 {
		t.Fatal("no protocol log for a crash round")
	}
}

// TestCrashDuringFailoverNeedsThreeReplicas: with R=3 the second hop
// succeeds; with R=2 losing both copies must be a hard, explicit error.
func TestCrashDuringFailoverNeedsThreeReplicas(t *testing.T) {
	g := testGraph(t, gen.Twitter, false)
	want := run(t, g, Config{Machines: 4}, PR, 0)
	ev := func() []*fault.ClusterEvent {
		return []*fault.ClusterEvent{{Kind: fault.CrashDuringFailover, Step: 1, Machine: 0}}
	}
	res := run(t, g, Config{Machines: 4, Replicas: 3, Events: ev()}, PR, 0)
	bitIdentical(t, "pr", want.Out, res.Out)
	if res.Failovers < 1 {
		t.Fatal("no failover recorded")
	}
	crashed := 0
	for _, m := range res.Machines {
		if m.State == "crashed" {
			crashed++
		}
	}
	if crashed != 2 {
		t.Fatalf("crashed machines = %d, want 2 (original + failover target)", crashed)
	}

	cl, err := New(g, Config{Machines: 2, Replicas: 2, Events: ev()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := cl.Run(context.Background(), PR, 0); err == nil {
		t.Fatal("R=2 crash-during-failover lost every replica but Run returned nil error")
	}
}

// TestLinkPartitionIsolatesMinority: cutting every link of one machine
// must isolate it and fail its shard over, not hang or diverge.
func TestLinkPartitionIsolatesMinority(t *testing.T) {
	g := testGraph(t, gen.Twitter, false)
	want := run(t, g, Config{Machines: 3}, BFS, 1)
	var evs []*fault.ClusterEvent
	for _, b := range []int{1, 2} {
		evs = append(evs, &fault.ClusterEvent{Kind: fault.LinkPartition, Step: 1, Machine: 0, MachineB: b})
	}
	res := run(t, g, Config{Machines: 3, Replicas: 2, Events: evs}, BFS, 1)
	bitIdentical(t, "bfs", want.Out, res.Out)
	if res.Machines[0].State != "isolated" {
		t.Fatalf("machine 0 state = %s, want isolated", res.Machines[0].State)
	}
	if len(res.Machines[0].Shards) != 0 {
		t.Fatal("isolated machine still owns shards")
	}
}

// TestSlowLinkChangesClockNotValues: degrading a link slows the run and
// leaves every committed value untouched.
func TestSlowLinkChangesClockNotValues(t *testing.T) {
	g := testGraph(t, gen.RMat24, false)
	clean := run(t, g, Config{Machines: 4}, PR, 0)
	ev := []*fault.ClusterEvent{{Kind: fault.SlowLink, Step: 0, Machine: 0, MachineB: 1, Factor: 0.05}}
	slow := run(t, g, Config{Machines: 4, Events: ev}, PR, 0)
	bitIdentical(t, "pr", clean.Out, slow.Out)
	if slow.SimSeconds <= clean.SimSeconds {
		t.Fatalf("slow link did not slow the run: %g vs %g", slow.SimSeconds, clean.SimSeconds)
	}
	if slow.Failovers != 0 {
		t.Fatal("slow link must not trigger failover")
	}
}

// TestPartitionRouting: cutting a link between two healthy machines
// reroutes traffic through a relay instead of failing anything over.
func TestPartitionRoutingRelays(t *testing.T) {
	g := testGraph(t, gen.RMat24, false)
	ev := []*fault.ClusterEvent{{Kind: fault.LinkPartition, Step: 0, Machine: 0, MachineB: 1}}
	res := run(t, g, Config{Machines: 3, Events: ev}, PR, 0)
	clean := run(t, g, Config{Machines: 3}, PR, 0)
	bitIdentical(t, "pr", clean.Out, res.Out)
	if res.Failovers != 0 {
		t.Fatalf("partition between healthy majority machines caused %d failovers", res.Failovers)
	}
	if res.Links[0][1] != 0 || res.Links[1][0] != 0 {
		t.Fatal("bytes charged on a cut link")
	}
	// The relay (machine 2) must carry strictly more than in the clean
	// run: every m0<->m1 byte now crosses it.
	relayClean := clean.Links[2][0] + clean.Links[2][1]
	relayCut := res.Links[2][0] + res.Links[2][1]
	if relayCut <= relayClean {
		t.Fatalf("relay traffic did not grow: %g vs %g", relayCut, relayClean)
	}
}

// TestTrafficLedger: the extended matrix must carry intra-machine levels
// and the wire level, and agree with the link ledger on wire bytes.
func TestTrafficLedger(t *testing.T) {
	g := testGraph(t, gen.RMat24, false)
	cfg := Config{Machines: 4, Topo: numa.IntelXeon80(), Nodes: 2, Cores: 2}
	res := run(t, g, cfg, PR, 0)
	tm := res.Traffic
	if tm.Nodes != 4 || tm.Levels != numa.IntelXeon80().MaxLevel()+2 {
		t.Fatalf("extended matrix shape %dx%d", tm.Nodes, tm.Levels)
	}
	wire := tm.Levels - 1
	var wireBytes float64
	for m := 0; m < tm.Nodes; m++ {
		wireBytes += tm.At(m, wire, numa.Seq) + tm.At(m, wire, numa.Rand)
	}
	if math.Abs(wireBytes-res.NetBytes) > 1e-6*res.NetBytes {
		t.Fatalf("wire level %g != link ledger %g", wireBytes, res.NetBytes)
	}
	if tm.LevelBytes(0, numa.Seq)+tm.LevelBytes(0, numa.Rand) == 0 {
		t.Fatal("no intra-machine traffic attributed")
	}
	if res.Stats.LocalCount == 0 {
		t.Fatal("merged stats counted no accesses")
	}
}

// TestTracerSupersteps: a tracer must see one superstep event per
// committed round, carrying the extended matrix.
func TestTracerSupersteps(t *testing.T) {
	g := testGraph(t, gen.Twitter, false)
	var sink collectSink
	cfg := Config{Machines: 3, Tracer: obs.New(&sink)}
	res := run(t, g, cfg, PR, 0)
	steps := 0
	for _, ev := range sink.events {
		if ev.Name == "superstep" && ev.Traffic != nil {
			steps++
		}
	}
	if steps != res.Supersteps {
		t.Fatalf("traced %d supersteps, committed %d", steps, res.Supersteps)
	}
}

type collectSink struct{ events []obs.Event }

func (c *collectSink) Emit(ev obs.Event) { c.events = append(c.events, ev) }
func (c *collectSink) Close() error      { return nil }

// TestSweep: the sweep must scale the machine axis with consistent
// checksums and visible network traffic at every multi-machine point.
func TestSweep(t *testing.T) {
	g := testGraph(t, gen.PowerLaw, true)
	rows, err := Sweep(context.Background(), g, Config{Replicas: 2}, Algos(), []int{1, 2, 4}, 0)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if len(row.Points) != 3 {
			t.Fatalf("%s: points = %d", row.Algo, len(row.Points))
		}
		for _, pt := range row.Points[1:] {
			if pt.NetBytes == 0 {
				t.Fatalf("%s@%d: no net bytes", row.Algo, pt.Machines)
			}
		}
		if row.Largest == nil || row.Largest.Traffic == nil {
			t.Fatalf("%s: missing largest-run evidence", row.Algo)
		}
	}
	out := FormatSweep("test sweep", rows)
	if len(out) == 0 {
		t.Fatal("empty sweep table")
	}
	if s := FormatLinks(rows[0].Largest.Links); len(s) == 0 {
		t.Fatal("empty links table")
	}
	if s := FormatTraffic(rows[0].Largest.Traffic); len(s) == 0 {
		t.Fatal("empty traffic table")
	}
}

// TestEdgeShapes: degenerate graphs and configs must not panic.
func TestEdgeShapes(t *testing.T) {
	empty := graph.FromEdges(0, nil, false)
	res := run(t, empty, Config{Machines: 4}, PR, 0)
	if len(res.Out) != 0 || res.Supersteps != 0 {
		t.Fatalf("empty graph: out=%d steps=%d", len(res.Out), res.Supersteps)
	}

	single := graph.FromEdges(1, nil, false)
	res = run(t, single, Config{Machines: 4, Replicas: 4}, BFS, 0)
	if len(res.Out) != 1 || res.Out[0] != 0 {
		t.Fatalf("single vertex BFS: %v", res.Out)
	}

	// More machines than vertices: trailing shards are empty.
	tiny := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}, false)
	res = run(t, tiny, Config{Machines: 8, Replicas: 3}, BFS, 0)
	wantOut := []float64{0, 1, 2}
	bitIdentical(t, "bfs", wantOut, res.Out)

	// Unreachable vertices keep the sentinel conventions.
	iso := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1}}, false)
	res = run(t, iso, Config{Machines: 2}, BFS, 0)
	if res.Out[2] != -1 {
		t.Fatalf("unreachable BFS level = %v, want -1", res.Out[2])
	}
	res = run(t, iso, Config{Machines: 2}, SSSP, 0)
	if !math.IsInf(res.Out[2], 1) {
		t.Fatalf("unreachable SSSP dist = %v, want +Inf", res.Out[2])
	}

	// Bad configs error instead of panicking.
	if _, err := New(tiny, Config{Machines: 2, Nodes: 99}); err == nil {
		t.Fatal("oversized Nodes accepted")
	}
	cl, err := New(tiny, Config{Machines: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(context.Background(), Algo("cc"), 0); err == nil {
		t.Fatal("unsupported algorithm accepted")
	}
	cl, _ = New(tiny, Config{Machines: 2})
	if _, err := cl.Run(context.Background(), BFS, 99); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

// TestContextCancel: a cancelled context stops the run between rounds.
func TestContextCancel(t *testing.T) {
	g := testGraph(t, gen.RMat24, false)
	cl, err := New(g, Config{Machines: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cl.Run(ctx, PR, 0); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestDeterministicReruns: same config, same graph, same faults — the
// clock, ledger and output must all be identical across runs.
func TestDeterministicReruns(t *testing.T) {
	g := testGraph(t, gen.PowerLaw, true)
	// Six machines, four replicas: the chaos schedule kills at most
	// three machines (crash + crash-during-failover pair), so some
	// replica of every shard always survives.
	evs := fault.ClusterChaos(7, 4, 6)
	evs2 := fault.ClusterChaos(7, 4, 6)
	cfg := Config{Machines: 6, Replicas: 4}
	cfg.Events = evs
	a := run(t, g, cfg, SSSP, 2)
	cfg.Events = evs2
	b := run(t, g, cfg, SSSP, 2)
	bitIdentical(t, "sssp", a.Out, b.Out)
	if a.SimSeconds != b.SimSeconds || a.NetBytes != b.NetBytes || a.Failovers != b.Failovers {
		t.Fatalf("rerun drift: sim %g/%g net %g/%g failovers %d/%d",
			a.SimSeconds, b.SimSeconds, a.NetBytes, b.NetBytes, a.Failovers, b.Failovers)
	}
}

package polymer_test

// One benchmark per table and figure of the paper's evaluation
// (Section 6), plus ablation benchmarks for the design decisions listed
// in DESIGN.md. Each benchmark regenerates its experiment end-to-end and
// reports the headline simulated metric via b.ReportMetric, so
// `go test -bench=. -benchmem` reproduces the whole evaluation at test
// scale. polymer experiments prints the same experiments at Default scale.

import (
	"testing"

	"polymer/internal/algorithms"
	"polymer/internal/barrier"
	"polymer/internal/bench"
	"polymer/internal/core"
	"polymer/internal/gen"
	"polymer/internal/mem"
	"polymer/internal/numa"
)

func BenchmarkFig3bLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, topo := range []*numa.Topology{numa.IntelXeon80(), numa.AMDOpteron64()} {
			rows := bench.LatencyTable(topo)
			if topo.Name == "intel80" {
				b.ReportMetric(rows[0].Cycles[2], "load-2hop-cycles")
			}
		}
	}
}

func BenchmarkFig4Bandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, topo := range []*numa.Topology{numa.IntelXeon80(), numa.AMDOpteron64()} {
			rows := bench.BandwidthTable(topo)
			if topo.Name == "intel80" {
				b.ReportMetric(rows[0].MBps[2], "seq-2hop-MBps")
				b.ReportMetric(rows[1].MBps[0], "rand-local-MBps")
			}
		}
	}
}

func BenchmarkFig5Scalability(b *testing.B) {
	topo := numa.IntelXeon80()
	baselines := []bench.System{bench.Ligra, bench.XStream, bench.Galois}
	for i := 0; i < b.N; i++ {
		if _, err := bench.CoreScaling(topo, gen.Tiny, baselines); err != nil {
			b.Fatal(err)
		}
		series, err := bench.SocketScaling(topo, gen.Tiny, bench.PR, baselines)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(series[0].Speedup()[topo.Sockets-1], "ligra-8socket-speedup")
		if _, err := bench.SocketScaling(numa.AMDOpteron64(), gen.Tiny, bench.PR, baselines); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3Runtimes(b *testing.B) {
	topo := numa.IntelXeon80()
	for i := 0; i < b.N; i++ {
		cells, err := bench.Table3(topo, gen.Tiny)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.System == bench.Polymer && c.Algo == bench.PR && c.Graph == gen.Twitter {
				b.ReportMetric(c.Seconds*1e3, "polymer-PR-twitter-sim-ms")
			}
		}
	}
}

func BenchmarkFig7PolymerScaling(b *testing.B) {
	topo := numa.IntelXeon80()
	for i := 0; i < b.N; i++ {
		series, err := bench.SocketScaling(topo, gen.Small, bench.PR, bench.Systems())
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			if s.System == bench.Polymer {
				b.ReportMetric(s.Speedup()[topo.Sockets-1], "polymer-8socket-speedup")
			}
		}
	}
}

func BenchmarkFig8AMDScaling(b *testing.B) {
	topo := numa.AMDOpteron64()
	for i := 0; i < b.N; i++ {
		series, err := bench.SocketScaling(topo, gen.Small, bench.PR, bench.Systems())
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			if s.System == bench.Polymer {
				b.ReportMetric(s.Speedup()[topo.Sockets-1], "polymer-8socket-speedup")
			}
		}
	}
}

func BenchmarkFig9BFSScaling(b *testing.B) {
	topo := numa.IntelXeon80()
	for i := 0; i < b.N; i++ {
		series, err := bench.SocketScaling(topo, gen.Small, bench.BFS, bench.Systems())
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			if s.System == bench.Polymer {
				b.ReportMetric(s.Points[topo.Sockets-1].Seconds*1e3, "polymer-8socket-sim-ms")
			}
		}
	}
}

func BenchmarkTable4RemoteAccess(b *testing.B) {
	topo := numa.IntelXeon80()
	for i := 0; i < b.N; i++ {
		for _, alg := range []bench.Algo{bench.PR, bench.BFS} {
			rows, err := bench.Table4(topo, gen.Small, alg)
			if err != nil {
				b.Fatal(err)
			}
			if alg == bench.PR {
				b.ReportMetric(rows[0].RemoteRate*100, "polymer-remote-pct")
			}
		}
	}
}

func BenchmarkTable5Memory(b *testing.B) {
	topo := numa.IntelXeon80()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table5(topo, gen.Tiny)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].AgentBytes)/1e3, "twitter-agent-KB")
	}
}

func BenchmarkFig10aBarriers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points := bench.BarrierStudy(8, 2, 20)
		p8 := points[7]
		b.ReportMetric(p8.Model[barrier.P]*1e6, "P-8socket-model-usec")
		b.ReportMetric(p8.Model[barrier.N]*1e6, "N-8socket-model-usec")
	}
}

func BenchmarkFig10bBarrierImpact(b *testing.B) {
	topo := numa.IntelXeon80()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Figure10b(topo, gen.Tiny)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Algo == bench.BFS {
				b.ReportMetric(r.Without/r.With, "BFS-barrier-speedup")
			}
		}
	}
}

func BenchmarkTable6aAdaptive(b *testing.B) {
	topo := numa.IntelXeon80()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table6a(topo, gen.Tiny)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Algo == bench.BFS {
				b.ReportMetric(r.Without/r.With, "BFS-adaptive-speedup")
			}
		}
	}
}

func BenchmarkTable6bBalanced(b *testing.B) {
	topo := numa.IntelXeon80()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table6b(topo, gen.Tiny)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Algo == bench.PR {
				b.ReportMetric(r.Without/r.With, "PR-balance-speedup")
			}
		}
	}
}

func BenchmarkFig11PartitionBalance(b *testing.B) {
	topo := numa.IntelXeon80()
	for i := 0; i < b.N; i++ {
		r, err := bench.Figure11(topo, gen.Small)
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, d := range r.VertexBalanced {
			if d > worst {
				worst = d
			}
		}
		b.ReportMetric(worst*100, "vb-imbalance-pct")
	}
}

// --- Ablation benchmarks for the DESIGN.md design decisions ---

// polymerPR runs Polymer PageRank on the Small twitter graph with the
// given option tweak and returns the simulated seconds.
func polymerPR(b *testing.B, tweak func(*core.Options)) float64 {
	b.Helper()
	g, err := bench.LoadDataset(gen.Twitter, gen.Small, bench.PR)
	if err != nil {
		b.Fatal(err)
	}
	m := numa.NewMachine(numa.IntelXeon80(), 8, 10)
	opt := core.DefaultOptions()
	opt.Mode = core.Push
	tweak(&opt)
	e := core.MustNew(g, m, opt)
	defer e.Close()
	algorithms.PageRank(e, 5, 0.85)
	return e.SimSeconds()
}

func BenchmarkAblationLayout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		co := polymerPR(b, func(o *core.Options) {})
		il := polymerPR(b, func(o *core.Options) { o.Layout = mem.Interleaved })
		b.ReportMetric(il/co, "interleaved-slowdown")
	}
}

func BenchmarkAblationAgents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := polymerPR(b, func(o *core.Options) {})
		without := polymerPR(b, func(o *core.Options) { o.DisableAgents = true })
		b.ReportMetric(without/with, "no-agents-slowdown")
	}
}

func BenchmarkAblationRolling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := polymerPR(b, func(o *core.Options) {})
		without := polymerPR(b, func(o *core.Options) { o.DisableRolling = true })
		b.ReportMetric(without/with, "no-rolling-slowdown")
	}
}

func BenchmarkAblationMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		push := polymerPR(b, func(o *core.Options) { o.Mode = core.Push })
		pull := polymerPR(b, func(o *core.Options) { o.Mode = core.Pull })
		b.ReportMetric(pull/push, "pull-vs-push")
	}
}

func BenchmarkAblationBarrierKinds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := polymerPR(b, func(o *core.Options) { o.Barrier = barrier.N })
		h := polymerPR(b, func(o *core.Options) { o.Barrier = barrier.H })
		p := polymerPR(b, func(o *core.Options) { o.Barrier = barrier.P })
		b.ReportMetric(p/n, "P-vs-N")
		b.ReportMetric(h/n, "H-vs-N")
	}
}

package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"polymer/internal/bench"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
	"polymer/internal/obs"
	"polymer/internal/plan"
)

// paperExps are the ids of the paper's evaluation, in the order -exp all
// runs them; beyondExps run only when named: tier (hot-vertex tiering vs
// naive interleave on powerlaw, gated on its ordering), profile
// (the planner's feature vector for every corpus graph) and plan (the
// planner against the exhaustive oracle on that corpus, cold and after
// two learning passes).
var (
	paperExps = []string{"fig3b", "fig4", "fig5", "table3", "fig7", "fig8", "fig9", "table4",
		"table5", "fig10a", "fig10b", "table6a", "table6b", "fn6", "fig11"}
	beyondExps = []string{"tier", "profile", "plan"}
)

// parseExps reads a comma-separated -exp list into the set of ids to run;
// all names the paper's evaluation. An unknown id is an error.
func parseExps(list string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, id := range strings.Split(list, ",") {
		switch id = strings.TrimSpace(id); {
		case id == "all":
			for _, p := range paperExps {
				want[p] = true
			}
		case slices.Contains(paperExps, id) || slices.Contains(beyondExps, id):
			want[id] = true
		default:
			return nil, fmt.Errorf("unknown experiment %q (want all, %s)", id, strings.Join(slices.Concat(paperExps, beyondExps), ", "))
		}
	}
	return want, nil
}

// experiments regenerates the paper's tables and figures on the simulated
// NUMA machine and prints them in the layout of the paper's evaluation
// section, and runs the experiments beyond the paper. -trace writes fig4's
// sweep as Chrome trace_event JSON and prints its traffic breakdown.
func experiments(args []string) {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	scaleFlag := fs.String("scale", "default", "dataset scale: tiny, small or default")
	machineFlag := fs.String("machine", "intel", "topology for single-machine experiments: intel or amd")
	expFlag := fs.String("exp", "all", "experiment ids, comma separated: all, "+strings.Join(slices.Concat(paperExps, beyondExps), ", "))
	csvDir := fs.String("csv", "", "also write raw CSV files for plotting into this directory")
	traceFlag := fs.String("trace", "", "write fig4's sweep as Chrome trace_event JSON to this file and print its traffic breakdown")
	fs.Parse(args)

	sc, topo := parseScale(*scaleFlag), parseMachine(*machineFlag)
	want, err := parseExps(*expFlag)
	check(err)
	csvOut := func(name string, header []string, rows [][]string) {
		if *csvDir != "" {
			check(bench.WriteCSV(*csvDir, name, header, rows))
		}
	}

	start := time.Now()
	fmt.Printf("# Polymer evaluation — scale=%s machine=%s\n\n", *scaleFlag, topo.Name)

	if want["fig3b"] {
		for _, t := range []*numa.Topology{numa.IntelXeon80(), numa.AMDOpteron64()} {
			fmt.Println(bench.FormatLatencyTable(t, bench.LatencyTable(t)))
		}
	}
	if want["fig4"] {
		for _, t := range []*numa.Topology{numa.IntelXeon80(), numa.AMDOpteron64()} {
			fmt.Println(bench.FormatBandwidthTable(t, bench.BandwidthTable(t)))
			if *traceFlag != "" {
				traceMicro(t, *traceFlag)
			}
		}
	}
	if want["fig5"] {
		baselines := []bench.System{bench.Ligra, bench.XStream, bench.Galois}
		series, err := bench.CoreScaling(numa.IntelXeon80(), sc, baselines)
		check(err)
		fmt.Println(bench.FormatScaling("Figure 5(a): PR/twitter speedup with cores (1 socket, Intel)", "cores", series))
		h, rows := bench.ScalingCSV(series)
		csvOut("fig5a", h, rows)
		series, err = bench.SocketScaling(numa.IntelXeon80(), sc, bench.PR, baselines)
		check(err)
		fmt.Println(bench.FormatScaling("Figure 5(b,c): PR/twitter with sockets (Intel)", "sockets", series))
		h, rows = bench.ScalingCSV(series)
		csvOut("fig5bc", h, rows)
		series, err = bench.SocketScaling(numa.AMDOpteron64(), sc, bench.PR, baselines)
		check(err)
		fmt.Println(bench.FormatScaling("Figure 5(d): PR/twitter with sockets (AMD)", "sockets", series))
		h, rows = bench.ScalingCSV(series)
		csvOut("fig5d", h, rows)
	}
	if want["table3"] {
		cells, err := bench.Table3(topo, sc)
		check(err)
		fmt.Println(bench.FormatTable3(cells))
		h, rows := bench.Table3CSV(cells)
		csvOut("table3", h, rows)
	}
	if want["fig7"] {
		series, err := bench.SocketScaling(numa.IntelXeon80(), sc, bench.PR, bench.Systems())
		check(err)
		fmt.Println(bench.FormatScaling("Figure 7: PR/twitter with sockets, all systems (Intel)", "sockets", series))
		h, rows := bench.ScalingCSV(series)
		csvOut("fig7", h, rows)
	}
	if want["fig8"] {
		series, err := bench.SocketScaling(numa.AMDOpteron64(), sc, bench.PR, bench.Systems())
		check(err)
		fmt.Println(bench.FormatScaling("Figure 8: PR/twitter with sockets, all systems (AMD)", "sockets", series))
		h, rows := bench.ScalingCSV(series)
		csvOut("fig8", h, rows)
	}
	if want["fig9"] {
		series, err := bench.SocketScaling(numa.IntelXeon80(), sc, bench.BFS, bench.Systems())
		check(err)
		fmt.Println(bench.FormatScaling("Figure 9: BFS/twitter with sockets, all systems (Intel)", "sockets", series))
		h, rows := bench.ScalingCSV(series)
		csvOut("fig9", h, rows)
	}
	if want["table4"] {
		for _, alg := range []bench.Algo{bench.PR, bench.BFS} {
			rows, err := bench.Table4(topo, sc, alg)
			check(err)
			fmt.Println(bench.FormatTable4(alg, rows))
		}
	}
	if want["table5"] {
		rows, err := bench.Table5(topo, sc)
		check(err)
		fmt.Println(bench.FormatTable5(rows))
		h, rcsv := bench.Table5CSV(rows)
		csvOut("table5", h, rcsv)
	}
	if want["fig10a"] {
		points := bench.BarrierStudy(topo.Sockets, 4, 100)
		fmt.Println(bench.FormatBarrierStudy(points))
		h, rows := bench.BarrierCSV(points)
		csvOut("fig10a", h, rows)
	}
	if want["fig10b"] {
		rows, err := bench.Figure10b(topo, sc)
		check(err)
		fmt.Println(bench.FormatAblation("Figure 10(b): w/o (P-Barrier) vs w/ (N-Barrier), roadUS", rows))
		h, rcsv := bench.AblationCSV(rows)
		csvOut("fig10b", h, rcsv)
	}
	if want["table6a"] {
		rows, err := bench.Table6a(topo, sc)
		check(err)
		fmt.Println(bench.FormatAblation("Table 6(a): w/o vs w/ adaptive data structures, roadUS", rows))
		h, rcsv := bench.AblationCSV(rows)
		csvOut("table6a", h, rcsv)
	}
	if want["table6b"] {
		rows, err := bench.Table6b(topo, sc)
		check(err)
		fmt.Println(bench.FormatAblation("Table 6(b): w/o vs w/ balanced partitioning, twitter", rows))
		h, rcsv := bench.AblationCSV(rows)
		csvOut("table6b", h, rcsv)
	}
	if want["fn6"] {
		rows, err := bench.IterationOverhead(topo, sc)
		check(err)
		fmt.Println(bench.FormatIterationOverhead(rows))
	}
	if want["fig11"] {
		r, err := bench.Figure11(topo, sc)
		check(err)
		fmt.Println(bench.FormatFigure11(r))
		h, rows := bench.Fig11CSV(r)
		csvOut("fig11", h, rows)
	}
	if want["tier"] {
		g, err := gen.Load(gen.PowerLaw, sc, false)
		check(err)
		ts, err := bench.RunTierSweep(string(gen.PowerLaw)+"/"+*scaleFlag, g)
		check(err)
		fmt.Println(bench.FormatTierSweep(ts))
		check(ts.Gate())
	}
	if want["profile"] {
		fmt.Printf("planner feature vectors — planbench corpus\n")
		fmt.Printf("%-22s %s\n", "graph", "features")
		for _, e := range plan.Corpus() {
			fmt.Printf("%-22s %s\n", e.Name, plan.Profile(plan.BuildGraph(e, bench.PR)))
		}
		fmt.Println()
	}
	if want["plan"] {
		cold, learned := planSweep(topo)
		fmt.Println(formatPlanSweep(cold, learned))
		h, rows := planCellsCSV(cold, learned)
		csvOut("plan", h, rows)
		h, rows = planRowsCSV(cold)
		csvOut("plan_rows", h, rows)
	}
	fmt.Printf("# done in %v\n", time.Since(start).Round(time.Millisecond))
}

// dump prints the bit-exact simulated outputs of every system x algorithm
// cell (bench.DumpCells). Its output must be byte-identical before and
// after any host-side performance change: the simulated clock is the
// paper reproduction, so optimizations may only change host wall-clock
// time. internal/bench/testdata holds the tiny and small captures.
func dump(args []string) {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	scaleFlag := fs.String("scale", "tiny", "dataset scale: tiny, small or default")
	fs.Parse(args)
	check(bench.DumpCells(parseScale(*scaleFlag), func(sys bench.System, alg bench.Algo, g *graph.Graph, mk func() *numa.Machine) error {
		_, err := io.WriteString(os.Stdout, bench.DumpLine(bench.RunFrom(sys, alg, g, mk(), 0)))
		return err
	}))
}

// traceMicro replays t's Figure 4 sweep through the obs sinks: it prints
// the traffic breakdown and writes the Chrome trace to path, suffixed with
// the topology name for any machine but intel80.
func traceMicro(t *numa.Topology, path string) {
	chrome, bd := obs.NewChrome(), obs.NewBreakdown()
	bench.TraceMicro(t, obs.New(obs.Multi{chrome, bd}))
	fmt.Printf("traffic breakdown — %s\n%s\n", t.Name, bd.Format())
	if t.Name != numa.IntelXeon80().Name {
		path += "." + t.Name
	}
	writeTrace(chrome, path)
	fmt.Println()
}

// planSweep scores the planner against the exhaustive oracle on the whole
// corpus for PR, BFS and SSSP, every socket of t at two cores each: cold,
// and on the second of two passes that feed every pick back to a learning
// planner.
func planSweep(t *numa.Topology) (cold, learned plan.SweepResult) {
	corpus, algs := plan.Corpus(), []bench.Algo{bench.PR, bench.BFS, bench.SSSP}
	cold = plan.Sweep(plan.New(t, 2), corpus, algs, t.Sockets, false, true)
	p := plan.New(t, 2)
	for pass := 0; pass < 2; pass++ {
		learned = plan.Sweep(p, corpus, algs, t.Sockets, true, false)
	}
	return cold, learned
}

// formatPlanSweep renders the cold sweep's per-cell table and both
// sweeps' regrets. Cost regret is the acceptance metric: the extra
// simulated cost the picks incur over the oracle, weighted by actual
// cost. The unweighted per-cell mean surfaces corner-case misses.
func formatPlanSweep(cold, learned plan.SweepResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "planner v%d vs oracle — %s, %d sockets x %d cores, %d cells\n\n",
		plan.Version, cold.Topology, cold.Nodes, cold.Cores, len(cold.Cells))
	fmt.Fprintf(&b, "%-22s %-5s %-26s %-26s %8s\n", "graph", "alg", "pick", "oracle", "regret")
	for _, c := range cold.Cells {
		match := ""
		if c.Pick == c.Oracle {
			match = "  =oracle"
		}
		fmt.Fprintf(&b, "%-22s %-5s %-26s %-26s %7.1f%%%s\n",
			c.Graph, c.Alg, c.Pick, c.Oracle, c.Regret*100, match)
	}
	regret := func(name string, r plan.SweepResult) {
		fmt.Fprintf(&b, "%-16s cost regret: %.1f%%   per-cell mean: %.1f%%   max: %.1f%%\n",
			name, r.CostRegret*100, r.MeanRegret*100, r.MaxRegret*100)
	}
	b.WriteByte('\n')
	regret("cold", cold)
	regret("learned, pass 2", learned)
	return b.String()
}

// planCellsCSV lists both sweeps' cells: pick, oracle and their clocks.
func planCellsCSV(cold, learned plan.SweepResult) ([]string, [][]string) {
	var rows [][]string
	add := func(pass string, r plan.SweepResult) {
		for _, c := range r.Cells {
			rows = append(rows, []string{pass, c.Graph, string(c.Alg), c.Pick.String(), c.Oracle.String(),
				fmt.Sprintf("%g", c.PickSim), fmt.Sprintf("%g", c.BestSim), fmt.Sprintf("%g", c.Regret)})
		}
	}
	add("cold", cold)
	add("learned2", learned)
	return []string{"pass", "graph", "alg", "pick", "oracle", "pick_sim", "oracle_sim", "regret"}, rows
}

// planRowsCSV lists every candidate the cold sweep ran: predicted against
// simulated seconds.
func planRowsCSV(cold plan.SweepResult) ([]string, [][]string) {
	var rows [][]string
	for _, c := range cold.Cells {
		for _, r := range c.Rows {
			rows = append(rows, []string{c.Graph, string(c.Alg), r.Candidate.String(),
				fmt.Sprintf("%g", r.Predicted), fmt.Sprintf("%g", r.Sim), r.Err})
		}
	}
	return []string{"graph", "alg", "candidate", "predicted", "sim", "err"}, rows
}

// Command experiments regenerates the paper's tables and figures on the
// simulated NUMA machine and prints them in the layout of the paper's
// evaluation section, and runs the experiments beyond the paper.
//
// Usage:
//
//	experiments [-scale tiny|small|default|huge] [-machine intel|amd] [-csv dir] [-trace file]
//	            [-exp all|fig3b|fig4|fig5|table3|fig7|fig8|fig9|table4|table5|fig10a|fig10b|table6a|table6b|fn6|fig11|cluster|tier|profile|plan]
//
// all is the paper's evaluation. The ids beyond it run only when named:
// cluster (Figure 4 lifted to 1, 2, 4 and 8 replicated machines on
// powerlaw), tier (hot-vertex tiering vs naive interleave on powerlaw,
// gated on its ordering), profile (the planner's feature vector for every
// corpus graph) and plan (the planner against the exhaustive oracle on
// that corpus, cold and after two learning passes). -trace writes fig4's
// sweep as Chrome trace_event JSON and prints its traffic breakdown.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"polymer/internal/bench"
	"polymer/internal/cluster"
	"polymer/internal/gen"
	"polymer/internal/numa"
	"polymer/internal/plan"
)

func main() {
	scaleFlag := flag.String("scale", "default", "dataset scale: tiny, small, default or huge")
	machineFlag := flag.String("machine", "intel", "topology for single-machine experiments: intel or amd")
	expFlag := flag.String("exp", "all", "experiment id (comma separated), or all")
	csvDir := flag.String("csv", "", "also write raw CSV files for plotting into this directory")
	traceFlag := flag.String("trace", "", "write fig4's sweep as Chrome trace_event JSON to this file and print its traffic breakdown")
	flag.Parse()

	sc, err := gen.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	topo, err := numa.TopologyByName(*machineFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	run := func(id string) bool { return all || want[id] }
	die := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	csvOut := func(name string, header []string, rows [][]string) {
		if *csvDir == "" {
			return
		}
		die(bench.WriteCSV(*csvDir, name, header, rows))
	}

	start := time.Now()
	fmt.Printf("# Polymer evaluation — scale=%s machine=%s\n\n", *scaleFlag, topo.Name)

	if run("fig3b") {
		for _, t := range []*numa.Topology{numa.IntelXeon80(), numa.AMDOpteron64()} {
			fmt.Println(bench.FormatLatencyTable(t, bench.LatencyTable(t)))
		}
	}
	if run("fig4") {
		for _, t := range []*numa.Topology{numa.IntelXeon80(), numa.AMDOpteron64()} {
			fmt.Println(bench.FormatBandwidthTable(t, bench.BandwidthTable(t)))
			if *traceFlag != "" {
				die(traceMicro(t, *traceFlag))
			}
		}
	}
	if run("fig5") {
		baselines := []bench.System{bench.Ligra, bench.XStream, bench.Galois}
		series, err := bench.CoreScaling(numa.IntelXeon80(), sc, baselines)
		die(err)
		fmt.Println(bench.FormatScaling("Figure 5(a): PR/twitter speedup with cores (1 socket, Intel)", "cores", series))
		h, rows := bench.ScalingCSV(series)
		csvOut("fig5a", h, rows)
		series, err = bench.SocketScaling(numa.IntelXeon80(), sc, bench.PR, baselines)
		die(err)
		fmt.Println(bench.FormatScaling("Figure 5(b,c): PR/twitter with sockets (Intel)", "sockets", series))
		h, rows = bench.ScalingCSV(series)
		csvOut("fig5bc", h, rows)
		series, err = bench.SocketScaling(numa.AMDOpteron64(), sc, bench.PR, baselines)
		die(err)
		fmt.Println(bench.FormatScaling("Figure 5(d): PR/twitter with sockets (AMD)", "sockets", series))
		h, rows = bench.ScalingCSV(series)
		csvOut("fig5d", h, rows)
	}
	if run("table3") {
		cells, err := bench.Table3(topo, sc)
		die(err)
		fmt.Println(bench.FormatTable3(cells))
		h, rows := bench.Table3CSV(cells)
		csvOut("table3", h, rows)
	}
	if run("fig7") {
		series, err := bench.SocketScaling(numa.IntelXeon80(), sc, bench.PR, bench.Systems())
		die(err)
		fmt.Println(bench.FormatScaling("Figure 7: PR/twitter with sockets, all systems (Intel)", "sockets", series))
		h, rows := bench.ScalingCSV(series)
		csvOut("fig7", h, rows)
	}
	if run("fig8") {
		series, err := bench.SocketScaling(numa.AMDOpteron64(), sc, bench.PR, bench.Systems())
		die(err)
		fmt.Println(bench.FormatScaling("Figure 8: PR/twitter with sockets, all systems (AMD)", "sockets", series))
		h, rows := bench.ScalingCSV(series)
		csvOut("fig8", h, rows)
	}
	if run("fig9") {
		series, err := bench.SocketScaling(numa.IntelXeon80(), sc, bench.BFS, bench.Systems())
		die(err)
		fmt.Println(bench.FormatScaling("Figure 9: BFS/twitter with sockets, all systems (Intel)", "sockets", series))
		h, rows := bench.ScalingCSV(series)
		csvOut("fig9", h, rows)
	}
	if run("table4") {
		for _, alg := range []bench.Algo{bench.PR, bench.BFS} {
			rows, err := bench.Table4(topo, sc, alg)
			die(err)
			fmt.Println(bench.FormatTable4(alg, rows))
		}
	}
	if run("table5") {
		rows, err := bench.Table5(topo, sc)
		die(err)
		fmt.Println(bench.FormatTable5(rows))
		h, rcsv := bench.Table5CSV(rows)
		csvOut("table5", h, rcsv)
	}
	if run("fig10a") {
		points := bench.BarrierStudy(topo.Sockets, 4, 100)
		fmt.Println(bench.FormatBarrierStudy(points))
		h, rows := bench.BarrierCSV(points)
		csvOut("fig10a", h, rows)
	}
	if run("fig10b") {
		rows, err := bench.Figure10b(topo, sc)
		die(err)
		fmt.Println(bench.FormatAblation("Figure 10(b): w/o (P-Barrier) vs w/ (N-Barrier), roadUS", rows))
		h, rcsv := bench.AblationCSV(rows)
		csvOut("fig10b", h, rcsv)
	}
	if run("table6a") {
		rows, err := bench.Table6a(topo, sc)
		die(err)
		fmt.Println(bench.FormatAblation("Table 6(a): w/o vs w/ adaptive data structures, roadUS", rows))
		h, rcsv := bench.AblationCSV(rows)
		csvOut("table6a", h, rcsv)
	}
	if run("table6b") {
		rows, err := bench.Table6b(topo, sc)
		die(err)
		fmt.Println(bench.FormatAblation("Table 6(b): w/o vs w/ balanced partitioning, twitter", rows))
		h, rcsv := bench.AblationCSV(rows)
		csvOut("table6b", h, rcsv)
	}
	if run("fn6") {
		rows, err := bench.IterationOverhead(topo, sc)
		die(err)
		fmt.Println(bench.FormatIterationOverhead(rows))
	}
	if run("fig11") {
		r, err := bench.Figure11(topo, sc)
		die(err)
		fmt.Println(bench.FormatFigure11(r))
		h, rows := bench.Fig11CSV(r)
		csvOut("fig11", h, rows)
	}
	if want["cluster"] {
		// One weighted load serves all three kernels; pr and bfs ignore
		// the weights, sssp needs them.
		g, err := gen.Load(gen.PowerLaw, sc, true)
		die(err)
		rows, err := cluster.Sweep(context.Background(), g, cluster.Config{}, cluster.Algos(), []int{1, 2, 4, 8}, 0)
		die(err)
		fmt.Println(cluster.FormatSweep(cluster.SweepGraphLabel(string(gen.PowerLaw), g), rows))
		for _, row := range rows {
			fmt.Printf("%s @ %d machines\n", row.Algo, row.Points[len(row.Points)-1].Machines)
			fmt.Println(cluster.FormatLinks(row.Largest.Links))
			fmt.Println(cluster.FormatTraffic(row.Largest.Traffic))
		}
	}
	if want["tier"] {
		g, err := gen.Load(gen.PowerLaw, sc, false)
		die(err)
		ts, err := bench.RunTierSweep(string(gen.PowerLaw)+"/"+*scaleFlag, g)
		die(err)
		fmt.Println(bench.FormatTierSweep(ts))
		die(ts.Gate())
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

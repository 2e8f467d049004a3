// Command polymer runs one graph algorithm on one dataset with a chosen
// engine and prints the simulated runtime, access statistics and a result
// summary.
//
// Usage:
//
//	polymer -algo pr -graph twitter -system polymer -sockets 8 -cores 10
//	polymer -algo bfs -graph roadUS -system xstream -scale small
//	polymer -algo pr -graph powerlaw -system auto -plan
//	polymer -algo sssp -graph roadUS -scale small -system auto
//	polymer -algo sssp -file my-graph.txt -src 42
//	polymer -algo pr -graph powerlaw -scale tiny -fault "panic@2:t3,offline@1:n1"
//	polymer -algo pr -graph powerlaw -scale tiny -fault-seed 7
//	polymer -algo pr -graph powerlaw -scale tiny -trace trace.json -breakdown
//	polymer -algo pr -graph powerlaw -scale huge -machines 4 -replicas 2
//	polymer -algo bfs -graph rmat24 -machines 6 -replicas 4 -fault-seed 11
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
	"polymer/internal/fault"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/mem"
	"polymer/internal/numa"
	"polymer/internal/obs"
	"polymer/internal/plan"
)

func main() {
	algoFlag := flag.String("algo", "pr", "algorithm: pr, spmv, bp, bfs, cc or sssp")
	graphFlag := flag.String("graph", "twitter", "dataset: twitter, rmat24, rmat27, powerlaw or roadUS")
	fileFlag := flag.String("file", "", "load an edge-list file instead of a generated dataset")
	systemFlag := flag.String("system", "polymer", "engine: polymer, ligra, xstream, galois or auto (cost-model planner chooses)")
	planFlag := flag.Bool("plan", false, "print the planner's scored decision table before running")
	scaleFlag := flag.String("scale", "default", "dataset scale: tiny, small, default or huge")
	machineFlag := flag.String("machine", "intel", "topology: intel or amd")
	socketsFlag := flag.Int("sockets", 0, "sockets to use (0 = all)")
	coresFlag := flag.Int("cores", 0, "cores per socket (0 = all)")
	srcFlag := flag.Uint("src", 0, "source vertex for bfs/sssp")
	phasesFlag := flag.Bool("phases", false, "print the per-phase execution trace (polymer only)")
	traceFlag := flag.String("trace", "", "write a Chrome trace_event JSON file (open in Perfetto or chrome://tracing)")
	breakdownFlag := flag.Bool("breakdown", false, "print the per-superstep NUMA traffic breakdown")
	faultFlag := flag.String("fault", "", "inject a fault spec, e.g. panic@2:t3,stall@1:t0,offline@1:n1,link@3:n0-n1*0.25,alloc@-1")
	faultSeedFlag := flag.Uint64("fault-seed", 0, "generate a deterministic fault schedule from this seed (overridden by -fault)")
	faultRetriesFlag := flag.Int("fault-retries", 3, "whole-run restarts allowed for setup-time faults")
	machinesFlag := flag.Int("machines", 0, "replicated cluster run across this many simulated machines (0 = single machine)")
	replicasFlag := flag.Int("replicas", 0, "replicas per shard for cluster runs (0 = min(2, machines))")
	dramBytesFlag := flag.Int64("dram-bytes", 0, "per-node DRAM budget in bytes (0 = untiered; demand beyond it spills to the simulated slow tier)")
	tierFlag := flag.String("tier", "hot", "tier placement policy when -dram-bytes is set: hot (degree-ranked residency) or interleave (uniform spill)")
	promoteEveryFlag := flag.Int("promote-every", 1, "phases between hot-policy promotion passes (0 = static placement)")
	flag.Parse()

	alg, ok := map[string]bench.Algo{
		"pr": bench.PR, "spmv": bench.SpMV, "bp": bench.BP,
		"bfs": bench.BFS, "cc": bench.CC, "sssp": bench.SSSP,
	}[strings.ToLower(*algoFlag)]
	if !ok {
		fail("unknown algorithm %q", *algoFlag)
	}
	autoSys := strings.EqualFold(*systemFlag, "auto")
	var sys bench.System
	if !autoSys {
		sys, ok = map[string]bench.System{
			"polymer": bench.Polymer, "ligra": bench.Ligra,
			"xstream": bench.XStream, "x-stream": bench.XStream, "galois": bench.Galois,
		}[strings.ToLower(*systemFlag)]
		if !ok {
			fail("unknown system %q (want polymer, ligra, xstream, galois or auto)", *systemFlag)
		}
	}
	sc, err := gen.ParseScale(*scaleFlag)
	if err != nil {
		fail("%v", err)
	}
	topo, err := numa.TopologyByName(*machineFlag)
	if err != nil {
		fail("%v", err)
	}
	sockets, cores := *socketsFlag, *coresFlag
	if sockets == 0 {
		sockets = topo.Sockets
	}
	if cores == 0 {
		cores = topo.CoresPerSocket
	}

	// -dram-bytes arms the simulated slow tier on every machine this run
	// builds (including fault-path rebuilds); the policy decides what
	// stays DRAM-resident.
	var tierCfg numa.TierConfig
	if *dramBytesFlag > 0 {
		pol, perr := numa.ParseTierPolicy(*tierFlag)
		if perr != nil {
			fail("%v", perr)
		}
		if pol == numa.TierNone {
			fail("-dram-bytes needs a tier policy: pass -tier hot or -tier interleave")
		}
		tierCfg = numa.TierConfig{DRAMPerNode: *dramBytesFlag, Policy: pol, PromoteEvery: *promoteEveryFlag}
	}

	var g *graph.Graph
	if *fileFlag != "" {
		f, ferr := os.Open(*fileFlag)
		if ferr != nil {
			fail("%v", ferr)
		}
		var (
			n        int
			edges    []graph.Edge
			weighted bool
			perr     error
		)
		switch {
		case strings.HasSuffix(*fileFlag, ".gr"):
			n, edges, perr = graph.ReadDIMACS(f)
			weighted = true
		case strings.HasSuffix(*fileFlag, ".bin"):
			n, edges, weighted, perr = graph.ReadBinary(f)
		default:
			n, edges, weighted, perr = graph.ReadEdgeList(f)
		}
		f.Close()
		if perr != nil {
			fail("%v", perr)
		}
		if alg.Weighted() && !weighted {
			gen.AddRandomWeights(edges, 1)
			weighted = true
		}
		g = graph.FromEdges(n, edges, weighted)
	} else {
		g, err = bench.LoadDataset(gen.Dataset(*graphFlag), sc, alg)
		if err != nil {
			fail("%v", err)
		}
	}
	src := graph.Vertex(*srcFlag)
	if int(src) >= g.NumVertices() {
		fail("source %d outside [0,%d)", src, g.NumVertices())
	}

	// The trace flags share one tracer: every sink sees the same event
	// stream, so -trace and -breakdown compose.
	var (
		chrome *obs.Chrome
		bd     *obs.Breakdown
		sinks  obs.Multi
	)
	if *traceFlag != "" {
		chrome = obs.NewChrome()
		sinks = append(sinks, chrome)
	}
	if *breakdownFlag {
		bd = obs.NewBreakdown()
		sinks = append(sinks, bd)
	}
	var tr *obs.Tracer
	if len(sinks) > 0 {
		tr = obs.New(sinks)
	}

	// Cluster runs replace the single simulated machine with N replicated
	// ones behind the network cost model; everything after this branch is
	// the single-machine path.
	if *machinesFlag > 0 {
		if *planFlag {
			fail("-plan does not apply to cluster runs (the substrate is polymer-only)")
		}
		if tierCfg.Tiered() {
			fail("-dram-bytes applies to single-machine runs only (cluster machines are untiered)")
		}
		calg, ok := map[bench.Algo]cluster.Algo{
			bench.PR: cluster.PR, bench.BFS: cluster.BFS, bench.SSSP: cluster.SSSP,
		}[alg]
		if !ok {
			fail("algorithm %s is not served on the cluster substrate (want pr, bfs or sssp)", alg)
		}
		if *faultFlag != "" {
			fail("single-machine fault specs don't apply to cluster runs; use -fault-seed for cluster chaos")
		}
		cfg := cluster.Config{
			Machines: *machinesFlag, Replicas: *replicasFlag,
			Topo: topo, Nodes: sockets, Cores: cores, Tracer: tr,
		}
		if *faultSeedFlag != 0 {
			cfg.Events = fault.ClusterChaos(*faultSeedFlag, 3, *machinesFlag)
		}
		cl, err := cluster.New(g, cfg)
		if err != nil {
			fail("%v", err)
		}
		wall := time.Now()
		res, err := cl.Run(context.Background(), calg, src)
		if err != nil {
			fail("%v", err)
		}
		elapsed := time.Since(wall)

		healthy := 0
		for _, mh := range res.Machines {
			if mh.State == "healthy" {
				healthy++
			}
		}
		replicas := *replicasFlag
		if replicas <= 0 {
			replicas = 2
		}
		if replicas > *machinesFlag {
			replicas = *machinesFlag
		}
		fmt.Printf("algorithm  : %s\n", alg)
		fmt.Printf("graph      : %s\n", g)
		fmt.Printf("cluster    : %d machines x (%d nodes x %d cores), %d replicas/shard\n",
			*machinesFlag, sockets, cores, replicas)
		fmt.Printf("sim time   : %.6f s\n", res.SimSeconds)
		fmt.Printf("wall time  : %v\n", elapsed.Round(time.Millisecond))
		fmt.Printf("supersteps : %d\n", res.Supersteps)
		fmt.Printf("failovers  : %d\n", res.Failovers)
		fmt.Printf("health     : %d/%d machines healthy\n", healthy, len(res.Machines))
		fmt.Printf("net traffic: %.2f MB\n", res.NetBytes/1e6)
		fmt.Printf("remote rate: %.1f%%  (%.1fM remote accesses)\n", res.Stats.RemoteRate*100, float64(res.Stats.RemoteCount)/1e6)
		fmt.Printf("checksum   : %g\n", res.Checksum)
		for _, mh := range res.Machines {
			fmt.Printf("  m%-3d %-8s shards %v\n", mh.ID, mh.State, mh.Shards)
		}
		if len(res.Protocol) > 0 {
			fmt.Printf("\nfailover protocol:\n")
			for _, line := range res.Protocol {
				fmt.Printf("  %s\n", line)
			}
		}
		fmt.Printf("\n%s", cluster.FormatLinks(res.Links))
		if *breakdownFlag && res.Traffic != nil {
			fmt.Printf("\n%s", cluster.FormatTraffic(res.Traffic))
		}
		if bd != nil {
			fmt.Printf("\n%s", bd.Format())
		}
		exportChrome(chrome, *traceFlag)
		return
	}

	// -system auto hands the (engine, placement, width) choice to the
	// cost-model planner; -plan prints the scored table either way (with
	// an explicit engine the table is restricted to that engine).
	var (
		layout    mem.Placement
		layoutSet bool
	)
	if autoSys || *planFlag {
		feats := plan.Profile(g)
		q := plan.Query{Features: feats, Alg: alg, Nodes: sockets, NodesFixed: *socketsFlag != 0, Tier: tierCfg}
		if !autoSys {
			q.EngineFixed = sys
		}
		d := plan.New(topo, cores).Resolve(q)
		if *planFlag {
			fmt.Printf("profile    : %s\n", feats)
			fmt.Printf("planner v%d decision table:\n", plan.Version)
			for _, s := range d.Table {
				mark := " "
				if s.Candidate == d.Pick {
					mark = "*"
				}
				note := ""
				if s.Vetoed {
					note = "  vetoed"
				}
				fmt.Printf("  %s %-30s cost %10.6f s   raw %10.6f s%s\n",
					mark, s.Candidate, s.Cost, s.Raw, note)
			}
			if d.Fallback {
				fmt.Printf("  (every candidate vetoed: fallback pick)\n")
			}
		}
		if autoSys {
			sys, sockets = d.Pick.Engine, d.Pick.Nodes
			if sys == bench.Polymer && d.Pick.Placement != mem.CoLocated {
				layout, layoutSet = d.Pick.Placement, true
			}
			if len(d.Table) == 0 {
				fmt.Printf("planned    : %s (%s is outside the planner's coverage: native fallback)\n", d.Pick, alg)
			} else {
				fmt.Printf("planned    : %s (predicted %.6f s)\n", d.Pick, d.Predicted)
			}
		}
	}

	m, err := numa.NewMachineChecked(topo, sockets, cores)
	if err != nil {
		fail("%v", err)
	}
	if tierCfg.Tiered() {
		if err := m.SetTierConfig(tierCfg); err != nil {
			fail("%v", err)
		}
	}

	// One options value carries the source, the tracer, the planner's
	// placement and the phase trace into whichever path runs.
	opt := bench.Options{Src: src, Tracer: tr, Layout: layout, LayoutSet: layoutSet, Phases: *phasesFlag}
	wall := time.Now()
	var (
		r   bench.RunResult
		rep *bench.ResilienceReport
	)
	if *faultFlag != "" || *faultSeedFlag != 0 {
		var evs []*fault.Event
		if *faultFlag != "" {
			evs, err = fault.ParseSpec(*faultFlag)
			if err != nil {
				fail("%v", err)
			}
		} else {
			evs = fault.Schedule(*faultSeedFlag, 5, sockets*cores, sockets)
		}
		mk := func() *numa.Machine {
			fm := numa.NewMachine(topo, sockets, cores)
			if tierCfg.Tiered() {
				if err := fm.SetTierConfig(tierCfg); err != nil {
					panic(err)
				}
			}
			return fm
		}
		ropt := bench.ResilientOptions{MaxRestarts: *faultRetriesFlag, SessionRetries: -1, Options: opt}
		var rr bench.ResilienceReport
		r, rr, err = bench.RunResilientCtx(context.Background(), sys, alg, g, mk, fault.NewInjector(evs), ropt)
		if err != nil {
			// The report still records every rollback and restart attempted
			// before the retry budget ran out — print it so a failed run is
			// diagnosable, then exit non-zero.
			fmt.Fprintf(os.Stderr, "%s", rr.Format())
			fail("%v", err)
		}
		rep = &rr
	} else if r, err = bench.RunWith(sys, alg, g, m, opt); err != nil {
		fail("%v", err)
	}
	phases := r.Phases
	elapsed := time.Since(wall)

	fmt.Printf("system     : %s\n", sys)
	fmt.Printf("algorithm  : %s\n", alg)
	fmt.Printf("graph      : %s\n", g)
	fmt.Printf("machine    : %s\n", m)
	if tierCfg.Tiered() {
		fmt.Printf("tier       : %s policy, %.1f MB DRAM/node, slow-tier rate %.1f%%\n",
			tierCfg.Policy, float64(tierCfg.DRAMPerNode)/1e6, r.Stats.SlowRate*100)
	}
	fmt.Printf("sim time   : %.6f s\n", r.SimSeconds)
	fmt.Printf("wall time  : %v\n", elapsed.Round(time.Millisecond))
	fmt.Printf("remote rate: %.1f%%  (%.1fM remote accesses)\n", r.Stats.RemoteRate*100, float64(r.Stats.RemoteCount)/1e6)
	fmt.Printf("peak memory: %.1f MB\n", float64(r.PeakBytes)/1e6)
	if r.AgentBytes > 0 {
		fmt.Printf("agents     : %.1f MB\n", float64(r.AgentBytes)/1e6)
	}
	fmt.Printf("checksum   : %g\n", r.Checksum)
	if rep != nil {
		fmt.Printf("\n%s", rep.Format())
	}
	if bd != nil {
		fmt.Printf("\n%s", bd.Format())
	}
	exportChrome(chrome, *traceFlag)
	if len(phases) > 0 {
		fmt.Printf("\n%-4s %-10s %-7s %-6s %12s %14s\n", "#", "phase", "repr", "dir", "active-in", "sim (usec)")
		for i, p := range phases {
			repr, dir := "sparse", "-"
			if p.Dense {
				repr = "dense"
			}
			if p.Kind == "edgemap" {
				if p.Push {
					dir = "push"
				} else {
					dir = "pull"
				}
			}
			fmt.Printf("%-4d %-10s %-7s %-6s %12d %14.2f\n", i, p.Kind, repr, dir, p.ActiveIn, p.SimSeconds*1e6)
		}
	}
}

func exportChrome(chrome *obs.Chrome, path string) {
	if chrome == nil {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fail("%v", err)
	}
	if err := chrome.Export(f); err != nil {
		f.Close()
		fail("writing trace: %v", err)
	}
	if err := f.Close(); err != nil {
		fail("writing trace: %v", err)
	}
	fmt.Printf("trace      : %d events -> %s (load in Perfetto or chrome://tracing)\n", chrome.Len(), path)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "polymer: "+format+"\n", args...)
	os.Exit(1)
}

// Command polymer is the one command line over the reproduction. With no
// sub-command it runs one graph algorithm on one dataset with a chosen
// engine and prints the simulated runtime, access statistics and a result
// summary. A first argument that does not start with "-" names a
// sub-command, which keeps its own flags:
//
//	polymer experiments  the paper's tables and figures, and the experiments beyond it
//	polymer dump         the bit-exact simulated outputs of every system x algorithm cell
//	polymer graphgen     write a dataset or a custom graph as a loadable file
//	polymer conform      sweep the cross-engine conformance matrix and shrink a divergence
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
//	polymer experiments -scale tiny -exp table3,fig7
//	polymer dump -scale small
//	polymer graphgen -dataset twitter -scale small -o twitter.txt
//	polymer conform -seed 1 -graphs 8
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"polymer/internal/bench"
	"polymer/internal/fault"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/mem"
	"polymer/internal/numa"
	"polymer/internal/obs"
	"polymer/internal/plan"
)

// commands are the sub-commands; a bare flag list runs one algorithm.
var commands = map[string]func(args []string){
	"experiments": experiments,
	"dump":        dump,
	"graphgen":    graphgen,
	"conform":     conformSweep,
}

func main() {
	args := os.Args[1:]
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		run(args)
		return
	}
	cmd, ok := commands[args[0]]
	if !ok {
		names := make([]string, 0, len(commands))
		for name := range commands {
			names = append(names, name)
		}
		sort.Strings(names)
		fail("unknown command %q (want %s, or run flags)", args[0], strings.Join(names, ", "))
	}
	cmd(args[1:])
}

func run(args []string) {
	fs := flag.NewFlagSet("polymer", flag.ExitOnError)
	algoFlag := fs.String("algo", "pr", "algorithm: pr, spmv, bp, bfs, cc or sssp")
	graphFlag := fs.String("graph", "twitter", "dataset: twitter, rmat24, rmat27, powerlaw or roadUS")
	fileFlag := fs.String("file", "", "load an edge-list file instead of a generated dataset")
	systemFlag := fs.String("system", "polymer", "engine: polymer, ligra, xstream, galois or auto (cost-model planner chooses)")
	planFlag := fs.Bool("plan", false, "print the planner's scored decision table before running")
	scaleFlag := fs.String("scale", "default", "dataset scale: tiny, small or default")
	machineFlag := fs.String("machine", "intel", "topology: intel or amd")
	socketsFlag := fs.Int("sockets", 0, "sockets to use (0 = all)")
	coresFlag := fs.Int("cores", 0, "cores per socket (0 = all)")
	srcFlag := fs.Uint("src", 0, "source vertex for bfs/sssp")
	phasesFlag := fs.Bool("phases", false, "print the edgemap and vertexmap phases the run's tracer sees (polymer and ligra; under -fault, rolled-back attempts' phases too)")
	traceFlag := fs.String("trace", "", "write a Chrome trace_event JSON file (open in Perfetto or chrome://tracing)")
	breakdownFlag := fs.Bool("breakdown", false, "print the per-superstep NUMA traffic breakdown")
	faultFlag := fs.String("fault", "", "inject a fault spec, e.g. panic@2:t3,stall@1:t0,offline@1:n1,link@3:n0-n1*0.25,alloc@-1")
	faultSeedFlag := fs.Uint64("fault-seed", 0, "generate a deterministic fault schedule from this seed (overridden by -fault)")
	restartsFlag := fs.Int("restarts", 3, "whole-run restarts allowed under -fault or -fault-seed, for setup-time faults and steps that spent their replay budget (polymerd's restarts)")
	dramBytesFlag := fs.Int64("dram-bytes", 0, "per-node DRAM budget in bytes (0 = untiered; demand beyond it spills to the simulated slow tier)")
	tierFlag := fs.String("tier", "hot", "tier placement policy when -dram-bytes is set: hot (degree-ranked residency) or interleave (uniform spill)")
	promoteEveryFlag := fs.Int("promote-every", 1, "phases between hot-policy promotion passes (0 = static placement)")
	fs.Parse(args)

	alg, err := bench.ParseAlgo(*algoFlag)
	check(err)
	autoSys := strings.EqualFold(*systemFlag, "auto")
	var sys bench.System
	if !autoSys {
		sys, err = bench.ParseSystem(*systemFlag)
		check(err)
	}
	sc, topo := parseScale(*scaleFlag), parseMachine(*machineFlag)
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
		pol, err := numa.ParseTierPolicy(*tierFlag)
		check(err)
		if pol == numa.TierNone {
			fail("-dram-bytes needs a tier policy: pass -tier hot or -tier interleave")
		}
		tierCfg = numa.TierConfig{DRAMPerNode: *dramBytesFlag, Policy: pol, PromoteEvery: *promoteEveryFlag}
	}

	var g *graph.Graph
	if *fileFlag != "" {
		g = loadFile(*fileFlag, alg)
	} else {
		g, err = bench.LoadDataset(gen.Dataset(*graphFlag), sc, alg)
		check(err)
	}
	src := graph.Vertex(*srcFlag)
	if int(src) >= g.NumVertices() {
		fail("source %d outside [0,%d)", src, g.NumVertices())
	}

	// The trace flags share one tracer: every sink sees the same event
	// stream, so -trace, -breakdown and -phases compose.
	var (
		chrome *obs.Chrome
		bd     *obs.Breakdown
		phases *obs.PhaseLog
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
	if *phasesFlag {
		phases = &obs.PhaseLog{}
		sinks = append(sinks, phases)
	}
	var tr *obs.Tracer
	if len(sinks) > 0 {
		tr = obs.New(sinks)
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
				fmt.Printf("  %s %-30s cost %10.6f s   raw %10.6f s\n",
					mark, s.Candidate, s.Cost, s.Raw)
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
	check(err)
	if tierCfg.Tiered() {
		check(m.SetTierConfig(tierCfg))
	}

	// One options value carries the source, the tracer and the planner's
	// placement into whichever path runs.
	opt := bench.Options{Src: src, Tracer: tr, Layout: layout, LayoutSet: layoutSet}
	wall := time.Now()
	var (
		r   bench.RunResult
		rep *bench.ResilienceReport
	)
	if *faultFlag != "" || *faultSeedFlag != 0 {
		var evs []*fault.Event
		if *faultFlag != "" {
			evs, err = fault.ParseSpec(*faultFlag)
			check(err)
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
		ropt := bench.ResilientOptions{MaxRestarts: *restartsFlag, SessionRetries: -1, Options: opt}
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
	} else {
		r, err = bench.RunWith(sys, alg, g, m, opt)
		check(err)
	}
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
	writeTrace(chrome, *traceFlag)
	if phases != nil && len(phases.Events) > 0 {
		fmt.Printf("\n%-4s %-10s %-7s %-6s %12s %14s\n", "#", "phase", "repr", "dir", "active-in", "sim (usec)")
		for i, ev := range phases.Events {
			repr, dir := "sparse", "-"
			if ev.Dense {
				repr = "dense"
			}
			if ev.Name == "edgemap" {
				if ev.Push {
					dir = "push"
				} else {
					dir = "pull"
				}
			}
			fmt.Printf("%-4d %-10s %-7s %-6s %12d %14.2f\n", i, ev.Name, repr, dir, ev.Active, ev.Dur)
		}
	}
}

// loadFile reads a graph file by its suffix (.gr DIMACS, .bin binary,
// anything else an edge list), adding random weights when alg needs them.
func loadFile(path string, alg bench.Algo) *graph.Graph {
	f, err := os.Open(path)
	check(err)
	var (
		n        int
		edges    []graph.Edge
		weighted bool
	)
	switch {
	case strings.HasSuffix(path, ".gr"):
		n, edges, err = graph.ReadDIMACS(f)
		weighted = true
	case strings.HasSuffix(path, ".bin"):
		n, edges, weighted, err = graph.ReadBinary(f)
	default:
		n, edges, weighted, err = graph.ReadEdgeList(f)
	}
	f.Close()
	check(err)
	if alg.Weighted() && !weighted {
		gen.AddRandomWeights(edges, 1)
		weighted = true
	}
	return graph.FromEdges(n, edges, weighted)
}

// writeTrace exports the Chrome trace sink to path; a nil sink writes
// nothing.
func writeTrace(chrome *obs.Chrome, path string) {
	if chrome == nil {
		return
	}
	f, err := os.Create(path)
	check(err)
	if err := chrome.Export(f); err != nil {
		f.Close()
		fail("writing trace: %v", err)
	}
	if err := f.Close(); err != nil {
		fail("writing trace: %v", err)
	}
	fmt.Printf("trace      : %d events -> %s (load in Perfetto or chrome://tracing)\n", chrome.Len(), path)
}

// parseScale and parseMachine resolve the -scale and -machine flags every
// sub-command shares.
func parseScale(name string) gen.Scale {
	sc, err := gen.ParseScale(name)
	check(err)
	return sc
}

func parseMachine(name string) *numa.Topology {
	topo, err := numa.TopologyByName(name)
	check(err)
	return topo
}

// check fails on a non-nil error.
func check(err error) {
	if err != nil {
		fail("%v", err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "polymer: "+format+"\n", args...)
	os.Exit(1)
}

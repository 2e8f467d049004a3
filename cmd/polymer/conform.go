package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"polymer/internal/conform"
	"polymer/internal/gen"
	"polymer/internal/graph"
)

// conformSweep sweeps the cross-engine conformance matrix over a seeded
// graph corpus and, on the first divergence, shrinks the failing graph to
// a minimal reproducer and writes it as a loadable edge list:
//
//	polymer conform -seed 1 -graphs 8                  # full sweep, exit 1 on divergence
//	polymer conform -inject cc-directed -out repro.el  # demo: minimise an injected bug
func conformSweep(args []string) {
	fs := flag.NewFlagSet("conform", flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "base seed for the random graph corpus")
	graphs := fs.Int("graphs", 4, "number of seeded random graphs (on top of the adversarial shapes)")
	machine := fs.String("machine", "both", "topology to sweep: intel, amd or both")
	inject := fs.String("inject", "", "instead of sweeping engines, minimise a deliberately injected oracle bug (pr-selfloop, cc-directed, bfs-offbyone)")
	out := fs.String("out", "conform-repro.el", "path for the minimised failing graph")
	fs.Parse(args)

	if *inject != "" {
		os.Exit(runInject(conform.InjectedBug(*inject), *seed, *graphs, *out))
	}
	ts := conform.Topos()
	if *machine != "both" {
		if !slices.Contains(ts, conform.Topo(*machine)) {
			fail("unknown machine %q (want intel, amd or both)", *machine)
		}
		ts = []conform.Topo{conform.Topo(*machine)}
	}
	os.Exit(runSweep(*seed, *graphs, ts, *out))
}

// corpusEntry is one graph of the sweep, kept as raw edges so it can be
// fed to the shrinker.
type corpusEntry struct {
	name     string
	n        int
	edges    []graph.Edge
	weighted bool
}

func corpus(seed uint64, graphs int) []corpusEntry {
	var cs []corpusEntry
	for _, shape := range gen.Adversarial() {
		cs = append(cs, corpusEntry{name: "adversarial/" + shape.Name, n: shape.N, edges: shape.Edges})
	}
	for i := 0; i < graphs; i++ {
		s := seed + uint64(i)*0x9e3779b9
		if i%2 == 0 {
			n, e := gen.Uniform(150+10*i, 800+40*i, s)
			cs = append(cs, corpusEntry{name: fmt.Sprintf("uniform-%d", i), n: n, edges: e})
		} else {
			n, e := gen.Powerlaw(192+16*i, 4, 2.0, s)
			gen.AddRandomWeights(e, s+1)
			cs = append(cs, corpusEntry{name: fmt.Sprintf("powerlaw-%d", i), n: n, edges: e, weighted: true})
		}
	}
	return cs
}

func runSweep(seed uint64, graphs int, ts []conform.Topo, out string) int {
	cases := 0
	for _, ent := range corpus(seed, graphs) {
		g := graph.FromEdges(ent.n, ent.edges, ent.weighted)
		for _, tp := range ts {
			for _, eng := range conform.Engines() {
				for _, alg := range conform.Algos() {
					c := conform.Case{Engine: eng, Algo: alg, Topo: tp}
					cases++
					d := conform.Check(c, g)
					if d == nil {
						continue
					}
					fmt.Fprintf(os.Stderr, "conform: DIVERGENCE on %s: %v\n", ent.name, d)
					fails := func(n int, edges []graph.Edge) bool {
						return conform.Check(c, graph.FromEdges(n, edges, ent.weighted)) != nil
					}
					reportShrunk(ent, c.String(), fails, out)
					return 1
				}
			}
		}
	}
	fmt.Printf("conform: %d cases over %d graphs x %d topologies: all conform\n",
		cases, len(corpus(seed, graphs)), len(ts))
	return 0
}

func runInject(b conform.InjectedBug, seed uint64, graphs int, out string) int {
	if !slices.Contains(conform.InjectedBugs(), b) {
		fmt.Fprintf(os.Stderr, "conform: unknown injected bug %q\n", b)
		return 2
	}
	fails := func(n int, edges []graph.Edge) bool {
		return conform.CheckInjected(b, graph.FromEdges(n, edges, false), 0) != nil
	}
	for _, ent := range corpus(seed, graphs) {
		if ent.weighted || !fails(ent.n, ent.edges) {
			continue
		}
		d := conform.CheckInjected(b, graph.FromEdges(ent.n, ent.edges, false), 0)
		fmt.Fprintf(os.Stderr, "conform: injected %s visible on %s: %v\n", b, ent.name, d)
		reportShrunk(ent, string(b), fails, out)
		return 1
	}
	fmt.Fprintf(os.Stderr, "conform: injected %s not visible on the corpus\n", b)
	return 2
}

// reportShrunk minimises the failing graph and writes it as a loadable
// edge list next to a replay hint.
func reportShrunk(ent corpusEntry, label string, fails conform.Failing, out string) {
	sn, sedges := conform.Shrink(ent.n, append([]graph.Edge(nil), ent.edges...), fails)
	fmt.Fprintf(os.Stderr, "conform: shrunk %s from n=%d |E|=%d to n=%d |E|=%d\n",
		ent.name, ent.n, len(ent.edges), sn, len(sedges))
	if err := writeEdges(sn, sedges, ent.weighted, "text", out); err != nil {
		fmt.Fprintln(os.Stderr, "conform:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "conform: minimal repro for %s written to %s\n", label, out)
}

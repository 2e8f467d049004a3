package main

import (
	"fmt"
	"os"
	"strings"

	"polymer/internal/bench"
	"polymer/internal/numa"
	"polymer/internal/obs"
	"polymer/internal/plan"
)

// traceMicro replays t's Figure 4 sweep through the obs sinks: it prints
// the traffic breakdown and writes the Chrome trace to path, suffixed with
// the topology name for any machine but intel80.
func traceMicro(t *numa.Topology, path string) error {
	chrome, bd := obs.NewChrome(), obs.NewBreakdown()
	bench.TraceMicro(t, obs.New(obs.Multi{chrome, bd}))
	fmt.Printf("traffic breakdown — %s\n%s\n", t.Name, bd.Format())
	if t.Name != numa.IntelXeon80().Name {
		path += "." + t.Name
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := chrome.Export(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	fmt.Printf("trace: %d events -> %s\n\n", chrome.Len(), path)
	return nil
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

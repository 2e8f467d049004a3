package bench

import (
	"fmt"
	"strings"

	"polymer/internal/gen"
	"polymer/internal/numa"
)

// IterOverheadRow reports one system's BFS iteration statistics on the
// road network: the paper's footnote 6 compares the per-iteration cost of
// maintaining runtime state (0.032 ms for Polymer, 0.043 ms for Ligra and
// 92 ms for X-Stream at full scale — the edge-centric engine must test
// every edge's source state even when a handful of vertices is active).
type IterOverheadRow struct {
	System      System
	Iterations  int64
	PerIterSecs float64
}

// IterationOverhead reproduces the footnote-6 comparison: BFS from vertex
// 0 on roadUS, average simulated time per iteration. Polymer's iterations
// are the EdgeMaps of its phase trace, the baselines' the BFS levels
// (every X-Stream iteration scans every edge).
func IterationOverhead(t *numa.Topology, sc gen.Scale) ([]IterOverheadRow, error) {
	g, err := gen.Load(gen.RoadUS, sc, false)
	if err != nil {
		return nil, err
	}
	var out []IterOverheadRow
	for _, sys := range []System{Polymer, Ligra, XStream} {
		r, err := RunWith(sys, BFS, g, numa.NewMachine(t, t.Sockets, t.CoresPerSocket), Options{Phases: true})
		if err != nil {
			return nil, err
		}
		iters := maxLevel(r.Out.I64)
		if sys == Polymer {
			iters = 0
			for _, p := range r.Phases {
				if p.Kind == "edgemap" {
					iters++
				}
			}
		}
		out = append(out, IterOverheadRow{sys, iters, r.SimSeconds / float64(iters)})
	}
	return out, nil
}

func maxLevel(levels []int64) int64 {
	var m int64 = 1
	for _, l := range levels {
		if l+1 > m {
			m = l + 1
		}
	}
	return m
}

// FormatIterationOverhead renders the footnote-6 comparison.
func FormatIterationOverhead(rows []IterOverheadRow) string {
	var b strings.Builder
	b.WriteString("Footnote 6: average per-iteration time, BFS on roadUS\n")
	fmt.Fprintf(&b, "%-10s%12s%18s\n", "System", "iterations", "per-iter (usec)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s%12d%18.2f\n", r.System, r.Iterations, r.PerIterSecs*1e6)
	}
	return b.String()
}

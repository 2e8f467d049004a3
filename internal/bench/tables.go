package bench

import (
	"fmt"
	"strings"

	"polymer/internal/barrier"
	"polymer/internal/core"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
)

// Table3Cell is one runtime cell of the paper's Table 3.
type Table3Cell struct {
	Algo    Algo
	Graph   gen.Dataset
	System  System
	Seconds float64
}

// Table3 reproduces the overall-performance table: all six algorithms
// over all five datasets on all four systems, using every node of the
// topology (the paper's "80 threads" configuration).
func Table3(t *numa.Topology, sc gen.Scale) ([]Table3Cell, error) {
	var out []Table3Cell
	for _, alg := range Algos() {
		for _, d := range gen.Datasets() {
			g, err := LoadDataset(d, sc, alg)
			if err != nil {
				return nil, err
			}
			for _, sys := range Systems() {
				m := numa.NewMachine(t, t.Sockets, t.CoresPerSocket)
				r := RunFrom(sys, alg, g, m, 0)
				out = append(out, Table3Cell{Algo: alg, Graph: d, System: sys, Seconds: r.SimSeconds})
			}
		}
	}
	return out, nil
}

// FormatTable3 renders the runtime table with the per-row winner marked
// by an asterisk, as the paper highlights the best time in red.
func FormatTable3(cells []Table3Cell) string {
	var b strings.Builder
	b.WriteString("Table 3: runtimes (simulated seconds); * marks the row winner\n")
	fmt.Fprintf(&b, "%-6s%-10s%12s%12s%12s%12s\n", "Algo", "Graph", "Polymer", "Ligra", "X-Stream", "Galois")
	byRow := make(map[string]map[System]float64)
	var order []string
	for _, c := range cells {
		key := string(c.Algo) + "\x00" + string(c.Graph)
		if byRow[key] == nil {
			byRow[key] = make(map[System]float64)
			order = append(order, key)
		}
		byRow[key][c.System] = c.Seconds
	}
	for _, key := range order {
		parts := strings.SplitN(key, "\x00", 2)
		row := byRow[key]
		best := Polymer
		for _, s := range Systems() {
			if row[s] < row[best] {
				best = s
			}
		}
		fmt.Fprintf(&b, "%-6s%-10s", parts[0], parts[1])
		for _, s := range Systems() {
			mark := " "
			if s == best {
				mark = "*"
			}
			fmt.Fprintf(&b, "%11.3f%s", row[s], mark)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Table4Row is one system's access statistics (paper Table 4).
type Table4Row struct {
	System         System
	RemoteRate     float64
	RemoteAccesses int64
	RemoteMissRate float64
}

// Table4 reproduces the remote-access comparison for one algorithm on the
// twitter graph with all sockets.
func Table4(t *numa.Topology, sc gen.Scale, alg Algo) ([]Table4Row, error) {
	g, err := LoadDataset(gen.Twitter, sc, alg)
	if err != nil {
		return nil, err
	}
	var out []Table4Row
	for _, sys := range Systems() {
		m := numa.NewMachine(t, t.Sockets, t.CoresPerSocket)
		r := RunFrom(sys, alg, g, m, 0)
		out = append(out, Table4Row{
			System:         sys,
			RemoteRate:     r.Stats.RemoteRate,
			RemoteAccesses: r.Stats.RemoteCount,
			RemoteMissRate: r.Stats.RemoteMissRate,
		})
	}
	return out, nil
}

// FormatTable4 renders the access-statistics table.
func FormatTable4(alg Algo, rows []Table4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4(%s): remote accesses on twitter\n", alg)
	fmt.Fprintf(&b, "%-18s", "")
	for _, r := range rows {
		fmt.Fprintf(&b, "%12s", r.System)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-18s", "Access Rate/R")
	for _, r := range rows {
		fmt.Fprintf(&b, "%11.1f%%", r.RemoteRate*100)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-18s", "Num. Accesses/R")
	for _, r := range rows {
		fmt.Fprintf(&b, "%11.1fM", float64(r.RemoteAccesses)/1e6)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-18s", "LLC Miss Rate/R")
	for _, r := range rows {
		fmt.Fprintf(&b, "%11.2f%%", r.RemoteMissRate*100)
	}
	b.WriteByte('\n')
	return b.String()
}

// Table5Row is one graph's peak memory per system (paper Table 5).
type Table5Row struct {
	Graph      gen.Dataset
	Peak       map[System]int64
	AgentBytes int64 // Polymer's replica overhead, shown in brackets
}

// Table5 reproduces the peak-memory comparison for PageRank on all eight
// nodes.
func Table5(t *numa.Topology, sc gen.Scale) ([]Table5Row, error) {
	var out []Table5Row
	for _, d := range gen.Datasets() {
		g, err := LoadDataset(d, sc, PR)
		if err != nil {
			return nil, err
		}
		row := Table5Row{Graph: d, Peak: make(map[System]int64)}
		for _, sys := range Systems() {
			m := numa.NewMachine(t, t.Sockets, t.CoresPerSocket)
			r := RunFrom(sys, PR, g, m, 0)
			row.Peak[sys] = r.PeakBytes
			if sys == Polymer {
				row.AgentBytes = r.AgentBytes
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// FormatTable5 renders the memory table in MB (the paper uses GB at full
// scale).
func FormatTable5(rows []Table5Row) string {
	var b strings.Builder
	b.WriteString("Table 5: peak memory (MB) for PageRank; Polymer's agent bytes in brackets\n")
	fmt.Fprintf(&b, "%-10s%20s%12s%12s%12s\n", "Graph", "Polymer(agent)", "Ligra", "X-Stream", "Galois")
	mb := func(v int64) float64 { return float64(v) / 1e6 }
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s%13.1f(%4.1f)%12.1f%12.1f%12.1f\n", r.Graph,
			mb(r.Peak[Polymer]), mb(r.AgentBytes), mb(r.Peak[Ligra]), mb(r.Peak[XStream]), mb(r.Peak[Galois]))
	}
	return b.String()
}

// AblationRow compares Polymer with and without one optimization for one
// algorithm (paper Figure 10(b), Tables 6(a) and 6(b)).
type AblationRow struct {
	Algo    Algo
	Without float64
	With    float64
}

// ablationStudy runs all six algorithms on the dataset twice, with the
// optimization off (tweak(false)) and on (tweak(true)).
func ablationStudy(t *numa.Topology, sc gen.Scale, d gen.Dataset, tweak func(on bool) core.Options) ([]AblationRow, error) {
	graphs := map[bool]*graphPair{}
	var out []AblationRow
	for _, alg := range Algos() {
		gp := graphs[alg.Weighted()]
		if gp == nil {
			g, err := gen.Load(d, sc, alg.Weighted())
			if err != nil {
				return nil, err
			}
			gp = &graphPair{g: g}
			graphs[alg.Weighted()] = gp
		}
		gr := gp.g
		if alg == CC {
			gr = gp.symmetrized()
		}
		row := AblationRow{Algo: alg}
		for _, on := range []bool{false, true} {
			m := numa.NewMachine(t, t.Sockets, t.CoresPerSocket)
			opt := tweak(on)
			if alg.iterated() {
				opt.Mode = core.Push
			}
			e := core.MustNew(gr, m, opt)
			driveSG(e, alg)
			if on {
				row.With = e.SimSeconds()
			} else {
				row.Without = e.SimSeconds()
			}
			e.Close()
		}
		out = append(out, row)
	}
	return out, nil
}

// graphPair caches a dataset and its symmetrized form across ablation
// arms.
type graphPair struct {
	g   *graph.Graph
	sym *graph.Graph
}

func (p *graphPair) symmetrized() *graph.Graph {
	if p.sym == nil {
		p.sym = p.g.Symmetrized()
	}
	return p.sym
}

// Figure10b reproduces the barrier ablation: every algorithm on roadUS
// with the flat P-Barrier ("w/o") versus the NUMA-aware N-Barrier ("w/").
func Figure10b(t *numa.Topology, sc gen.Scale) ([]AblationRow, error) {
	return ablationStudy(t, sc, gen.RoadUS, func(on bool) core.Options {
		opt := core.DefaultOptions()
		if !on {
			opt.Barrier = barrier.P
		}
		return opt
	})
}

// Table6a reproduces the adaptive-data-structure ablation on roadUS.
func Table6a(t *numa.Topology, sc gen.Scale) ([]AblationRow, error) {
	return ablationStudy(t, sc, gen.RoadUS, func(on bool) core.Options {
		opt := core.DefaultOptions()
		opt.Adaptive = on
		return opt
	})
}

// Table6b reproduces the balanced-partitioning ablation on twitter.
func Table6b(t *numa.Topology, sc gen.Scale) ([]AblationRow, error) {
	return ablationStudy(t, sc, gen.Twitter, func(on bool) core.Options {
		opt := core.DefaultOptions()
		opt.EdgeBalanced = on
		return opt
	})
}

// FormatAblation renders a w/o-vs-w/ table.
func FormatAblation(title string, rows []AblationRow) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-6s%14s%14s%10s\n", "Algo", "w/o (s)", "w/ (s)", "speedup")
	for _, r := range rows {
		sp := 0.0
		if r.With > 0 {
			sp = r.Without / r.With
		}
		fmt.Fprintf(&b, "%-6s%14.3f%14.3f%9.2fx\n", r.Algo, r.Without, r.With, sp)
	}
	return b.String()
}

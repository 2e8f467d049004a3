// The planner-vs-oracle sweep: run every candidate for real, compare the
// planner's pick against the exhaustive argmin, and report regret. This
// is both the calibration harness for the cost model's constants and the
// nightly regression gate (mean regret <= 10%).

package plan

import (
	"fmt"
	"sort"

	"polymer/internal/bench"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
)

// SweepRow is one measured candidate.
type SweepRow struct {
	Candidate Candidate `json:"candidate"`
	Predicted float64   `json:"predicted"` // corrected model prediction, seconds
	Sim       float64   `json:"sim"`       // measured simulated seconds
	Err       string    `json:"err,omitempty"`
}

// SweepCell is one (graph, algorithm) cell: the planner's pick, the
// oracle's, and the regret between them.
type SweepCell struct {
	Graph    string     `json:"graph"`
	Alg      bench.Algo `json:"alg"`
	Features Features   `json:"features"`
	Pick     Candidate  `json:"pick"`
	PickSim  float64    `json:"pick_sim"`
	Oracle   Candidate  `json:"oracle"`
	BestSim  float64    `json:"best_sim"`
	// Regret is (PickSim - BestSim) / BestSim, >= 0; 0 means the planner
	// matched the oracle exactly.
	Regret float64    `json:"regret"`
	Rows   []SweepRow `json:"rows,omitempty"`
}

// SweepResult aggregates a corpus sweep. MeanRegret averages the
// per-cell relative regrets (a diagnostic that weights a nanosecond
// corner-case graph as heavily as the largest dataset); CostRegret is
// the acceptance metric — the extra simulated cost the planner's picks
// incur over the oracle across the whole corpus, cost-weighted:
// (sum(PickSim) - sum(BestSim)) / sum(BestSim).
type SweepResult struct {
	Topology   string      `json:"topology"`
	Nodes      int         `json:"nodes"`
	Cores      int         `json:"cores"`
	Cells      []SweepCell `json:"cells"`
	MeanRegret float64     `json:"mean_regret"`
	MaxRegret  float64     `json:"max_regret"`
	CostRegret float64     `json:"cost_regret"`
}

// SweepGraph measures one (graph, algorithm) cell: resolve the planner's
// pick, then run every candidate on its own fresh machine and find the
// true argmin. When learn is true the pick's observation is fed back to
// the learner (so a sweep doubles as a training pass).
func SweepGraph(p *Planner, name string, g *graph.Graph, alg bench.Algo, nodes int, learn, keepRows bool) (SweepCell, error) {
	f := Profile(g)
	d := p.Resolve(Query{Features: f, Alg: alg, Nodes: nodes})
	cell := SweepCell{Graph: name, Alg: alg, Features: f, Pick: d.Pick}
	bestSim := -1.0
	pickSim := -1.0
	for _, s := range d.Table {
		c := s.Candidate
		m, err := numa.NewMachineChecked(p.topo, c.Nodes, p.cores)
		if err != nil {
			return cell, err
		}
		r, err := bench.RunWith(c.Engine, alg, g, m, bench.Options{Layout: c.Placement, LayoutSet: true})
		row := SweepRow{Candidate: c, Predicted: s.Cost}
		if err != nil {
			row.Err = err.Error()
			cell.Rows = append(cell.Rows, row)
			continue
		}
		row.Sim = r.SimSeconds
		cell.Rows = append(cell.Rows, row)
		if bestSim < 0 || r.SimSeconds < bestSim {
			bestSim, cell.Oracle = r.SimSeconds, c
		}
		if c == d.Pick {
			pickSim = r.SimSeconds
		}
	}
	if bestSim < 0 || pickSim < 0 {
		return cell, fmt.Errorf("plan: sweep of %s/%s measured no candidates", name, alg)
	}
	cell.PickSim, cell.BestSim = pickSim, bestSim
	if bestSim > 0 {
		cell.Regret = (pickSim - bestSim) / bestSim
	}
	if cell.Regret < 0 {
		cell.Regret = 0
	}
	if learn {
		p.Observe(d, pickSim)
	}
	if !keepRows {
		cell.Rows = nil
	}
	return cell, nil
}

// CorpusEntry is one sweep input.
type CorpusEntry struct {
	Name string
	N    int
	E    []graph.Edge
}

// Corpus returns the sweep inputs: the adversarial corner-case corpus
// plus the five paper datasets at Tiny scale (as edge lists, so weighted
// variants can be derived per algorithm without mutating shared state).
func Corpus() []CorpusEntry {
	var out []CorpusEntry
	for _, a := range gen.Adversarial() {
		out = append(out, CorpusEntry{Name: "adv/" + a.Name, N: a.N, E: a.Edges})
	}
	for _, ds := range gen.Datasets() {
		g, err := gen.Load(ds, gen.Tiny, false)
		if err != nil {
			continue
		}
		out = append(out, CorpusEntry{Name: "data/" + string(ds), N: g.NumVertices(), E: edgeList(g)})
	}
	return out
}

// edgeList flattens a CSR back into an edge list (the corpus carries
// edge lists so per-algorithm weighted variants can be built).
func edgeList(g *graph.Graph) []graph.Edge {
	out := make([]graph.Edge, 0, g.NumEdges())
	for v := graph.Vertex(0); int(v) < g.NumVertices(); v++ {
		for _, u := range g.OutNeighbors(v) {
			out = append(out, graph.Edge{Src: v, Dst: u})
		}
	}
	return out
}

// BuildGraph materializes a corpus entry for one algorithm, adding
// deterministic weights when the algorithm needs them. The entry's edge
// slice is never mutated.
func BuildGraph(e CorpusEntry, alg bench.Algo) *graph.Graph {
	edges := e.E
	if alg.Weighted() {
		edges = append([]graph.Edge(nil), e.E...)
		gen.AddRandomWeights(edges, 1)
	}
	return graph.FromEdges(e.N, edges, alg.Weighted())
}

// Sweep runs the full corpus x algorithm matrix and aggregates regret.
// Cells whose graphs are too degenerate to measure (no candidate
// completed) are skipped rather than failing the sweep.
func Sweep(p *Planner, entries []CorpusEntry, algs []bench.Algo, nodes int, learn, keepRows bool) SweepResult {
	res := SweepResult{Topology: p.topo.Name, Nodes: nodes, Cores: p.cores}
	var sum, pickSum, bestSum float64
	for _, e := range entries {
		for _, alg := range algs {
			g := BuildGraph(e, alg)
			cell, err := SweepGraph(p, e.Name, g, alg, nodes, learn, keepRows)
			if err != nil {
				continue
			}
			res.Cells = append(res.Cells, cell)
			sum += cell.Regret
			pickSum += cell.PickSim
			bestSum += cell.BestSim
			if cell.Regret > res.MaxRegret {
				res.MaxRegret = cell.Regret
			}
		}
	}
	if len(res.Cells) > 0 {
		res.MeanRegret = sum / float64(len(res.Cells))
	}
	if bestSum > 0 {
		res.CostRegret = (pickSum - bestSum) / bestSum
	}
	sort.Slice(res.Cells, func(i, j int) bool {
		if res.Cells[i].Regret != res.Cells[j].Regret {
			return res.Cells[i].Regret > res.Cells[j].Regret
		}
		if res.Cells[i].Graph != res.Cells[j].Graph {
			return res.Cells[i].Graph < res.Cells[j].Graph
		}
		return res.Cells[i].Alg < res.Cells[j].Alg
	})
	return res
}

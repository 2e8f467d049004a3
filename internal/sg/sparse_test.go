package sg_test

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"polymer/internal/algorithms"
	"polymer/internal/core"
	"polymer/internal/engines/ligra"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
	"polymer/internal/sg"
	"polymer/internal/state"
)

// perEdge hides a kernel's segment and row forms: embedding the interface
// promotes only Cond and Update.
type perEdge struct{ sg.EdgeKernel }

// countingEngine records the per-part counts (sg.PartCounts) of every edge
// phase the sweep engine under it runs. With rowCalls nil it hands every
// kernel over without its segment and row forms; else it counts the calls
// of every sparse row form there.
type countingEngine struct {
	sg.Engine
	rowCalls *int
	phases   *[][]sg.Counts
}

// sparseRows passes a kernel's sparse row form through, counting its calls.
type sparseRows struct {
	sg.EdgeKernel
	sk    sg.SparseRowKernel
	calls *int
}

func (k sparseRows) PushRow(s graph.Vertex, cols []graph.Vertex, wts []float32, out []graph.Vertex) (int64, []graph.Vertex) {
	*k.calls++
	return k.sk.PushRow(s, cols, wts, out)
}

func (e countingEngine) EdgeMap(a *state.Subset, k sg.EdgeKernel, h sg.Hints) *state.Subset {
	if sk, ok := k.(sg.SparseRowKernel); ok && e.rowCalls != nil {
		k = sparseRows{k, sk, e.rowCalls}
	} else if e.rowCalls == nil {
		k = perEdge{k}
	}
	out := e.Engine.EdgeMap(a, k, h)
	counts := slices.Clone(sg.PartCounts(e.Engine))
	for p := range counts {
		counts[p].RowsByOwner = slices.Clone(counts[p].RowsByOwner)
		counts[p].ActiveByOwner = slices.Clone(counts[p].ActiveByOwner)
	}
	*e.phases = append(*e.phases, counts)
	return out
}

// sendersGraph is a weighted graph whose first half only sends: each of
// its vertices has four out-edges into the second half, a bidirectional
// ring. Split by vertex over eight nodes, the senders fill the first four
// nodes, whose push parts key no row: no vertex of theirs has an in-edge.
func sendersGraph() *graph.Graph {
	const half = 64
	var edges []graph.Edge
	for v := 0; v < half; v++ {
		for j := 1; j <= 4; j++ {
			edges = append(edges, graph.Edge{Src: graph.Vertex(v), Dst: graph.Vertex(half + v*j*7%half), Wt: float32(j)})
		}
	}
	for i := 0; i < half; i++ {
		u, w := graph.Vertex(half+i), graph.Vertex(half+(i+1)%half)
		edges = append(edges, graph.Edge{Src: u, Dst: w, Wt: 1}, graph.Edge{Src: w, Dst: u, Wt: 1})
	}
	return graph.FromEdges(2*half, edges, true)
}

// TestSparsePartCounts holds the sweep's counts to be blind to a kernel's
// form: BFS and SSSP through their sparse push row form
// (sg.SparseRowKernel) and through the per-edge loop leave the same counts,
// part by part, after every edge phase, on Polymer (P = 8) and Ligra
// (P = 1). On sendersGraph half of Polymer's push parts hold no rows.
func TestSparsePartCounts(t *testing.T) {
	n, edges := gen.RoadGrid(16, 16, 3)
	graphs := map[string]*graph.Graph{"road": graph.FromEdges(n, edges, true), "senders": sendersGraph()}
	// A threshold of 1 keeps a phase sparse until its frontier's degree sum
	// passes the edge count.
	popt, lopt := core.DefaultOptions(), ligra.DefaultOptions()
	popt.Threshold, lopt.Threshold = 1, 1
	engines := map[string]func(*graph.Graph, *numa.Machine) sg.Engine{
		"polymer": func(g *graph.Graph, m *numa.Machine) sg.Engine { return core.MustNew(g, m, popt) },
		"ligra":   func(g *graph.Graph, m *numa.Machine) sg.Engine { return ligra.MustNew(g, m, lopt) },
	}
	const src = 1
	algos := map[string]func(sg.Engine) error{
		"bfs": func(e sg.Engine) error {
			_, err := algorithms.BFSE(e, src, nil)
			return err
		},
		"sssp": func(e sg.Engine) error {
			_, err := algorithms.SSSP(e, src, nil)
			return err
		},
	}
	// run drives algo through the row forms, counting their calls in
	// rowCalls, or, with rowCalls nil, through the per-edge loop.
	run := func(t *testing.T, build func(*graph.Graph, *numa.Machine) sg.Engine, g *graph.Graph, rowCalls *int, algo func(sg.Engine) error) [][]sg.Counts {
		t.Helper()
		e := build(g, numa.NewMachine(numa.IntelXeon80(), 8, 2))
		defer e.Close()
		var phases [][]sg.Counts
		if err := algo(countingEngine{e, rowCalls, &phases}); err != nil {
			t.Fatal(err)
		}
		return phases
	}

	for _, ename := range slices.Sorted(maps.Keys(engines)) {
		for _, aname := range slices.Sorted(maps.Keys(algos)) {
			for _, gname := range slices.Sorted(maps.Keys(graphs)) {
				t.Run(ename+"/"+aname+"/"+gname, func(t *testing.T) {
					build, g, algo := engines[ename], graphs[gname], algos[aname]
					rowCalls := 0
					row, edge := run(t, build, g, &rowCalls, algo), run(t, build, g, nil, algo)
					if !reflect.DeepEqual(row, edge) {
						t.Errorf("per-part counts: row form %+v, per-edge %+v", row, edge)
					}
					if rowCalls == 0 {
						t.Error("no PushRow call: no sparse phase ran")
					}
				})
			}
		}
	}

	// sendersGraph keeps its promise: on Polymer's push layout some node's
	// vertices have no in-edge, so its part keys no row.
	g := graphs["senders"]
	p := core.MustNew(g, numa.NewMachine(numa.IntelXeon80(), 8, 2), popt)
	defer p.Close()
	empty := 0
	for _, r := range p.Parts() {
		var in int64
		for v := r.Lo; v < r.Hi; v++ {
			in += g.InDegree(graph.Vertex(v))
		}
		if in == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Errorf("no empty push part among %v", p.Parts())
	}
}

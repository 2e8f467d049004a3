package conform

import (
	"fmt"
	"testing"

	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/mutate"
)

// TestWarmDifferential holds warm runs to cold ones bit for bit on random
// graphs under random batch streams: BFS and SSSP on Polymer and Ligra,
// on both topologies, from every earlier snapshot's answer to every later
// snapshot (CheckWarm).
func TestWarmDifferential(t *testing.T) {
	n, edges := gen.Uniform(120, 480, 5)
	gen.AddRandomWeights(edges, 6)
	graphs := append(corpusGraphs(), namedGraph{"uniform-120-w", graph.FromEdges(n, edges, true)})
	st, err := mutate.Open(t.TempDir(), mutate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for gi, ng := range graphs {
		for _, src := range []graph.Vertex{0, 3} {
			batches := WarmStream(ng.g, src, uint64(gi+1)*31+uint64(src), 4, 12)
			for _, topo := range Topos() {
				for _, eng := range []Engine{Polymer, Ligra} {
					for _, alg := range []Algo{BFS, SSSP} {
						c := Case{Engine: eng, Algo: alg, Topo: topo, Src: src}
						name := fmt.Sprintf("%s-%d-%s-%s-%s", ng.name, src, eng, alg, topo)
						t.Run(name, func(t *testing.T) {
							if err := CheckWarm(st, name, c, ng.g, batches); err != nil {
								t.Fatal(err)
							}
						})
					}
				}
			}
		}
	}
}

// TestWarmVanishingWeights pins the affected set's strict order: 1 and 2
// sit at one distance on a 2-cycle of weights too small to change a sum,
// and deleting 0 -> 1 cuts both off. Neither may keep the other: a
// support counts only from a strictly smaller distance.
func TestWarmVanishingWeights(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1, Wt: 5}, {Src: 1, Dst: 2, Wt: 1e-30}, {Src: 2, Dst: 1, Wt: 1e-30}, {Src: 0, Dst: 3, Wt: 1}}, true)
	st, err := mutate.Open(t.TempDir(), mutate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	batches := [][]mutate.Op{{{Kind: mutate.OpDelete, Src: 0, Dst: 1}}, {{Kind: mutate.OpInsert, Src: 3, Dst: 2, Wt: 2}}}
	for _, eng := range []Engine{Polymer, Ligra} {
		if err := CheckWarm(st, "cycle-"+string(eng), Case{Engine: eng, Algo: SSSP, Topo: Intel80}, g, batches); err != nil {
			t.Fatal(err)
		}
	}
}

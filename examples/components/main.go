// Components: community structure of a sparse power-law graph via
// connected components, contrasting the scatter-gather label propagation
// (Polymer) with Galois's union-find — two algorithmically different
// routes to the same answer (paper Section 6.1).
package main

import (
	"fmt"
	"sort"

	"polymer/internal/algorithms"
	"polymer/internal/core"
	"polymer/internal/engines/galois"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
)

func main() {
	// A sparse power-law graph: low average degree leaves many small
	// fragments alongside one giant component.
	n, edges := gen.Powerlaw(30_000, 1.2, 2.0, 99)
	g := graph.FromEdges(n, edges, false)
	fmt.Println("graph:", g)

	topo := numa.IntelXeon80()

	// Polymer label propagation runs on the symmetrized view.
	m1 := numa.NewMachine(topo, 8, 10)
	e := core.MustNew(g.Symmetrized(), m1, core.DefaultOptions())
	labels, err := algorithms.CC(e, nil)
	if err != nil {
		panic(err)
	}
	lpTime := e.SimSeconds()
	e.Close()

	// Galois union-find works on the directed graph directly.
	m2 := numa.NewMachine(topo, 8, 10)
	ge := galois.MustNew(g, m2, galois.DefaultOptions())
	ufLabels := ge.CC()
	ufTime := ge.SimSeconds()
	ge.Close()

	for v := range labels {
		if labels[v] != ufLabels[v] {
			panic(fmt.Sprintf("engines disagree at vertex %d", v))
		}
	}

	sizes := map[graph.Vertex]int{}
	for _, l := range labels {
		sizes[l]++
	}
	bySize := make([]int, 0, len(sizes))
	for _, s := range sizes {
		bySize = append(bySize, s)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(bySize)))

	fmt.Printf("\ncomponents          : %d\n", len(sizes))
	fmt.Printf("largest component   : %d vertices (%.1f%%)\n", bySize[0], 100*float64(bySize[0])/float64(n))
	show := 5
	if len(bySize) < show {
		show = len(bySize)
	}
	fmt.Printf("top component sizes : %v\n", bySize[:show])
	fmt.Printf("\nlabel propagation   : %.4f s simulated (Polymer)\n", lpTime)
	fmt.Printf("union-find          : %.4f s simulated (Galois)\n", ufTime)
	fmt.Println("\nBoth engines produce identical min-id labels; their relative cost")
	fmt.Println("flips with graph diameter (paper Table 3, CC rows).")
}

// Roadtrip: traversal algorithms on a high-diameter road network — the
// workload that separates the systems most dramatically in the paper's
// Table 3 (X-Stream needs 557s for BFS on roadUS; Polymer 1.16s; Galois's
// delta-stepping SSSP wins outright).
package main

import (
	"fmt"
	"math"

	"polymer/internal/algorithms"
	"polymer/internal/core"
	"polymer/internal/engines/galois"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
)

func main() {
	// A 150x150 road grid with random travel times in (0, 100].
	n, edges := gen.RoadGrid(150, 150, 7)
	g := graph.FromEdges(n, edges, true)
	fmt.Println("road network:", g)

	topo := numa.IntelXeon80()
	src := graph.Vertex(0) // top-left corner

	// Polymer: frontier-driven Bellman-Ford with adaptive state — the
	// per-iteration cost stays proportional to the frontier.
	m1 := numa.NewMachine(topo, 8, 10)
	e := core.MustNew(g, m1, core.DefaultOptions())
	dist, err := algorithms.SSSP(e, src, nil)
	if err != nil {
		panic(err)
	}
	bfsLevels := algorithms.BFS(e, src)
	polymerTime := e.SimSeconds()
	met := e.Metrics()
	e.Close()

	// Galois: asynchronous delta-stepping, the paper's winner on road
	// networks.
	m2 := numa.NewMachine(topo, 8, 10)
	ge := galois.MustNew(g, m2, galois.DefaultOptions())
	gDist := ge.SSSP(src)
	galoisTime := ge.SimSeconds()
	ge.Close()

	// Both must agree on every shortest distance.
	var worst float64
	for v := range dist {
		if d := math.Abs(dist[v] - gDist[v]); d > worst {
			worst = d
		}
	}

	far := graph.Vertex(n - 1) // bottom-right corner
	fmt.Printf("\nshortest travel time corner-to-corner: %.1f (over %d hops minimum)\n",
		dist[far], bfsLevels[far])
	fmt.Printf("max disagreement Polymer vs Galois   : %g\n", worst)
	fmt.Printf("\nPolymer (SSSP+BFS): %.4f s simulated, %d sparse / %d dense phases\n",
		polymerTime, met.SparsePhases, met.DensePhases)
	fmt.Printf("Galois  (SSSP)    : %.4f s simulated (delta-stepping)\n", galoisTime)
	fmt.Println("\nHigh-diameter graphs need hundreds of frontier iterations; the")
	fmt.Println("adaptive sparse representation keeps each cheap (paper Table 6a).")
}

// Socialrank: the paper's headline workload — PageRank over a
// twitter-like follower graph — run on all four systems across an
// increasing number of sockets, showing why NUMA-awareness matters for
// social-network analytics.
package main

import (
	"fmt"

	"polymer/internal/bench"
	"polymer/internal/gen"
	"polymer/internal/numa"
)

func main() {
	topo := numa.IntelXeon80()
	g, err := bench.LoadDataset(gen.Twitter, gen.Small, bench.PR)
	if err != nil {
		panic(err)
	}
	fmt.Println("follower graph:", g)
	fmt.Println()
	fmt.Printf("%-10s", "sockets")
	for _, sys := range bench.Systems() {
		fmt.Printf("%14s", sys)
	}
	fmt.Println()

	base := map[bench.System]float64{}
	for _, sockets := range []int{1, 2, 4, 8} {
		fmt.Printf("%-10d", sockets)
		for _, sys := range bench.Systems() {
			m := numa.NewMachine(topo, sockets, topo.CoresPerSocket)
			r := bench.RunFrom(sys, bench.PR, g, m, 0)
			if sockets == 1 {
				base[sys] = r.SimSeconds
			}
			fmt.Printf("%8.2fms%4.1fx", r.SimSeconds*1e3, base[sys]/r.SimSeconds)
		}
		fmt.Println()
	}

	fmt.Println("\nEach cell shows simulated runtime and speedup over one socket.")
	fmt.Println("Polymer's co-located layout and sequential remote accesses keep")
	fmt.Println("scaling with sockets; the NUMA-oblivious systems saturate the")
	fmt.Println("interconnect (paper Figures 5 and 7).")
}

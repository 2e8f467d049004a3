package bench

import (
	"fmt"

	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
)

// DumpCells visits the 24 system x algorithm cells of the evaluation
// matrix on twitter at sc, in dump order, with each cell's graph and a
// factory for its machine (the full Intel box).
func DumpCells(sc gen.Scale, visit func(sys System, alg Algo, g *graph.Graph, mk func() *numa.Machine) error) error {
	topo := numa.IntelXeon80()
	mk := func() *numa.Machine { return numa.NewMachine(topo, topo.Sockets, topo.CoresPerSocket) }
	for _, alg := range Algos() {
		g, err := LoadDataset(gen.Twitter, sc, alg)
		if err != nil {
			return err
		}
		for _, sys := range Systems() {
			if err := visit(sys, alg, g, mk); err != nil {
				return err
			}
		}
	}
	return nil
}

// DumpLine renders one cell of the dump; %x prints the exact float64
// bits, so any drift of the simulated clock shows up.
func DumpLine(r RunResult) string {
	return fmt.Sprintf("%-8s %-4s sim=%x checksum=%x local=%d remote=%d miss=%x remoteMiss=%x peak=%d\n",
		r.System, r.Algo, r.SimSeconds, r.Checksum,
		r.Stats.LocalCount, r.Stats.RemoteCount,
		r.Stats.MissCount, r.Stats.RemoteMissRate, r.PeakBytes)
}

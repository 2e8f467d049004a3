// Command simdump prints the bit-exact simulated outputs of every
// system x algorithm cell of the evaluation matrix. Its output must be
// byte-identical before and after any host-side performance change: the
// simulated clock is the paper reproduction, so optimizations may only
// change host wall-clock time. Diff two runs (or two builds) to verify.
//
//	go run ./cmd/simdump            # Tiny scale (fast)
//	go run ./cmd/simdump -scale small
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"polymer/internal/bench"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
)

func main() {
	scale := flag.String("scale", "tiny", "dataset scale: tiny or small")
	flag.Parse()

	sc := gen.Tiny
	switch *scale {
	case "tiny":
	case "small":
		sc = gen.Small
	default:
		log.Fatalf("unknown scale %q", *scale)
	}
	err := cells(sc, func(sys bench.System, alg bench.Algo, g *graph.Graph, mk func() *numa.Machine) error {
		_, err := io.WriteString(os.Stdout, line(bench.RunFrom(sys, alg, g, mk(), 0)))
		return err
	})
	if err != nil {
		log.Fatal(err)
	}
}

// cells visits the evaluation matrix in dump order with each cell's graph
// and a factory for its machine.
func cells(sc gen.Scale, visit func(sys bench.System, alg bench.Algo, g *graph.Graph, mk func() *numa.Machine) error) error {
	topo := numa.IntelXeon80()
	mk := func() *numa.Machine { return numa.NewMachine(topo, topo.Sockets, topo.CoresPerSocket) }
	for _, alg := range bench.Algos() {
		g, err := bench.LoadDataset(gen.Twitter, sc, alg)
		if err != nil {
			return err
		}
		for _, sys := range bench.Systems() {
			if err := visit(sys, alg, g, mk); err != nil {
				return err
			}
		}
	}
	return nil
}

// line renders one cell; %x prints the exact float64 bits, so any drift
// shows up.
func line(r bench.RunResult) string {
	return fmt.Sprintf("%-8s %-4s sim=%x checksum=%x local=%d remote=%d miss=%x remoteMiss=%x peak=%d\n",
		r.System, r.Algo, r.SimSeconds, r.Checksum,
		r.Stats.LocalCount, r.Stats.RemoteCount,
		r.Stats.MissCount, r.Stats.RemoteMissRate, r.PeakBytes)
}

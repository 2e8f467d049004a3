// Command graphgen generates the synthetic datasets of the paper's
// Table 2 (or custom graphs) and writes them as edge-list or binary files
// for use with cmd/polymer -file.
//
// Usage:
//
//	graphgen -dataset twitter -scale small -o twitter.txt
//	graphgen -kind rmat -rmatscale 16 -edgefactor 16 -o rmat.bin -format bin
//	graphgen -kind road -rows 300 -cols 300 -o road.txt
package main

import (
	"flag"
	"fmt"
	"os"

	"polymer/internal/gen"
	"polymer/internal/graph"
)

func main() {
	dataset := flag.String("dataset", "", "emit a named Table 2 dataset: twitter, rmat24, rmat27, powerlaw or roadUS")
	kind := flag.String("kind", "", "custom generator: twitter, powerlaw, rmat, road or uniform")
	scaleFlag := flag.String("scale", "small", "named dataset scale: tiny, small, default or huge")
	n := flag.Int("n", 10000, "vertex count (twitter, powerlaw, uniform)")
	m := flag.Int("m", 100000, "edge count (uniform)")
	avgDeg := flag.Float64("avgdeg", 10, "average degree (powerlaw)")
	alpha := flag.Float64("alpha", 2.0, "power-law constant (powerlaw)")
	rmatScale := flag.Int("rmatscale", 14, "log2 vertex count (rmat)")
	edgeFactor := flag.Int("edgefactor", 16, "edges per vertex (rmat)")
	rows := flag.Int("rows", 100, "grid rows (road)")
	cols := flag.Int("cols", 100, "grid cols (road)")
	seed := flag.Uint64("seed", 1, "generator seed")
	weighted := flag.Bool("weighted", false, "attach uniform random weights in (0,100]")
	format := flag.String("format", "text", "output format: text, bin or dimacs")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	var (
		nv    int
		edges []graph.Edge
	)
	if *dataset != "" {
		sc, err := gen.ParseScale(*scaleFlag)
		if err != nil {
			fail("%v", err)
		}
		g, err := gen.Load(gen.Dataset(*dataset), sc, *weighted)
		if err != nil {
			fail("%v", err)
		}
		writeGraph(g, *format, *out)
		return
	}
	switch *kind {
	case "twitter":
		nv, edges = gen.TwitterLike(*n, *seed)
	case "powerlaw":
		nv, edges = gen.Powerlaw(*n, *avgDeg, *alpha, *seed)
	case "rmat":
		nv, edges = gen.RMAT(*rmatScale, *edgeFactor, *seed)
	case "road":
		nv, edges = gen.RoadGrid(*rows, *cols, *seed)
		*weighted = true
	case "uniform":
		nv, edges = gen.Uniform(*n, *m, *seed)
	case "":
		fail("one of -dataset or -kind is required")
	default:
		fail("unknown kind %q", *kind)
	}
	if *weighted && *kind != "road" {
		gen.AddRandomWeights(edges, *seed)
	}
	write(nv, edges, *weighted, *format, *out)
}

func writeGraph(g *graph.Graph, format, out string) {
	edges := make([]graph.Edge, 0, g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		nbrs := g.OutNeighbors(graph.Vertex(v))
		wts := g.OutWeights(graph.Vertex(v))
		for j, u := range nbrs {
			e := graph.Edge{Src: graph.Vertex(v), Dst: u}
			if wts != nil {
				e.Wt = wts[j]
			}
			edges = append(edges, e)
		}
	}
	write(g.NumVertices(), edges, g.Weighted(), format, out)
}

func write(n int, edges []graph.Edge, weighted bool, format, out string) {
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		w = f
	}
	var err error
	switch format {
	case "text":
		err = graph.WriteEdgeList(w, n, edges, weighted)
	case "bin":
		err = graph.WriteBinary(w, n, edges, weighted)
	case "dimacs":
		err = graph.WriteDIMACS(w, n, edges)
	default:
		fail("unknown format %q", format)
	}
	if err != nil {
		fail("%v", err)
	}
	fmt.Fprintf(os.Stderr, "graphgen: wrote %d vertices, %d edges (weighted=%t)\n", n, len(edges), weighted)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "graphgen: "+format+"\n", args...)
	os.Exit(1)
}

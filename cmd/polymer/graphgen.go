package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"polymer/internal/gen"
	"polymer/internal/graph"
)

// graphgen writes the synthetic datasets of the paper's Table 2 (or
// custom graphs) as edge-list, DIMACS or binary files for polymer -file:
//
//	polymer graphgen -dataset twitter -scale small -o twitter.txt
//	polymer graphgen -kind rmat -rmatscale 16 -edgefactor 16 -o rmat.bin -format bin
//	polymer graphgen -kind road -rows 300 -cols 300 -o road.txt
func graphgen(args []string) {
	fs := flag.NewFlagSet("graphgen", flag.ExitOnError)
	dataset := fs.String("dataset", "", "emit a named Table 2 dataset: twitter, rmat24, rmat27, powerlaw or roadUS")
	kind := fs.String("kind", "", "custom generator: twitter, powerlaw, rmat, road or uniform")
	scaleFlag := fs.String("scale", "small", "named dataset scale: tiny, small or default")
	n := fs.Int("n", 10000, "vertex count (twitter, powerlaw, uniform)")
	m := fs.Int("m", 100000, "edge count (uniform)")
	avgDeg := fs.Float64("avgdeg", 10, "average degree (powerlaw)")
	alpha := fs.Float64("alpha", 2.0, "power-law constant (powerlaw)")
	rmatScale := fs.Int("rmatscale", 14, "log2 vertex count (rmat)")
	edgeFactor := fs.Int("edgefactor", 16, "edges per vertex (rmat)")
	rows := fs.Int("rows", 100, "grid rows (road)")
	cols := fs.Int("cols", 100, "grid cols (road)")
	seed := fs.Uint64("seed", 1, "generator seed")
	weighted := fs.Bool("weighted", false, "attach uniform random weights in (0,100]")
	format := fs.String("format", "text", "output format: text, bin or dimacs")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)

	var (
		nv    int
		edges []graph.Edge
	)
	if *dataset != "" {
		g, err := gen.Load(gen.Dataset(*dataset), parseScale(*scaleFlag), *weighted)
		check(err)
		nv, edges, *weighted = g.NumVertices(), g.Edges(), g.Weighted()
	} else {
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
	}
	check(writeEdges(nv, edges, *weighted, *format, *out))
	fmt.Fprintf(os.Stderr, "polymer graphgen: wrote %d vertices, %d edges (weighted=%t)\n", nv, len(edges), *weighted)
}

// writeEdges writes an edge list in format (text, bin or dimacs) to out,
// or to stdout when out is empty. An unknown format fails before out is
// created.
func writeEdges(n int, edges []graph.Edge, weighted bool, format, out string) error {
	write, ok := map[string]func(io.Writer, int, []graph.Edge, bool) error{
		"text": graph.WriteEdgeList,
		"bin":  graph.WriteBinary,
		"dimacs": func(w io.Writer, n int, edges []graph.Edge, _ bool) error {
			return graph.WriteDIMACS(w, n, edges)
		},
	}[format]
	if !ok {
		return fmt.Errorf("unknown format %q (want text, bin or dimacs)", format)
	}
	if out == "" {
		return write(os.Stdout, n, edges, weighted)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := write(f, n, edges, weighted); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

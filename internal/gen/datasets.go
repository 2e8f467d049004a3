package gen

import (
	"fmt"
	"strings"

	"polymer/internal/graph"
)

// Scale selects the size of the named datasets. The ratios between
// datasets follow the paper's Table 2.
type Scale int

const (
	// Tiny is for unit tests (thousands of edges).
	Tiny Scale = iota
	// Small is for quick experiments (hundreds of thousands of edges).
	Small
	// Default is the laptop-scale evaluation size (millions of edges).
	Default
)

// ParseScale maps a scale's name (tiny, small or default) to the
// Scale; matching is case-insensitive.
func ParseScale(name string) (Scale, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "tiny":
		return Tiny, nil
	case "small":
		return Small, nil
	case "default":
		return Default, nil
	}
	return Tiny, fmt.Errorf("gen: unknown scale %q (want tiny, small or default)", name)
}

// Dataset names one of the paper's five inputs.
type Dataset string

// The five evaluation inputs from the paper's Table 2.
const (
	Twitter  Dataset = "twitter"
	RMat24   Dataset = "rmat24"
	RMat27   Dataset = "rmat27"
	PowerLaw Dataset = "powerlaw"
	RoadUS   Dataset = "roadUS"
)

// Datasets lists all five inputs in the paper's Table 2/3 order.
func Datasets() []Dataset {
	return []Dataset{Twitter, RMat24, RMat27, PowerLaw, RoadUS}
}

// Per-dataset size tables, shared by Load and NumVertices so the two can
// never disagree on a dataset's vertex count.
var (
	twitterSizes = map[Scale]int{Tiny: 600, Small: 20_000, Default: 120_000}
	rmat24Scales = map[Scale]int{Tiny: 9, Small: 13, Default: 16}
	rmat27Scales = map[Scale]int{Tiny: 10, Small: 14, Default: 18}
	powerSizes   = map[Scale]int{Tiny: 500, Small: 16_000, Default: 100_000}
	roadSides    = map[Scale]int{Tiny: 24, Small: 120, Default: 300}
)

// NumVertices reports the vertex count of (name, sc) without generating
// any edges: mutation validation bounds-checks incoming edge endpoints
// against it before paying for a graph build.
func NumVertices(name Dataset, sc Scale) (int, error) {
	switch name {
	case Twitter:
		return twitterSizes[sc], nil
	case RMat24:
		return 1 << rmat24Scales[sc], nil
	case RMat27:
		return 1 << rmat27Scales[sc], nil
	case PowerLaw:
		return powerSizes[sc], nil
	case RoadUS:
		return roadSides[sc] * roadSides[sc], nil
	}
	return 0, fmt.Errorf("gen: unknown dataset %q", name)
}

// AlwaysWeighted reports whether Load weights the dataset even when asked
// not to: roadUS, as in the paper.
func AlwaysWeighted(name Dataset) bool { return name == RoadUS }

// Load generates the named dataset at the given scale, optionally
// weighting it (SpMV/SSSP inputs); see AlwaysWeighted. The same (name,
// scale) pair always yields the same graph, and the same topology arrays
// whether weighted or not.
func Load(name Dataset, sc Scale, weighted bool) (*graph.Graph, error) {
	var (
		n     int
		edges []graph.Edge
	)
	switch name {
	case Twitter:
		n, edges = TwitterLike(twitterSizes[sc], 0x7717)
	case RMat24:
		n, edges = RMAT(rmat24Scales[sc], 16, 0x24)
	case RMat27:
		n, edges = RMAT(rmat27Scales[sc], 16, 0x27)
	case PowerLaw:
		n, edges = Powerlaw(powerSizes[sc], 10.5, 2.0, 0x20)
	case RoadUS:
		side := roadSides[sc]
		n, edges = RoadGrid(side, side, 0x0AD)
	default:
		return nil, fmt.Errorf("gen: unknown dataset %q", name)
	}
	if weighted && !AlwaysWeighted(name) {
		AddRandomWeights(edges, uint64(len(edges)))
	}
	return graph.FromEdges(n, edges, weighted || AlwaysWeighted(name)), nil
}

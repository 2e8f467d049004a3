// Storage-blind conformance: a snapshot Patch made keeps its rows in
// chunks, most of them shared with its predecessor, while a graph
// FromEdges built views one flat array per direction. No engine, driver or
// profile may tell the two apart.

package conform

import (
	"fmt"
	"math"

	"polymer/internal/bench"
	"polymer/internal/graph"
	"polymer/internal/mutate"
	"polymer/internal/plan"
)

// CheckStorageBlind commits batches to st under the dataset name (scale 0,
// a fresh name per call) and materializes the snapshot over base after
// every commit — the first folded, the rest patched — and then, newest
// first, holds each to its twin, graph.FromEdges of its edge list. The two
// must be equal row for row and have equal plan profiles, and every engine
// must run PR, BFS (on the unweighted view) and SSSP from src on both, on
// a 4x2 Intel machine, with the same output bits, SimSeconds bits and
// Stats. Newest first, no snapshot inherits what a run derived on its
// predecessor (graph.Derived's lineage path), which may differ from a
// fresh build by design (partition.Sticky): what is compared is the
// storage alone. It returns the first difference, or the error that
// stopped the check.
func CheckStorageBlind(st *mutate.Store, name string, base *graph.Graph, batches [][]mutate.Op, src graph.Vertex) error {
	snaps := make([]*graph.Graph, len(batches))
	for i, b := range batches {
		if _, err := st.Commit(name, 0, base.NumVertices(), b); err != nil {
			return err
		}
		var err error
		if snaps[i], err = st.GraphAt(name, 0, uint64(i+1), base); err != nil {
			return err
		}
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		seq, snap := i+1, snaps[i]
		edges, err := st.EdgesAt(name, 0, uint64(seq), mutate.Flatten(base))
		if err != nil {
			return err
		}
		twin := graph.FromEdges(base.NumVertices(), edges, base.Weighted())
		if !graph.Equal(snap, twin) {
			return fmt.Errorf("snapshot %d differs from FromEdges of its edge list", seq)
		}
		if ps, pt := plan.Profile(snap), plan.Profile(twin); ps != pt {
			return fmt.Errorf("snapshot %d: profile %+v, FromEdges twin %+v", seq, ps, pt)
		}
		for _, eng := range Engines() {
			for _, alg := range []Algo{PR, BFS, SSSP} {
				c := Case{Engine: eng, Algo: alg, Topo: Intel80, Nodes: 4, Cores: 2, Src: src}
				run := func(g *graph.Graph) (bench.RunResult, error) {
					if alg == BFS {
						g = g.Unweighted()
					}
					return bench.RunWith(benchSystems[eng], benchAlgos[alg], g, c.Machine(), bench.Options{Src: src})
				}
				got, err := run(snap)
				if err != nil {
					return err
				}
				want, err := run(twin)
				if err != nil {
					return err
				}
				if d := Compare(c, Policy{Exact: true}, want.Out.Widen(), got.Out.Widen()); d != nil {
					return fmt.Errorf("snapshot %d: %w", seq, d)
				}
				if math.Float64bits(got.SimSeconds) != math.Float64bits(want.SimSeconds) || got.Stats != want.Stats {
					return fmt.Errorf("snapshot %d: %s: SimSeconds %v, Stats %+v on the snapshot; %v, %+v on its twin",
						seq, c, got.SimSeconds, got.Stats, want.SimSeconds, want.Stats)
				}
			}
		}
	}
	return nil
}

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
// storage alone. Then checkLineage commits the same batches under its own
// name and holds the patch functions to fresh builds. It returns the first
// difference, or the error that stopped the check.
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
		twin, err := twinAt(st, name, seq, base)
		if err != nil {
			return err
		}
		if !graph.Equal(snap, twin) {
			return fmt.Errorf("snapshot %d differs from FromEdges of its edge list", seq)
		}
		if ps, pt := plan.Profile(snap), plan.Profile(twin); ps != pt {
			return fmt.Errorf("snapshot %d: profile %+v, FromEdges twin %+v", seq, ps, pt)
		}
		for _, eng := range Engines() {
			if err := runsAlike(eng, seq, snap, twin, src); err != nil {
				return err
			}
		}
	}
	return checkLineage(st, name+"-lineage", base, batches, src)
}

// lineageEngines are the engines that patch what they derive on a
// snapshot from its predecessor's value (graph.Derived's patch function)
// and must give what a fresh build gives; the list grows when an engine
// gains a patch function. Polymer patches its layouts too, but they follow
// the lineage's partition (partition.Sticky), which may differ from a
// fresh split by design.
var lineageEngines = []Engine{Ligra}

// checkLineage commits batches to st under name, on snapshots of its own,
// and runs each lineage engine on every snapshot as soon as it is made,
// while its predecessor, the lineage head, still holds its values: each
// patched snapshot derives its values by patching its predecessor's. The
// runs must match those on the snapshot's FromEdges twin as in
// CheckStorageBlind.
func checkLineage(st *mutate.Store, name string, base *graph.Graph, batches [][]mutate.Op, src graph.Vertex) error {
	for i, b := range batches {
		seq := i + 1
		if _, err := st.Commit(name, 0, base.NumVertices(), b); err != nil {
			return err
		}
		snap, err := st.GraphAt(name, 0, uint64(seq), base)
		if err != nil {
			return err
		}
		twin, err := twinAt(st, name, seq, base)
		if err != nil {
			return err
		}
		for _, eng := range lineageEngines {
			if err := runsAlike(eng, seq, snap, twin, src); err != nil {
				return fmt.Errorf("lineage: %w", err)
			}
		}
	}
	return nil
}

// twinAt returns graph.FromEdges of the edge list committed under name
// through seq over base.
func twinAt(st *mutate.Store, name string, seq int, base *graph.Graph) (*graph.Graph, error) {
	edges, err := st.EdgesAt(name, 0, uint64(seq), mutate.Flatten(base))
	if err != nil {
		return nil, err
	}
	return graph.FromEdges(base.NumVertices(), edges, base.Weighted()), nil
}

// runsAlike runs PR, BFS and SSSP from src on eng over snapshot seq and
// its twin, and returns the first difference in output bits, SimSeconds
// bits or Stats.
func runsAlike(eng Engine, seq int, snap, twin *graph.Graph, src graph.Vertex) error {
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
	return nil
}

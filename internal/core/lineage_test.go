package core_test

import (
	"reflect"
	"testing"

	"polymer/internal/conform"
	"polymer/internal/core"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
	"polymer/internal/partition"
)

// lineageRun is one case's outcome on one graph: values, clock and
// ledger, the partition and what the engine made of its lineage.
type lineageRun struct {
	out   []float64
	sim   float64
	stats numa.Stats
	parts []partition.Range
	seq   uint64
	made  core.Lineage
}

func runLineage(t *testing.T, g *graph.Graph, c shareCase) lineageRun {
	t.Helper()
	e := core.MustNew(g, numa.NewMachine(numa.IntelXeon80(), 4, 2), c.opt())
	defer e.Close()
	out, err := c.run(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	return lineageRun{out, e.SimSeconds(), e.RunStats(), e.Parts(), e.BoundsSeq(), e.Lineage()}
}

// TestPatchedSnapshotRunsMatchColdBuild: along a lineage of heads, each
// generation's BFS, SSSP and PageRank run on layouts patched from the
// generation before. At every generation they equal the same runs on a
// twin lineage — the same snapshots and, carried the same way, the same
// partition — whose layouts are built from the edge arrays: values,
// simulated clock bits and ledger. Against a snapshot balanced afresh the
// values hold to conform's partition-independence policy.
func TestPatchedSnapshotRunsMatchColdBuild(t *testing.T) {
	n, edges := gen.Powerlaw(600, 6, 2.0, 51)
	gen.AddRandomWeights(edges, 52)
	cases := shareCases()
	view := func(g *graph.Graph, c shareCase) *graph.Graph {
		if c.weighted {
			return g
		}
		return g.Unweighted()
	}
	type batch struct{ del, app []graph.Edge }
	var batches []batch
	// twin replays the batches on a new lineage that carries its
	// partitions forward, as the patched one does, but derives no layout.
	twin := func() *graph.Graph {
		g := graph.FromEdges(n, edges, true)
		for i := 0; ; i++ {
			g.MarkHead(uint64(i + 1))
			for _, c := range cases {
				core.MustNew(view(g, c), numa.NewMachine(numa.IntelXeon80(), 4, 2), c.opt()).Close()
			}
			if i == len(batches) {
				return g
			}
			g = g.Patch(batches[i].del, batches[i].app)
		}
	}
	patched := graph.FromEdges(n, edges, true)
	patched.MarkHead(1)
	for _, c := range cases {
		runLineage(t, view(patched, c), c)
	}
	rng := gen.NewRNG(53)
	hot := partition.EdgeBalanced(patched, 4, partition.Out)[0]
	inherited, patches := false, 0
	for seq := uint64(2); seq <= 6; seq++ {
		// Inserts out of and into node 0's range skew both directions'
		// balance, so the inherited partition drifts from a fresh one.
		var b batch
		for i := 0; i < 24; i++ {
			u, v := graph.Vertex(hot.Lo+rng.Intn(hot.Len())), graph.Vertex(rng.Intn(n))
			b.app = append(b.app, graph.Edge{Src: u, Dst: v, Wt: float32(i + 1)}, graph.Edge{Src: v, Dst: u, Wt: 2})
		}
		for i := 0; i < 8; i++ {
			v := graph.Vertex(rng.Intn(n))
			if nbrs := patched.OutNeighbors(v); len(nbrs) > 0 {
				b.del = append(b.del, graph.Edge{Src: v, Dst: nbrs[0]})
			}
		}
		batches = append(batches, b)
		patched = patched.Patch(b.del, b.app)
		patched.MarkHead(seq)
		cold := twin()
		var made, builds int
		for _, c := range cases {
			got := runLineage(t, view(patched, c), c)
			want := runLineage(t, view(cold, c), c)
			// A lineage builds only under a partition balanced afresh here.
			if (got.made.LayoutsBuilt != 0 && got.seq < seq) || want.made.LayoutsPatched != 0 {
				t.Fatalf("seq %d %s: the patched lineage built %d layouts on an inherited partition, the twin patched %d",
					seq, c.name, got.made.LayoutsBuilt, want.made.LayoutsPatched)
			}
			made += got.made.LayoutsPatched + got.made.LayoutsBuilt
			builds += want.made.LayoutsBuilt
			patches += got.made.LayoutsPatched
			if !reflect.DeepEqual(got.parts, want.parts) || got.seq != want.seq {
				t.Fatalf("seq %d %s: partitions %v (seq %d) and %v (seq %d)", seq, c.name, got.parts, got.seq, want.parts, want.seq)
			}
			inherited = inherited || got.seq < seq
			if got.sim != want.sim || !reflect.DeepEqual(got.stats, want.stats) {
				t.Fatalf("seq %d %s: patched sim %v stats %+v, cold sim %v stats %+v", seq, c.name, got.sim, got.stats, want.sim, want.stats)
			}
			for v := range want.out {
				if got.out[v] != want.out[v] {
					t.Fatalf("seq %d %s: vertex %d = %v patched, %v cold", seq, c.name, v, got.out[v], want.out[v])
				}
			}
			fresh := runLineage(t, view(graph.FromEdges(n, patched.Edges(), true), c), c)
			policy := conform.PolicyFor(conform.Algo(c.name)).Relaxed()
			for v := range fresh.out {
				if !policy.Equal(fresh.out[v], got.out[v]) {
					t.Fatalf("seq %d %s: vertex %d = %v on the lineage's partition, %v balanced afresh", seq, c.name, v, got.out[v], fresh.out[v])
				}
			}
		}
		if made != builds {
			t.Fatalf("seq %d: the lineage made %d layouts, the twin built %d", seq, made, builds)
		}
	}
	if !inherited || patches == 0 {
		t.Fatalf("inherited a partition %t, patched %d layouts: the test exercised only fresh builds", inherited, patches)
	}
}

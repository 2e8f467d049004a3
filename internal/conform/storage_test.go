package conform

import (
	"testing"

	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/mutate"
)

// TestStorageBlind holds every engine's PR, BFS and SSSP on patched
// snapshots, whose rows are in chunks shared along the lineage, to the
// same runs on FromEdges of their edge lists (CheckStorageBlind), over a
// weighted power-law graph of several chunks under a warm-read batch
// stream.
func TestStorageBlind(t *testing.T) {
	n, edges := gen.Powerlaw(5*graph.ChunkSize+7, 4, 2.0, 41)
	gen.AddRandomWeights(edges, 43)
	base := graph.FromEdges(n, edges, true)
	st, err := mutate.Open(t.TempDir(), mutate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const src = 1
	if err := CheckStorageBlind(st, "storage-blind", base, WarmStream(base, src, 47, 5, 32), src); err != nil {
		t.Fatal(err)
	}
}

// Tests for the snapshot chain: GraphAt patches the retained snapshot
// forward, and whatever path it takes — patch, whole-prefix fold, retained
// hit — the graph equals the clean apply of the prefix array for array.

package mutate

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"polymer/internal/gen"
	"polymer/internal/graph"
)

// rmatBase is a generated base: duplicate pairs, self-loops, and in-rows in
// generation order — the input a direct patch would get wrong.
func rmatBase(weighted bool) *graph.Graph {
	n, edges := gen.RMAT(6, 8, 0x24)
	if weighted {
		gen.AddRandomWeights(edges, 7)
	}
	return graph.FromEdges(n, edges, weighted)
}

// streamOps draws a batch: inserts of random edges, and deletes that name a
// random pair or, half the time, a pair the base holds.
func streamOps(rng *rand.Rand, base []graph.Edge, n, count int) []Op {
	ops := randomOps(rng, n, count)
	for i := range ops {
		if ops[i].Kind == OpDelete && rng.Intn(2) == 0 {
			e := base[rng.Intn(len(base))]
			ops[i].Src, ops[i].Dst = e.Src, e.Dst
		}
	}
	return ops
}

// cleanApply is the oracle graph of an op prefix over base.
func cleanApply(base *graph.Graph, ops []Op) *graph.Graph {
	return graph.FromEdges(base.NumVertices(), naiveApply(Flatten(base), ops), base.Weighted())
}

func TestPatchedSnapshotEqualsCleanApply(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("weighted=%t/seed%d", weighted, seed), func(t *testing.T) {
				base := rmatBase(weighted)
				flat := Flatten(base)
				rng := rand.New(rand.NewSource(seed))
				st, err := Open(t.TempDir(), Options{CheckpointEvery: 3})
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				var all []Op
				var reads int64
				for batch := 1; batch <= 40; batch++ {
					ops := streamOps(rng, flat, base.NumVertices(), 1+rng.Intn(24))
					seq, err := st.Commit("rmat24", 0, base.NumVertices(), ops)
					if err != nil {
						t.Fatal(err)
					}
					all = append(all, ops...)
					if batch > 1 && rng.Intn(3) == 0 {
						continue // the next patch spans several batches
					}
					g, err := st.GraphAt("rmat24", 0, seq, base)
					if err != nil {
						t.Fatal(err)
					}
					reads++
					graphEqual(t, g, cleanApply(base, all))
					if again, _ := st.GraphAt("rmat24", 0, seq, base); again != g {
						t.Fatalf("seq %d: the retained snapshot was rebuilt", seq)
					}
					// Every snapshot is its lineage's head at its own seq, and
					// Version counts the ops committed through it.
					if v, ops, err := st.Version("rmat24", 0); err != nil || g.Seq() != seq || v != seq || ops != int64(len(all)) {
						t.Fatalf("seq %d: head at seq %d, Version %d with %d ops (%v), want %d ops", seq, g.Seq(), v, ops, err, len(all))
					}
				}
				if s := st.Stats(); s.Folded != 1 || s.Patched != reads-1 {
					t.Fatalf("%d reads: folded %d patched %d, want 1 and %d", reads, s.Folded, s.Patched, reads-1)
				}
			})
		}
	}
}

// TestSnapshotIsolationAndFallbacks: the paths that must not patch. An
// older prefix than the retained one and a different base graph are both
// folded, and neither moves the retained snapshot backwards.
func TestSnapshotIsolationAndFallbacks(t *testing.T) {
	base := rmatBase(true)
	flat := Flatten(base)
	n := base.NumVertices()
	rng := rand.New(rand.NewSource(5))
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var prefix [][]Op // prefix[i] = every op through batch i
	prefix = append(prefix, nil)
	for i := 1; i <= 3; i++ {
		ops := streamOps(rng, flat, n, 12)
		if _, err := st.Commit("rmat24", 0, n, ops); err != nil {
			t.Fatal(err)
		}
		prefix = append(prefix, append(append([]Op(nil), prefix[i-1]...), ops...))
	}
	if g, _ := st.GraphAt("rmat24", 0, 0, base); g != base {
		t.Fatal("seq 0 is the base itself")
	}
	at := func(seq uint64, b *graph.Graph) *graph.Graph {
		t.Helper()
		g, err := st.GraphAt("rmat24", 0, seq, b)
		if err != nil {
			t.Fatal(err)
		}
		graphEqual(t, g, cleanApply(b, prefix[seq]))
		return g
	}
	wantStats := func(folded, patched int64) {
		t.Helper()
		if s := st.Stats(); s.Folded != folded || s.Patched != patched {
			t.Fatalf("folded %d patched %d, want %d and %d", s.Folded, s.Patched, folded, patched)
		}
	}
	g2 := at(2, base)
	wantStats(1, 0)
	g3 := at(3, base)
	wantStats(1, 1)
	// An isolation reader that sampled seq 2 before the last commit.
	if old := at(2, base); old == g2 || old == g3 {
		t.Fatal("the older prefix was not rebuilt")
	}
	wantStats(2, 1)
	if at(3, base) != g3 {
		t.Fatal("serving an older prefix moved the retained snapshot backwards")
	}
	wantStats(2, 1)
	// Another graph as base, equal in content or not: fold over that one.
	other := graph.FromEdges(n, flat, true)
	at(3, other)
	wantStats(3, 1)
	unweighted := rmatBase(false)
	if at(3, unweighted).Weighted() {
		t.Fatal("snapshot over an unweighted base has weights")
	}
	wantStats(4, 1)

	if _, err := st.GraphAt("rmat24", 0, 4, base); err == nil {
		t.Fatal("uncommitted prefix materialized")
	}
	// Edits carries any snapshot to any later one, and no other way.
	deleted, appended, err := st.Edits("rmat24", 0, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	graphEqual(t, at(1, base).Patch(deleted, appended), cleanApply(base, prefix[3]))
	for _, w := range [][2]uint64{{3, 1}, {2, 4}} {
		if _, _, err := st.Edits("rmat24", 0, w[0], w[1]); err == nil {
			t.Fatalf("edits from %d to %d folded", w[0], w[1])
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if len(st.keys) != 0 {
		t.Fatal("Close kept key states, and with them retained snapshots")
	}
	if _, err := st.GraphAt("rmat24", 0, 3, base); !errors.Is(err, ErrClosed) {
		t.Fatalf("GraphAt after Close: %v, want ErrClosed", err)
	}
}

// TestGraphAtConcurrentWithCommit: readers sample a sequence number and
// materialize it while a writer keeps committing; run under -race. Every
// graph equals the clean apply of the prefix its reader sampled.
func TestGraphAtConcurrentWithCommit(t *testing.T) {
	base := rmatBase(true)
	flat := Flatten(base)
	n := base.NumVertices()
	rng := rand.New(rand.NewSource(9))
	const batches = 24
	want := []*graph.Graph{base}
	var stream [][]Op
	var all []Op
	for i := 0; i < batches; i++ {
		ops := streamOps(rng, flat, n, 8)
		stream = append(stream, ops)
		all = append(all, ops...)
		want = append(want, cleanApply(base, all))
	}
	st, err := Open(t.TempDir(), Options{CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for last := uint64(0); last < batches; {
				select {
				case <-done:
					return
				default:
				}
				seq, err := st.Seq("rmat24", 0)
				if err != nil {
					t.Error(err)
					return
				}
				g, err := st.GraphAt("rmat24", 0, seq, base)
				if err != nil {
					t.Error(err)
					return
				}
				if !graph.Equal(g, want[seq]) {
					t.Errorf("seq %d: concurrent GraphAt differs from the clean apply", seq)
					return
				}
				last = seq
			}
		}()
	}
	for _, ops := range stream {
		if _, err := st.Commit("rmat24", 0, n, ops); err != nil {
			t.Error(err)
			break
		}
	}
	if t.Failed() {
		close(done)
	}
	readers.Wait()
}

package mutate

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"polymer/internal/fault"
	"polymer/internal/graph"
)

// soakSeeds is the per-crash-point trial budget; MUTATE_SOAK_SEEDS
// raises it for the soak target.
func soakSeeds(t *testing.T) int {
	s := os.Getenv("MUTATE_SOAK_SEEDS")
	if s == "" {
		return 3
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		t.Fatalf("MUTATE_SOAK_SEEDS=%q: want a positive integer", s)
	}
	return n
}

func chaosBase(n int) []graph.Edge {
	rng := rand.New(rand.NewSource(1))
	edges := make([]graph.Edge, 0, 3*n)
	for i := 0; i < 3*n; i++ {
		edges = append(edges, graph.Edge{
			Src: graph.Vertex(rng.Intn(n)),
			Dst: graph.Vertex(rng.Intn(n)),
			Wt:  float32(rng.Intn(20)) + 1,
		})
	}
	return edges
}

// TestCrashRecoveryMatrix is the crash-recovery chaos harness: for every
// injection point and seed, run a mutation workload until the planned
// kill fires, simulate losing the unsynced page-cache tail, recover, and
// verify the recovered state is bit-identical to a clean apply of a
// batch prefix that contains every acknowledged batch.
func TestCrashRecoveryMatrix(t *testing.T) {
	seeds := soakSeeds(t)
	const n = 64
	base := chaosBase(n)
	for _, point := range fault.CrashPoints() {
		for seed := 0; seed < seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", point, seed), func(t *testing.T) {
				runCrashTrial(t, point, int64(seed), n, base)
			})
		}
	}
}

func runCrashTrial(t *testing.T, point fault.CrashPoint, seed int64, n int, base []graph.Edge) {
	dir := t.TempDir()
	// One base graph per trial: GraphAt patches only over the base pointer
	// its retained snapshot was folded over.
	gBase := graph.FromEdges(n, base, true)
	rng := rand.New(rand.NewSource(seed*1009 + int64(point)))
	const batches = 12
	crashAt := uint64(1 + rng.Intn(batches))
	if point == fault.CrashBeforeRotate {
		// Rotation only happens at checkpoint boundaries (every 3 batches
		// here), so pin the kill to one or it would never fire.
		crashAt = uint64(3 * (1 + rng.Intn(batches/3)))
	}
	crasher := &fault.PlannedCrash{Point: point, Seq: crashAt}
	st, err := Open(dir, Options{CheckpointEvery: 3, Crasher: crasher})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { st.Close() }()

	// committed[i] holds the ops of the batch with sequence number i+1;
	// acked is the highest sequence Commit acknowledged (fsync completed).
	var committed [][]Op
	acked := uint64(0)
	for uint64(len(committed)) < batches {
		ops := randomOps(rng, n, 1+rng.Intn(6))
		seq, err := st.Commit("chaos", 0, n, ops)
		if err == nil {
			committed = append(committed, ops)
			if seq != uint64(len(committed)) {
				t.Fatalf("commit returned seq %d, want %d", seq, len(committed))
			}
			acked = seq
			continue
		}
		if !errors.Is(err, fault.ErrCrashed) {
			t.Fatalf("commit: %v", err)
		}
		attempted := uint64(len(committed)) + 1

		// Simulated process kill. The OS may also lose any unsynced tail
		// of the WAL: cut the file at a seeded offset in [durable, size].
		key := Key("chaos", 0)
		st.mu.Lock()
		ks := st.keys[key]
		durable, size := ks.log.durable, ks.log.size
		st.mu.Unlock()
		st.Close()
		if size > durable {
			cut := durable + int64(rng.Intn(int(size-durable)+1))
			if err := os.Truncate(filepath.Join(dir, key+".wal"), cut); err != nil {
				t.Fatal(err)
			}
		}

		st, err = Open(dir, Options{CheckpointEvery: 3})
		if err != nil {
			t.Fatalf("recovery after %s: %v", point, err)
		}
		rec, err := st.Seq("chaos", 0)
		if err != nil {
			t.Fatalf("recovery after %s: %v", point, err)
		}
		// The crash-consistency contract: every acked batch survives, and
		// nothing beyond the attempted batch can exist.
		if rec < acked {
			t.Fatalf("recovery lost acked batch: recovered seq %d < acked %d", rec, acked)
		}
		if rec > attempted {
			t.Fatalf("recovery invented batches: recovered seq %d > attempted %d", rec, attempted)
		}
		if point == fault.CrashBeforePublish || point == fault.CrashBeforeRotate {
			// These kills land after the fsync: the attempted batch is
			// durable and recovery must include it.
			if rec != attempted {
				t.Fatalf("%s lost a durable batch: recovered seq %d, want %d", point, rec, attempted)
			}
		}
		if rec == attempted {
			committed = append(committed, ops)
		}
		acked = rec
		// A recovered store has no snapshot to patch: this one is folded.
		verifySnapshot(t, st, committed, gBase)
		if s := st.Stats(); s.Folded != 1 || s.Patched != 0 {
			t.Fatalf("first snapshot after recovery: folded %d patched %d, want 1 and 0", s.Folded, s.Patched)
		}
	}
	if !crasher.Fired() {
		t.Fatalf("planned crash %s at batch %d never fired", point, crashAt)
	}
	verifySnapshot(t, st, committed, gBase)
	// Two further commits on the recovered store: each snapshot is patched
	// from the one before it and still equals the clean apply.
	for i := 0; i < 2; i++ {
		ops := randomOps(rng, n, 1+rng.Intn(6))
		if _, err := st.Commit("chaos", 0, n, ops); err != nil {
			t.Fatalf("commit after recovery: %v", err)
		}
		committed = append(committed, ops)
		verifySnapshot(t, st, committed, gBase)
	}
	if s := st.Stats(); s.Folded != 1 || s.Patched < 2 {
		t.Fatalf("recovered store: folded %d patched %d, want 1 and >= 2", s.Folded, s.Patched)
	}

	// Recovery is idempotent: a further clean restart reproduces the
	// identical state.
	st.Close()
	st2, err := Open(dir, Options{CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	verifySnapshot(t, st2, committed, gBase)
	st2.Close()
}

// verifySnapshot asserts the store's current snapshot is bit-identical —
// adjacency arrays, weights, and degree caches — to an independent naive
// replay of the committed batches over the base edge list.
func verifySnapshot(t *testing.T, st *Store, committed [][]Op, gBase *graph.Graph) {
	t.Helper()
	seq, err := st.Seq("chaos", 0)
	if err != nil {
		t.Fatal(err)
	}
	if seq != uint64(len(committed)) {
		t.Fatalf("store at seq %d, committed %d batches", seq, len(committed))
	}
	var flat []Op
	for _, ops := range committed {
		flat = append(flat, ops...)
	}
	// GraphAt applies mutations to Flatten(base graph) — CSR order — so
	// the clean-apply oracle must start from the same canonical edge list
	// for the bit-identical comparison to be meaningful.
	canon := Flatten(gBase)
	want := naiveApply(canon, flat)
	got, err := st.EdgesAt("chaos", 0, seq, canon)
	if err != nil {
		t.Fatal(err)
	}
	edgesEqual(t, got, want)
	gotG, err := st.GraphAt("chaos", 0, seq, gBase)
	if err != nil {
		t.Fatal(err)
	}
	graphEqual(t, gotG, graph.FromEdges(gBase.NumVertices(), want, true))
}

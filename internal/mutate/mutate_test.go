package mutate

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"polymer/internal/graph"
)

// naiveApply is the independent oracle: replay ops literally, one at a
// time, against a flat edge list. netState.apply must match it exactly.
func naiveApply(base []graph.Edge, ops []Op) []graph.Edge {
	edges := append([]graph.Edge(nil), base...)
	for _, op := range ops {
		switch op.Kind {
		case OpInsert:
			edges = append(edges, graph.Edge{Src: op.Src, Dst: op.Dst, Wt: op.Wt})
		case OpDelete:
			kept := edges[:0]
			for _, e := range edges {
				if e.Src != op.Src || e.Dst != op.Dst {
					kept = append(kept, e)
				}
			}
			edges = kept
		}
	}
	return edges
}

func edgesEqual(t *testing.T, got, want []graph.Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("edge count %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("edge %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// graphEqual asserts two graphs are equal row for row (graph.Equal).
func graphEqual(t *testing.T, got, want *graph.Graph) {
	t.Helper()
	if !graph.Equal(got, want) {
		t.Fatalf("graph %v differs from %v", got, want)
	}
}

func testBase() (int, []graph.Edge) {
	return 10, []graph.Edge{
		{Src: 0, Dst: 1, Wt: 1}, {Src: 1, Dst: 2, Wt: 2}, {Src: 2, Dst: 3, Wt: 3},
		{Src: 0, Dst: 1, Wt: 4}, // duplicate pair with a different weight
		{Src: 3, Dst: 4, Wt: 5}, {Src: 4, Dst: 0, Wt: 6},
	}
}

func TestApplySemantics(t *testing.T) {
	n, base := testBase()
	_ = n
	cases := []struct {
		name string
		ops  []Op
	}{
		{"insert-only", []Op{{Kind: OpInsert, Src: 5, Dst: 6, Wt: 7}}},
		{"duplicate-inserts", []Op{{Kind: OpInsert, Src: 5, Dst: 6, Wt: 7}, {Kind: OpInsert, Src: 5, Dst: 6, Wt: 7}}},
		{"delete-all-copies", []Op{{Kind: OpDelete, Src: 0, Dst: 1}}},
		{"delete-then-reinsert", []Op{{Kind: OpDelete, Src: 0, Dst: 1}, {Kind: OpInsert, Src: 0, Dst: 1, Wt: 9}}},
		{"insert-then-delete-kills-both", []Op{{Kind: OpInsert, Src: 1, Dst: 2, Wt: 9}, {Kind: OpDelete, Src: 1, Dst: 2}}},
		{"delete-missing-pair", []Op{{Kind: OpDelete, Src: 7, Dst: 8}}},
		{"reinsert-does-not-revive-base", []Op{
			{Kind: OpDelete, Src: 0, Dst: 1},
			{Kind: OpInsert, Src: 0, Dst: 1, Wt: 9},
			{Kind: OpDelete, Src: 0, Dst: 1},
			{Kind: OpInsert, Src: 0, Dst: 1, Wt: 11},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			edgesEqual(t, ApplyOps(base, tc.ops), naiveApply(base, tc.ops))
		})
	}
}

func TestApplyMatchesNaiveRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n, base := testBase()
	for trial := 0; trial < 200; trial++ {
		ops := randomOps(rng, n, 1+rng.Intn(12))
		edgesEqual(t, ApplyOps(base, ops), naiveApply(base, ops))
	}
}

func randomOps(rng *rand.Rand, n, count int) []Op {
	ops := make([]Op, count)
	for i := range ops {
		op := Op{
			Src: graph.Vertex(rng.Intn(n)),
			Dst: graph.Vertex(rng.Intn(n)),
			Wt:  float32(rng.Intn(50)) + 1,
		}
		if rng.Intn(3) == 0 {
			op.Kind = OpDelete
		} else {
			op.Kind = OpInsert
		}
		ops[i] = op
	}
	return ops
}

func TestStoreCommitRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	n, base := testBase()
	rng := rand.New(rand.NewSource(7))
	st, err := Open(dir, Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	var all []Op
	for i := 0; i < 6; i++ {
		ops := randomOps(rng, n, 1+rng.Intn(5))
		seq, err := st.Commit("roadUS", 0, n, ops)
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
		all = append(all, ops...)
	}
	got, err := st.EdgesAt("roadUS", 0, 6, base)
	if err != nil {
		t.Fatal(err)
	}
	edgesEqual(t, got, naiveApply(base, all))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh open replays the log and lands on the identical state.
	st2, err := Open(dir, Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	seq, err := st2.Seq("roadUS", 0)
	if err != nil || seq != 6 {
		t.Fatalf("recovered seq = %d (%v), want 6", seq, err)
	}
	got2, err := st2.EdgesAt("roadUS", 0, 6, base)
	if err != nil {
		t.Fatal(err)
	}
	edgesEqual(t, got2, naiveApply(base, all))
	if s := st2.Stats(); s.Recovered != 6 {
		t.Fatalf("recovered %d batches, want 6", s.Recovered)
	}
	// Intermediate prefixes materialize too. GraphAt applies mutations to
	// Flatten(base graph), so the oracle must use the same canonical list.
	gBase := graph.FromEdges(n, base, true)
	mid, err := st2.EdgesAt("roadUS", 0, 3, Flatten(gBase))
	if err != nil {
		t.Fatal(err)
	}
	gMid, err := st2.GraphAt("roadUS", 0, 3, gBase)
	if err != nil {
		t.Fatal(err)
	}
	graphEqual(t, gMid, graph.FromEdges(n, mid, true))
}

func TestCheckpointBoundsRecoveryReplay(t *testing.T) {
	dir := t.TempDir()
	n, base := testBase()
	rng := rand.New(rand.NewSource(9))
	st, err := Open(dir, Options{CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	var all []Op
	for i := 0; i < 10; i++ {
		ops := randomOps(rng, n, 2)
		if _, err := st.Commit("rmat24", 1, n, ops); err != nil {
			t.Fatal(err)
		}
		all = append(all, ops...)
	}
	if s := st.Stats(); s.Checkpoints != 2 {
		t.Fatalf("checkpoints = %d, want 2 (at batches 4 and 8)", s.Checkpoints)
	}
	st.Close()

	st2, err := Open(dir, Options{CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	seq, err := st2.Seq("rmat24", 1)
	if err != nil || seq != 10 {
		t.Fatalf("recovered seq = %d (%v), want 10", seq, err)
	}
	// Only the two post-checkpoint records should have been replayed.
	if s := st2.Stats(); s.Recovered != 2 {
		t.Fatalf("replayed %d batches, want 2 (checkpoint at 8)", s.Recovered)
	}
	got, err := st2.EdgesAt("rmat24", 1, 10, base)
	if err != nil {
		t.Fatal(err)
	}
	edgesEqual(t, got, naiveApply(base, all))
	// Prefixes older than the recovered checkpoint are unreachable by
	// construction and refused rather than mis-served.
	if _, err := st2.EdgesAt("rmat24", 1, 5, base); err == nil ||
		!strings.Contains(err.Error(), "predates") {
		t.Fatalf("pre-checkpoint prefix not refused: %v", err)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	n, _ := testBase()
	st, err := Open(dir, Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	ops := []Op{{Kind: OpInsert, Src: 1, Dst: 2, Wt: 3}}
	if _, err := st.Commit("twitter", 0, n, ops); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit("twitter", 0, n, ops); err != nil {
		t.Fatal(err)
	}
	st.Close()

	path := filepath.Join(dir, Key("twitter", 0)+".wal")
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tails := map[string][]byte{
		"half-record":  append(append([]byte{}, pristine...), pristine[len(walMagic):len(walMagic)+13]...),
		"garbage":      append(append([]byte{}, pristine...), 0xde, 0xad, 0xbe, 0xef, 9, 9, 9, 9, 9, 9, 9, 9),
		"short-header": append(append([]byte{}, pristine...), 1, 2, 3),
		"huge-length":  append(append([]byte{}, pristine...), 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0),
		"crc-mismatch": flipLastPayloadBit(pristine),
		"zero-length":  append(append([]byte{}, pristine...), 0, 0, 0, 0, 0, 0, 0, 0),
	}
	for name, contents := range tails {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, contents, 0o644); err != nil {
				t.Fatal(err)
			}
			st2, err := Open(dir, Options{CheckpointEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			seq, err := st2.Seq("twitter", 0)
			if err != nil {
				t.Fatal(err)
			}
			want := uint64(2)
			if name == "crc-mismatch" {
				want = 1 // the flipped bit killed record 2 itself
			}
			if seq != want {
				t.Fatalf("recovered seq = %d, want %d", seq, want)
			}
			if st2.Stats().Truncated != 1 {
				t.Fatal("torn tail not counted")
			}
			// The truncation is durable: a third open sees a clean log.
			st2.Close()
			st3, err := Open(dir, Options{CheckpointEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer st3.Close()
			if seq3, _ := st3.Seq("twitter", 0); seq3 != want {
				t.Fatalf("re-open seq = %d, want %d", seq3, want)
			}
			if st3.Stats().Truncated != 0 {
				t.Fatal("clean log still counted as torn")
			}
		})
	}
}

// flipLastPayloadBit corrupts one bit inside the final record's payload,
// so its CRC fails and recovery must stop before it.
func flipLastPayloadBit(pristine []byte) []byte {
	out := append([]byte{}, pristine...)
	out[len(out)-1] ^= 1
	return out
}

func TestCommitValidation(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Commit("d", 0, 10, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := st.Commit("d", 0, 10, []Op{{Kind: 9, Src: 1, Dst: 2}}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := st.Commit("d", 0, 10, []Op{{Kind: OpInsert, Src: 10, Dst: 2}}); err == nil {
		t.Fatal("out-of-range src accepted")
	}
	if _, err := st.Commit("d", 0, 10, []Op{{Kind: OpDelete, Src: 0, Dst: 99}}); err == nil {
		t.Fatal("out-of-range dst accepted")
	}
	if seq, err := st.Commit("d", 0, 10, []Op{{Kind: OpInsert, Src: 0, Dst: 9, Wt: 1}}); err != nil || seq != 1 {
		t.Fatalf("valid batch refused: %d %v", seq, err)
	}
}

func TestBadMagicRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, Key("d", 0)+".wal"), []byte("NOTAWAL!xxxx"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Seq("d", 0); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("bad magic not refused: %v", err)
	}
}

func TestRecordEncodingRoundTrip(t *testing.T) {
	ops := []Op{
		{Kind: OpInsert, Src: 0, Dst: 4294967295, Wt: -1.5},
		{Kind: OpDelete, Src: 7, Dst: 7},
	}
	payload := encodeBatch(99, ops)
	b, err := DecodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if b.Seq != 99 || len(b.Ops) != 2 || b.Ops[0] != ops[0] || b.Ops[1] != ops[1] {
		t.Fatalf("round trip diverged: %+v", b)
	}
	// Oversized op counts are refused without allocating.
	huge := make([]byte, batchHdBytes)
	binary.LittleEndian.PutUint32(huge[8:], MaxBatchOps+1)
	if _, err := DecodeRecord(huge); err == nil {
		t.Fatal("oversized op count accepted")
	}
}

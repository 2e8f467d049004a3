package mutate

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"polymer/internal/graph"
)

func FuzzDecodeRecord(f *testing.F) {
	valid := encodeBatch(7, []Op{
		{Kind: OpInsert, Src: 0, Dst: 1, Wt: 1.5},
		{Kind: OpDelete, Src: 1, Dst: 0},
	})
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-1])       // truncated mid-op
	f.Add(valid[:batchHdBytes])       // header only
	f.Add(make([]byte, batchHdBytes)) // zero ops
	flipped := append([]byte{}, valid...)
	flipped[8] ^= 0x40 // bit-flip in the op count
	f.Add(flipped)
	huge := make([]byte, batchHdBytes)
	binary.LittleEndian.PutUint32(huge[8:], 1<<31) // absurd op count
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeRecord(data)
		if err != nil {
			return // rejected hostile input — fine, as long as it didn't panic
		}
		// Anything accepted must re-encode to the identical bytes.
		if re := encodeBatch(b.Seq, b.Ops); !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not a round trip:\n in %x\nout %x", data, re)
		}
	})
}

func FuzzLogRecovery(f *testing.F) {
	payload := encodeBatch(1, []Op{{Kind: OpInsert, Src: 1, Dst: 2, Wt: 3}})
	rec := make([]byte, recHdBytes+len(payload))
	binary.LittleEndian.PutUint32(rec, uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(payload))
	copy(rec[recHdBytes:], payload)

	f.Add([]byte{})
	f.Add([]byte(walMagic))
	f.Add(append([]byte(walMagic), rec...))
	f.Add(append([]byte(walMagic), rec[:len(rec)-3]...)) // torn tail
	f.Add(append([]byte("NOTMAGIC"), rec...))
	corrupt := append([]byte(walMagic), rec...)
	corrupt[len(corrupt)-1] ^= 1 // CRC mismatch on the only record
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, batches, err := OpenLog(path)
		if err != nil {
			return // refused the file outright — never a panic
		}
		n := len(batches)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		// Open repaired the file in place; a second open must see a clean
		// log with the same batches and nothing left to truncate.
		l2, batches2, err := OpenLog(path)
		if err != nil {
			t.Fatalf("reopen after clean open: %v", err)
		}
		defer l2.Close()
		if l2.truncated {
			t.Fatal("second open still found a torn tail")
		}
		if len(batches2) != n {
			t.Fatalf("reopen saw %d batches, first open saw %d", len(batches2), n)
		}
	})
}

// FuzzPatchVsApply drives the snapshot chain without a store: ops decoded
// three bytes at a time (flags, src, dst), a snapshot taken wherever the
// flag byte's top bit is set by folding the ops since the last one into a
// delta and patching. Every snapshot must equal the clean apply of the
// whole prefix over the base.
func FuzzPatchVsApply(f *testing.F) {
	const (
		n      = 8
		insert = 0x01 // low two bits zero = delete, anything else = insert
		snap   = 0x80
	)
	f.Add([]byte{})
	f.Add([]byte{insert | snap, 1, 2})
	f.Add([]byte{snap, 0, 1})                                                    // delete a duplicated base pair
	f.Add([]byte{snap, 7, 7})                                                    // delete an absent pair
	f.Add([]byte{insert, 3, 4, 0, 3, 4, insert | snap, 3, 4})                    // insert, delete, insert in one delta
	f.Add([]byte{insert | snap, 3, 4, snap, 3, 4, insert | snap, 3, 4})          // the same across three snapshots
	f.Add([]byte{insert | snap, 5, 5, snap, 5, 5})                               // self-loop in, self-loop out
	f.Add([]byte{0, 0, 1, 0, 0, 2, snap, 0, 3})                                  // empty row 0
	f.Add([]byte{insert, 0, 1, insert | snap, 0, 1, insert | 0x3c | snap, 2, 0}) // duplicates of a base pair, a heavy edge
	f.Add([]byte{insert, 6, 0, insert, 6, 1, snap, 1, 2, insert | snap, 7, 0, 0, 6, 0})

	baseEdges := []graph.Edge{
		{Src: 4, Dst: 0, Wt: 1}, {Src: 0, Dst: 1, Wt: 2}, {Src: 0, Dst: 1, Wt: 3}, {Src: 0, Dst: 2, Wt: 4},
		{Src: 0, Dst: 3, Wt: 5}, {Src: 1, Dst: 2, Wt: 6}, {Src: 2, Dst: 2, Wt: 7}, {Src: 1, Dst: 0, Wt: 8},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, weighted := range []bool{false, true} {
			base := graph.FromEdges(n, baseEdges, weighted)
			flat := Flatten(base)
			// The empty prefix, folded: what Store.GraphAt patches from.
			g := graph.FromEdges(n, flat, weighted)
			var all, pending []Op
			for d := data; len(d) >= 3; d = d[3:] {
				op := Op{Kind: OpDelete, Src: graph.Vertex(d[1] % n), Dst: graph.Vertex(d[2] % n)}
				if d[0]&3 != 0 {
					op.Kind, op.Wt = OpInsert, float32(d[0]>>2&15)+1
				}
				all, pending = append(all, op), append(pending, op)
				if d[0]&snap == 0 {
					continue
				}
				delta := newNetState()
				delta.foldBatches([]Batch{{Ops: pending}})
				g, pending = g.Patch(delta.edits()), nil
				graphEqual(t, g, graph.FromEdges(n, ApplyOps(flat, all), weighted))
			}
		}
	})
}

// Package mutate is the crash-consistent streaming-mutation path: a
// checksummed, length-prefixed write-ahead log of batched edge
// insert/delete records, an applier that folds committed batches into
// copy-on-write graph snapshots, and a recovery path that replays the log
// from the last durable checkpoint.
//
// Durability contract: a batch is committed exactly when its record is
// fsynced. A process kill at any instant — mid-record, between write and
// fsync, between commit and in-memory publish — recovers to a graph
// bit-identical to a clean apply of some batch prefix that contains every
// acknowledged (fsynced) batch. Torn tails are detected by the per-record
// CRC32 and truncated on open; checkpoints are written atomically
// (tmp + fsync + rename) and the log is only rotated after the checkpoint
// is durable, so the two files can never both be unusable.
//
// Apply semantics: ops are ordered. An insert appends one directed edge
// (duplicates allowed, as in graph.FromEdges). A delete removes every
// edge (src,dst) present at that instant — base-topology copies and
// earlier inserts alike; a later insert re-adds the pair. This folds into
// a net effect (deleted base pairs + surviving inserts) that applies to a
// base edge list in O(|base| + |inserts|), which is what makes committed
// prefixes cheap to materialize as immutable graph.Graph snapshots.
package mutate

import (
	"encoding/binary"
	"fmt"
	"math"

	"polymer/internal/graph"
)

// OpKind distinguishes edge insertion from deletion.
type OpKind uint8

const (
	// OpInsert adds one directed edge (Wt is kept; unweighted views drop it).
	OpInsert OpKind = 1
	// OpDelete removes every current edge (Src, Dst); Wt is ignored.
	OpDelete OpKind = 2
)

// String names the kind the way the HTTP surface spells it.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Op is one edge mutation.
type Op struct {
	Kind     OpKind
	Src, Dst graph.Vertex
	Wt       float32
}

// Batch is one committed WAL record: a sequence number and its ops.
type Batch struct {
	Seq uint64
	Ops []Op
}

// MaxBatchOps bounds one record; larger batches must be split by the
// caller. The bound keeps a corrupt length field from provoking a huge
// allocation during recovery.
const MaxBatchOps = 1 << 16

const (
	opBytes      = 1 + 4 + 4 + 4 // kind, src, dst, wt
	batchHdBytes = 8 + 4         // seq, nops
)

// encodeBatch renders a record payload (everything the CRC covers).
func encodeBatch(seq uint64, ops []Op) []byte {
	buf := make([]byte, batchHdBytes+len(ops)*opBytes)
	binary.LittleEndian.PutUint64(buf, seq)
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(ops)))
	off := batchHdBytes
	for _, op := range ops {
		buf[off] = byte(op.Kind)
		binary.LittleEndian.PutUint32(buf[off+1:], op.Src)
		binary.LittleEndian.PutUint32(buf[off+5:], op.Dst)
		binary.LittleEndian.PutUint32(buf[off+9:], math.Float32bits(op.Wt))
		off += opBytes
	}
	return buf
}

// DecodeRecord parses one record payload back into a batch. It never
// panics on hostile input (the fuzz target's contract): every structural
// violation — short header, op-count/length mismatch, unknown kind,
// zero ops — is an error.
func DecodeRecord(payload []byte) (Batch, error) {
	if len(payload) < batchHdBytes {
		return Batch{}, fmt.Errorf("mutate: record payload %d bytes, want >= %d", len(payload), batchHdBytes)
	}
	b := Batch{Seq: binary.LittleEndian.Uint64(payload)}
	nops := binary.LittleEndian.Uint32(payload[8:])
	if nops == 0 {
		return Batch{}, fmt.Errorf("mutate: record with zero ops")
	}
	if nops > MaxBatchOps {
		return Batch{}, fmt.Errorf("mutate: record claims %d ops, max %d", nops, MaxBatchOps)
	}
	if want := batchHdBytes + int(nops)*opBytes; len(payload) != want {
		return Batch{}, fmt.Errorf("mutate: record payload %d bytes, want %d for %d ops", len(payload), want, nops)
	}
	b.Ops = make([]Op, nops)
	off := batchHdBytes
	for i := range b.Ops {
		k := OpKind(payload[off])
		if k != OpInsert && k != OpDelete {
			return Batch{}, fmt.Errorf("mutate: record op %d has unknown kind %d", i, k)
		}
		b.Ops[i] = Op{
			Kind: k,
			Src:  binary.LittleEndian.Uint32(payload[off+1:]),
			Dst:  binary.LittleEndian.Uint32(payload[off+5:]),
			Wt:   math.Float32frombits(binary.LittleEndian.Uint32(payload[off+9:])),
		}
		off += opBytes
	}
	return b, nil
}

// pairKey packs a directed (src, dst) pair for the deleted-pairs set.
func pairKey(src, dst graph.Vertex) uint64 { return uint64(src)<<32 | uint64(dst) }

// netState is the fold of an op prefix: which base-topology pairs are
// currently deleted, and which inserted edges survive, in insertion
// order. Folding is order-sensitive (delete kills earlier inserts, a
// later insert re-adds the pair) but the folded state applies to any base
// edge list in one pass.
type netState struct {
	deleted map[uint64]struct{}
	live    []Op // OpInsert ops that no later delete removed
}

func newNetState() *netState {
	return &netState{deleted: make(map[uint64]struct{})}
}

// clone deep-copies the state (snapshot materialization works on a copy
// so commits can keep folding concurrently).
func (ns *netState) clone() *netState {
	c := &netState{
		deleted: make(map[uint64]struct{}, len(ns.deleted)),
		live:    append([]Op(nil), ns.live...),
	}
	for k := range ns.deleted {
		c.deleted[k] = struct{}{}
	}
	return c
}

// fold applies one op to the net state.
func (ns *netState) fold(op Op) {
	switch op.Kind {
	case OpInsert:
		ns.live = append(ns.live, op)
	case OpDelete:
		// Base copies of the pair are gone from now on, and so is every
		// earlier surviving insert of it.
		ns.deleted[pairKey(op.Src, op.Dst)] = struct{}{}
		kept := ns.live[:0]
		for _, ins := range ns.live {
			if ins.Src != op.Src || ins.Dst != op.Dst {
				kept = append(kept, ins)
			}
		}
		ns.live = kept
	}
}

// foldBatches folds whole batches in order.
func (ns *netState) foldBatches(batches []Batch) {
	for _, b := range batches {
		for _, op := range b.Ops {
			ns.fold(op)
		}
	}
}

// apply materializes the folded state over a base edge list: base edges
// whose pair is not deleted, in base order, followed by surviving inserts
// in insertion order. The deterministic order is what makes a recovered
// snapshot bit-identical to a clean apply — graph.FromEdges is stable
// within a CSR bucket.
func (ns *netState) apply(base []graph.Edge) []graph.Edge {
	out := make([]graph.Edge, 0, len(base)+len(ns.live))
	for _, e := range base {
		if _, gone := ns.deleted[pairKey(e.Src, e.Dst)]; !gone {
			out = append(out, e)
		}
	}
	for _, ins := range ns.live {
		out = append(out, graph.Edge{Src: ins.Src, Dst: ins.Dst, Wt: ins.Wt})
	}
	return out
}

// edits renders the folded state as graph.Patch's arguments: the deleted
// pairs (in no particular order) and the surviving inserts in insertion
// order.
func (ns *netState) edits() (deleted, appended []graph.Edge) {
	deleted = make([]graph.Edge, 0, len(ns.deleted))
	for k := range ns.deleted {
		deleted = append(deleted, graph.Edge{Src: graph.Vertex(k >> 32), Dst: graph.Vertex(k)})
	}
	appended = make([]graph.Edge, len(ns.live))
	for i, ins := range ns.live {
		appended[i] = graph.Edge{Src: ins.Src, Dst: ins.Dst, Wt: ins.Wt}
	}
	return deleted, appended
}

// ApplyOps is the clean-apply oracle: fold ops over a base edge list and
// return the mutated list. The chaos harness compares recovered
// snapshots against it.
func ApplyOps(base []graph.Edge, ops []Op) []graph.Edge {
	ns := newNetState()
	for _, op := range ops {
		ns.fold(op)
	}
	return ns.apply(base)
}

// Flatten turns a graph back into its edge list (out-direction order,
// weights preserved), the base form mutations apply to.
func Flatten(g *graph.Graph) []graph.Edge {
	edges := make([]graph.Edge, 0, g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		nbrs := g.OutNeighbors(graph.Vertex(v))
		wts := g.OutWeights(graph.Vertex(v))
		for j, u := range nbrs {
			e := graph.Edge{Src: graph.Vertex(v), Dst: u}
			if wts != nil {
				e.Wt = wts[j]
			}
			edges = append(edges, e)
		}
	}
	return edges
}

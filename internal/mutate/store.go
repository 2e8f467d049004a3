// The mutation store: one WAL + checkpoint pair per (dataset, scale)
// key, recovered lazily on first touch. Commit appends a batch, fsyncs
// (the commit point), then publishes the new sequence number; the serving
// layer materializes any committed prefix as an immutable copy-on-write
// graph snapshot via GraphAt, which the serve graph cache pins per
// in-flight request.

package mutate

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"polymer/internal/fault"
	"polymer/internal/graph"
)

// ErrClosed is returned by every operation after Close: a shutdown path
// that lost the drain race must still be able to close the store exactly
// once and have late requests fail cleanly instead of appending to a
// closed WAL.
var ErrClosed = errors.New("mutate: store closed")

// Options tunes a store; the zero value takes the defaults.
type Options struct {
	// CheckpointEvery folds the log into a durable checkpoint (and resets
	// the log) every N committed batches. 0 means the default of 8;
	// negative disables checkpointing.
	CheckpointEvery int
	// Crasher, when non-nil, injects simulated process kills at the
	// commit crash points (chaos tests).
	Crasher fault.Crasher
	// RecoverHook, when non-nil, is called with each key just before
	// RecoverAll replays it — a synchronization point for tests that need
	// to observe a server mid-recovery.
	RecoverHook func(key string)
}

// Store owns every per-key mutation log under one directory.
type Store struct {
	dir    string
	opt    Options
	mu     sync.Mutex
	closed bool
	keys   map[string]*keyState
	stats  StoreStats
}

// keyState is one (dataset, scale) stream, recovered from disk on first
// access and folded forward in memory on every commit.
type keyState struct {
	log *Log
	seq uint64 // last committed (published) batch
	// net is the fold of batches 1..seq, always current.
	net *netState
	// openSeq/openNet snapshot the recovered state at process open;
	// hist holds every batch committed or replayed after openSeq, so any
	// prefix a reader sampled can still be materialized.
	openSeq uint64
	openNet *netState
	hist    []Batch
	ckptSeq uint64 // last durable checkpoint
	durSeq  uint64 // last fsynced batch (== seq except across a crash)
	dead    bool
	// snap is the newest snapshot GraphAt materialized (prefix snapSeq over
	// snapBase): the next one is patched from it instead of folded from the
	// base. Its rows are in fold order because the first one was folded.
	snap     *graph.Graph
	snapSeq  uint64
	snapBase *graph.Graph
}

// StoreStats is the JSON form of store counters for /metricsz.
type StoreStats struct {
	Keys        int   `json:"keys"`
	Committed   int64 `json:"committed"`
	Ops         int64 `json:"ops"`
	Checkpoints int64 `json:"checkpoints"`
	Recovered   int64 `json:"recovered_batches"`
	Truncated   int64 `json:"truncated_tails"`
	// Snapshots GraphAt built by patching the retained predecessor, and by
	// folding the whole prefix over the base (first snapshot after open,
	// an older prefix, another base). Serving a retained snapshot counts
	// as neither.
	Patched int64 `json:"snapshots_patched"`
	Folded  int64 `json:"snapshots_folded"`
}

// Open prepares a store rooted at dir (created if absent). Per-key
// recovery happens on first touch of each key.
func Open(dir string, opt Options) (*Store, error) {
	if opt.CheckpointEvery == 0 {
		opt.CheckpointEvery = 8
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir, opt: opt, keys: make(map[string]*keyState)}, nil
}

// Key renders the on-disk identity of one (dataset, scale) stream.
func Key(dataset string, scale int) string { return fmt.Sprintf("%s@%d", dataset, scale) }

func (s *Store) walPath(key string) string  { return filepath.Join(s.dir, key+".wal") }
func (s *Store) ckptPath(key string) string { return filepath.Join(s.dir, key+".ckpt") }

// state returns the recovered keyState, running recovery on first touch:
// load the checkpoint (if any), replay log records past its sequence
// number, and verify the sequence numbers are contiguous.
func (s *Store) state(dataset string, scale int) (*keyState, error) {
	key := Key(dataset, scale)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if st, ok := s.keys[key]; ok {
		return st, nil
	}
	ckptSeq, ns, err := loadCheckpoint(s.ckptPath(key))
	if err != nil {
		return nil, err
	}
	l, batches, err := OpenLog(s.walPath(key))
	if err != nil {
		return nil, err
	}
	// openNet stays the pure checkpoint fold so every prefix in
	// [ckptSeq, seq] remains materializable; st.net folds forward.
	st := &keyState{log: l, seq: ckptSeq, ckptSeq: ckptSeq, openSeq: ckptSeq, openNet: ns, net: ns.clone()}
	for _, b := range batches {
		if b.Seq <= st.seq {
			continue // the checkpoint already folded this record in
		}
		if b.Seq != st.seq+1 {
			l.Close()
			return nil, fmt.Errorf("mutate: %s: log skips from batch %d to %d", key, st.seq, b.Seq)
		}
		for _, op := range b.Ops {
			st.net.fold(op)
		}
		st.hist = append(st.hist, b)
		st.seq = b.Seq
		s.stats.Recovered++
	}
	if l.truncated {
		s.stats.Truncated++
	}
	st.durSeq = st.seq
	s.keys[key] = st
	s.stats.Keys = len(s.keys)
	return st, nil
}

// Seq returns the current committed sequence number for a key (0 when
// nothing was ever committed). It is the dataset's snapshot version: the
// serving layer folds it into graph-cache keys so each commit publishes
// a distinct immutable snapshot.
func (s *Store) Seq(dataset string, scale int) (uint64, error) {
	st, err := s.state(dataset, scale)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return st.seq, nil
}

// Commit validates, appends, fsyncs and publishes one batch against a
// graph with n vertices. The returned sequence number identifies the
// snapshot that includes the batch. A fault.ErrCrashed return means an
// injected kill: the store is dead and the batch may or may not be
// durable — exactly the ambiguity recovery must resolve.
func (s *Store) Commit(dataset string, scale int, n int, ops []Op) (uint64, error) {
	if len(ops) == 0 {
		return 0, fmt.Errorf("mutate: empty batch")
	}
	if len(ops) > MaxBatchOps {
		return 0, fmt.Errorf("mutate: batch of %d ops exceeds the %d maximum", len(ops), MaxBatchOps)
	}
	for i, op := range ops {
		if op.Kind != OpInsert && op.Kind != OpDelete {
			return 0, fmt.Errorf("mutate: op %d has unknown kind %d", i, op.Kind)
		}
		if int(op.Src) >= n || int(op.Dst) >= n {
			return 0, fmt.Errorf("mutate: op %d edge (%d,%d) outside [0,%d)", i, op.Src, op.Dst, n)
		}
	}
	st, err := s.state(dataset, scale)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		// Close won the race between our state() lookup and this lock.
		return 0, ErrClosed
	}
	if st.dead {
		return 0, fault.ErrCrashed
	}
	seq := st.seq + 1
	if err := st.log.appendBatch(seq, ops, s.opt.Crasher); err != nil {
		if err == fault.ErrCrashed {
			st.dead = true
		}
		return 0, err
	}
	st.durSeq = seq
	if s.opt.Crasher != nil && s.opt.Crasher.Crash(fault.CrashBeforePublish, seq) {
		// The record is durable but the process dies before the new
		// snapshot becomes visible: recovery must still include it.
		st.dead = true
		st.log.dead = true
		return 0, fault.ErrCrashed
	}
	// Publish: after this, Seq and EdgesAt observe the batch.
	batch := Batch{Seq: seq, Ops: append([]Op(nil), ops...)}
	for _, op := range batch.Ops {
		st.net.fold(op)
	}
	st.hist = append(st.hist, batch)
	st.seq = seq
	s.stats.Committed++
	s.stats.Ops += int64(len(ops))
	if err := s.maybeCheckpointLocked(st, Key(dataset, scale)); err != nil {
		if err == fault.ErrCrashed {
			return 0, err
		}
		// A failed checkpoint does not un-commit the batch; the log still
		// holds it. Surface nothing — the next commit retries.
	}
	return seq, nil
}

// maybeCheckpointLocked folds the log into a durable checkpoint when it
// has grown CheckpointEvery batches past the last one, then resets the
// log. Ordering is the crash-safety argument: the checkpoint reaches
// disk (rename + dir fsync) before any log record is dropped.
func (s *Store) maybeCheckpointLocked(st *keyState, key string) error {
	if s.opt.CheckpointEvery < 0 || st.seq-st.ckptSeq < uint64(s.opt.CheckpointEvery) {
		return nil
	}
	if err := writeCheckpoint(s.ckptPath(key), st.seq, st.net); err != nil {
		return err
	}
	if s.opt.Crasher != nil && s.opt.Crasher.Crash(fault.CrashBeforeRotate, st.seq) {
		// Checkpoint durable, log not yet rotated: recovery must skip the
		// log records the checkpoint covers.
		st.dead = true
		st.log.dead = true
		return fault.ErrCrashed
	}
	if err := st.log.reset(); err != nil {
		return err
	}
	st.ckptSeq = st.seq
	s.stats.Checkpoints++
	return nil
}

// checkPrefix refuses a prefix that is not materializable: beyond the
// committed sequence, or older than the recovered checkpoint.
func (st *keyState) checkPrefix(dataset string, scale int, seq uint64) error {
	if seq > st.seq {
		return fmt.Errorf("mutate: %s@%d has no batch %d (committed: %d)", dataset, scale, seq, st.seq)
	}
	if seq < st.openSeq {
		return fmt.Errorf("mutate: %s@%d prefix %d predates the recovered checkpoint %d", dataset, scale, seq, st.openSeq)
	}
	return nil
}

// between returns the batches in (from, to], openSeq <= from <= to <= seq.
// hist is contiguous from openSeq+1 and its published elements are never
// rewritten, so the slice stays valid after the lock is dropped.
func (st *keyState) between(from, to uint64) []Batch {
	return st.hist[from-st.openSeq : to-st.openSeq]
}

// EdgesAt materializes the committed prefix through seq over a base edge
// list. seq must be a value Seq returned in this process (prefixes older
// than the recovered checkpoint are gone — nobody can have sampled them).
func (s *Store) EdgesAt(dataset string, scale int, seq uint64, base []graph.Edge) ([]graph.Edge, error) {
	st, err := s.state(dataset, scale)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if err := st.checkPrefix(dataset, scale, seq); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	var ns *netState
	if seq == st.seq {
		ns = st.net.clone()
	} else {
		ns = st.openNet.clone()
		ns.foldBatches(st.between(st.openSeq, seq))
	}
	s.mu.Unlock()
	return ns.apply(base), nil
}

// GraphAt materializes the committed prefix through seq as an immutable
// graph over base's vertex set (weights kept iff base is weighted). seq == 0
// returns base itself: no mutations, no copy.
//
// The store keeps the newest snapshot it built per key. Asking for it again
// returns it; asking for a later prefix over the same base folds only the
// batches committed since into a delta and patches the retained snapshot
// forward (graph.Patch). Everything else — the first snapshot after open or
// recovery, a prefix older than the retained one (an isolation reader), a
// different base graph — is the whole-prefix fold EdgesAt + FromEdges, which
// is also what puts a generated base's rows into the order Patch relies on.
// Both paths yield the same arrays; the retained snapshot never moves
// backwards. Callers share the returned graph and must not modify it.
func (s *Store) GraphAt(dataset string, scale int, seq uint64, base *graph.Graph) (*graph.Graph, error) {
	if seq == 0 {
		return base, nil
	}
	st, err := s.state(dataset, scale)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if err := st.checkPrefix(dataset, scale, seq); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	prev := st.snap
	patch := prev != nil && st.snapBase == base && st.snapSeq <= seq
	var delta []Batch
	if patch {
		delta = st.between(st.snapSeq, seq)
	}
	s.mu.Unlock()

	var g *graph.Graph
	switch {
	case patch && len(delta) == 0:
		return prev, nil
	case patch:
		ns := newNetState()
		ns.foldBatches(delta)
		g = prev.Patch(ns.edits())
	default:
		edges, err := s.EdgesAt(dataset, scale, seq, Flatten(base))
		if err != nil {
			return nil, err
		}
		g = graph.FromEdges(base.NumVertices(), edges, base.Weighted())
	}

	s.mu.Lock()
	if patch {
		s.stats.Patched++
	} else {
		s.stats.Folded++
	}
	if st.snap == nil || seq >= st.snapSeq {
		st.snap, st.snapSeq, st.snapBase = g, seq, base
	}
	s.mu.Unlock()
	return g, nil
}

// Stats snapshots the store counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// RecoverAll eagerly replays every key with state on disk (a WAL, a
// checkpoint, or both), so a restarted server can refuse readiness until
// recovery is complete instead of paying replay latency on first-touch
// requests. Safe to run concurrently with serving: each key recovers
// under the store lock exactly as lazy first-touch recovery would.
func (s *Store) RecoverAll() error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrClosed
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	seen := make(map[string]bool)
	var keys []string
	for _, e := range entries {
		name := e.Name()
		var key string
		switch {
		case strings.HasSuffix(name, ".wal"):
			key = strings.TrimSuffix(name, ".wal")
		case strings.HasSuffix(name, ".ckpt"):
			key = strings.TrimSuffix(name, ".ckpt")
		default:
			continue
		}
		if !seen[key] {
			seen[key] = true
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	var first error
	for _, key := range keys {
		dataset, scale, ok := parseKey(key)
		if !ok {
			continue // not one of ours; leave the file alone
		}
		if s.opt.RecoverHook != nil {
			s.opt.RecoverHook(key)
		}
		if _, err := s.state(dataset, scale); err != nil && first == nil {
			first = fmt.Errorf("mutate: recover %s: %w", key, err)
		}
	}
	return first
}

// parseKey inverts Key: "twitter@1" -> ("twitter", 1).
func parseKey(key string) (dataset string, scale int, ok bool) {
	i := strings.LastIndex(key, "@")
	if i <= 0 {
		return "", 0, false
	}
	n, err := strconv.Atoi(key[i+1:])
	if err != nil {
		return "", 0, false
	}
	return key[:i], n, true
}

// Close releases every open log and marks the store closed: all later
// operations — including commits that were racing the close — return
// ErrClosed instead of appending to a closed WAL. Close is idempotent,
// so a shutdown path that lost the graceful-drain race can still call it
// unconditionally. The retained snapshots go with the key states.
// Durability needs no flush here: every committed batch
// was fsynced at its commit point, so the WAL replays cleanly on reopen.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for _, st := range s.keys {
		if err := st.log.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.keys = map[string]*keyState{}
	return first
}

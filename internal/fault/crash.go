// Crash-point injection for the durability layer. Compute faults (the
// rest of this package) are recoverable inside one process: a superstep
// rolls back and replays. A crash kills the process itself, so the only
// recovery witness is what reached disk — the mutation log consults a
// Crasher at each point where a real kill would leave a distinct on-disk
// state, and a planned crash makes the store die there deterministically.
// The chaos harness then reopens the directory and verifies recovery.

package fault

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrCrashed is returned by an operation that died at an injected crash
// point. The store that returned it is dead: every later operation on it
// fails, exactly as if the process had been killed. Recovery means
// reopening the on-disk state.
var ErrCrashed = errors.New("fault: simulated process kill")

// CrashPoint identifies one instant during a mutation commit where a
// process kill leaves a distinct on-disk state.
type CrashPoint int

const (
	// CrashMidRecord kills the process while the log record's bytes are
	// partially written: recovery sees a torn tail and must truncate it.
	CrashMidRecord CrashPoint = iota
	// CrashBeforeFsync kills after the record is fully written but before
	// fsync: the bytes may or may not survive, and either outcome must
	// recover to a clean prefix.
	CrashBeforeFsync
	// CrashBeforePublish kills after the record is durable but before the
	// in-memory snapshot publish and generation bump: the client saw an
	// error, yet recovery must include the batch (it is committed on disk).
	CrashBeforePublish
	// CrashBeforeRotate kills after a checkpoint is durable but before the
	// log is rotated: recovery must skip the log records the checkpoint
	// already folded in.
	CrashBeforeRotate
)

// String names the point the way the chaos harness logs it.
func (p CrashPoint) String() string {
	switch p {
	case CrashMidRecord:
		return "mid-record"
	case CrashBeforeFsync:
		return "before-fsync"
	case CrashBeforePublish:
		return "before-publish"
	case CrashBeforeRotate:
		return "before-rotate"
	}
	return fmt.Sprintf("CrashPoint(%d)", int(p))
}

// CrashPoints is the full injection matrix, in commit order.
func CrashPoints() []CrashPoint {
	return []CrashPoint{CrashMidRecord, CrashBeforeFsync, CrashBeforePublish, CrashBeforeRotate}
}

// Crasher decides whether to simulate a process kill at a crash point.
// seq is the sequence number of the batch being committed (for
// CrashBeforeRotate, the batch whose commit triggered the checkpoint).
type Crasher interface {
	Crash(p CrashPoint, seq uint64) bool
}

// PlannedCrash fires exactly once, at one (point, seq) pair. The zero
// value never fires.
type PlannedCrash struct {
	Point CrashPoint
	Seq   uint64
	fired atomic.Bool
}

// Crash reports (once) whether this is the planned kill instant.
func (c *PlannedCrash) Crash(p CrashPoint, seq uint64) bool {
	if c == nil || p != c.Point || seq != c.Seq || c.fired.Load() {
		return false
	}
	return c.fired.CompareAndSwap(false, true)
}

// Fired reports whether the planned kill happened.
func (c *PlannedCrash) Fired() bool { return c.fired.Load() }

package sg

import (
	"math"
	"testing"

	"polymer/internal/barrier"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
)

func testBase(t *testing.T) *Base {
	t.Helper()
	n, edges := gen.Star(10)
	b := &Base{}
	if err := b.Init("test", graph.FromEdges(n, edges, false), numa.NewMachine(numa.IntelXeon80(), 3, 2), nil); err != nil {
		t.Fatal(err)
	}
	return b
}

// chargeTestPhase folds one phase into b: a node-uniform part and a part
// that differs per thread, as an engine's edge and vertex phases do.
func chargeTestPhase(b *Base, scale int64, kind barrier.Kind) (dur, sync float64) {
	ep := b.M.NewEpoch()
	ep.ChargeNodes(func(th, node int) {
		ep.Access(th, numa.Seq, numa.Load, (node+1)%b.M.Nodes, 1000*scale, 8, 0)
		ep.AccessInterleaved(th, numa.Rand, numa.Store, 300*scale, 4, 1<<30)
	})
	for th := 0; th < b.M.Threads(); th++ {
		ep.LatencyBound(th, numa.Store, 0, int64(th)*scale)
		ep.Compute(th, float64(th)*1e-7)
	}
	return b.ChargePhase(ep, kind)
}

// The checkpoint copies the run ledger out and back; nothing a rolled-back
// phase charged may survive, in any thread's any field.
func TestSnapshotRestoreLedger(t *testing.T) {
	b := testBase(t)
	chargeTestPhase(b, 1, barrier.N)
	want, clock := b.Ledger.Clone(), b.Clock

	for round := int64(2); round <= 3; round++ { // the second round reuses the snapshot slot
		b.SnapshotSim()
		chargeTestPhase(b, round, barrier.H)
		if b.Ledger.Equal(want) || b.Clock == clock {
			t.Fatal("the phase under test charged nothing")
		}
		b.RestoreSim()
		if !b.Ledger.Equal(want) {
			t.Fatalf("round %d: run ledger differs after rollback", round)
		}
		if b.Clock != clock {
			t.Fatalf("round %d: clock %v after rollback, want %v", round, b.Clock, clock)
		}
	}
}

// ChargePhase reads the barrier cost Init computed; it must be the value
// barrier.SyncCost gives, to the bit, for every kind.
func TestChargePhaseSyncCost(t *testing.T) {
	b := testBase(t)
	for _, kind := range []barrier.Kind{barrier.P, barrier.H, barrier.N} {
		before := b.Clock
		dur, sync := chargeTestPhase(b, 1, kind)
		want := barrier.SyncCost(kind, b.M.Nodes) / b.M.Topo.SyncScale
		if math.Float64bits(sync) != math.Float64bits(want) {
			t.Errorf("%v: sync %v, want %v", kind, sync, want)
		}
		if dur <= sync || b.Clock != before+dur {
			t.Errorf("%v: dur %v (sync %v) moved the clock from %v to %v", kind, dur, sync, before, b.Clock)
		}
	}
}

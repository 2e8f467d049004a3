package numa_test

// Shared rows over whole runs: an epoch whose nodes share their first
// thread's rows (ChargeNodes) must read, at every step of a run, exactly
// what an epoch charged thread by thread reads — through phases that mix
// balanced and per-thread charges, resets, folds into a run ledger and
// snapshot-restores of it.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"polymer/internal/mem"
	"polymer/internal/numa"
)

// ledgers is one side of a trajectory: a phase epoch, the run ledger it is
// folded into, a snapshot of the run ledger, and the tier classes charges
// go through.
type ledgers struct {
	plan          *mem.TierPlan
	classes       [3]*mem.TierClass
	ep, run, snap *numa.Epoch
}

func newLedgers(m *numa.Machine) *ledgers {
	plan, classes := tierClasses(m)
	return &ledgers{plan: plan, classes: classes, ep: m.NewEpoch(), run: m.NewEpoch()}
}

func TestSharedRowsMatchPerThreadLedger(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := randomMachine(t, rng)
		byNode, loop := newLedgers(m), newLedgers(m)
		both := func(fn func(s *ledgers)) { fn(byNode); fn(loop) }
		perThread := func(s *ledgers, ops []chargeOp) {
			for th := 0; th < m.Threads(); th++ {
				apply(ops, s.ep, s.classes, th, m.NodeOfThread(th))
			}
		}
		// uniform reports that every node's threads hold equal ledgers in
		// the phase epoch: ChargeNodes' precondition.
		uniform := true
		for step := 0; step < 40; step++ {
			var what string
			switch rng.Intn(8) {
			case 0, 1:
				what = "balanced phase"
				if !uniform {
					both(func(s *ledgers) { s.ep.Reset() })
					uniform = true
				}
				ops := randomRecipe(rng, m.Nodes)
				byNode.ep.ChargeNodes(func(th, node int) { apply(ops, byNode.ep, byNode.classes, th, node) })
				perThread(loop, ops)
			case 2:
				what = "the same per-thread charge on every thread"
				ops := randomRecipe(rng, m.Nodes)
				both(func(s *ledgers) { perThread(s, ops) })
			case 3:
				th := rng.Intn(m.Threads())
				what = fmt.Sprintf("a charge to thread %d alone", th)
				ops := randomRecipe(rng, m.Nodes)
				both(func(s *ledgers) { apply(ops, s.ep, s.classes, th, m.NodeOfThread(th)) })
				uniform = uniform && m.CoresPerNode == 1
			case 4:
				what = "the promotion pass"
				both(func(s *ledgers) { s.plan.Step(s.ep) })
				if !reflect.DeepEqual(byNode.plan.Migrations(), loop.plan.Migrations()) {
					t.Fatalf("seed %d step %d: migrations %v != %v", seed, step, byNode.plan.Migrations(), loop.plan.Migrations())
				}
				uniform = uniform && m.CoresPerNode == 1
			case 5:
				what = "reset"
				both(func(s *ledgers) { s.ep.Reset() })
				uniform = true
			case 6:
				what = "fold into the run ledger"
				both(func(s *ledgers) { s.run.Add(s.ep) })
			default:
				what = "snapshot or restore of the run ledger"
				both(func(s *ledgers) {
					switch {
					case s.snap == nil:
						s.snap = s.run.Clone()
					case step%2 == 0:
						s.run.CopyFrom(s.snap)
					default:
						s.snap.CopyFrom(s.run)
					}
				})
				if byNode.snap != nil {
					compareLedgers(t, fmt.Sprintf("seed %d on %v, step %d (%s), snapshot", seed, m, step, what), byNode.snap, loop.snap)
				}
			}
			compareLedgers(t, fmt.Sprintf("seed %d on %v, step %d (%s), phase epoch", seed, m, step, what), byNode.ep, loop.ep)
			compareLedgers(t, fmt.Sprintf("seed %d on %v, step %d (%s), run ledger", seed, m, step, what), byNode.run, loop.run)
		}
	}
}

// chargeEdgePhase is a balanced edge phase's recipe for one node, shaped
// like Polymer's push charge: local topology streaming, a sequential read
// of every owner's state and data, random local writes, sparse extras.
func chargeEdgePhase(ep *numa.Epoch, th, node int) {
	ep.Access(th, numa.Seq, numa.Load, node, 40, 12, 0)
	ep.Access(th, numa.Seq, numa.Load, node, 120, 8, 0)
	for o := 0; o < ep.Machine().Nodes; o++ {
		ep.Access(th, numa.Seq, numa.Load, o, 5, 1, 0)
		ep.Access(th, numa.Seq, numa.Load, o, 3, 8, 0)
	}
	ep.Access(th, numa.Rand, numa.Store, node, 120, 8, 1<<20)
	ep.Access(th, numa.Rand, numa.Store, node, 30, 1, 1<<17)
	ep.Access(th, numa.Rand, numa.Load, node, 30, 4, 1<<20)
	ep.Access(th, numa.Seq, numa.Store, node, 30, 4, 0)
	ep.Compute(th, 1e-6)
}

// foldBalanced is one balanced phase from reset to fold: Reset,
// ChargeNodes, Time, Add into the run ledger.
func foldBalanced(ep, run *numa.Epoch, charge func(th, node int)) float64 {
	ep.Reset()
	ep.ChargeNodes(charge)
	t := ep.Time()
	run.Add(ep)
	return t
}

// foldPerThread is one per-thread phase, a VertexMap's shape: every
// thread charges what it visited, which splits every node.
func foldPerThread(ep, run *numa.Epoch) float64 {
	ep.Reset()
	m := ep.Machine()
	for th := 0; th < m.Threads(); th++ {
		visited := int64(10 + th)
		ep.Access(th, numa.Seq, numa.Load, m.NodeOfThread(th), visited, 20, 0)
		ep.Compute(th, float64(visited)*2e-9)
	}
	t := ep.Time()
	run.Add(ep)
	return t
}

// Folding a phase allocates nothing, whether its nodes stay shared or
// split.
func TestPhaseFoldDoesNotAllocate(t *testing.T) {
	m := numa.NewMachine(numa.IntelXeon80(), 8, 10)
	ep, run := m.NewEpoch(), m.NewEpoch()
	charge := func(th, node int) { chargeEdgePhase(ep, th, node) }
	if n := testing.AllocsPerRun(10, func() { foldBalanced(ep, run, charge) }); n != 0 {
		t.Fatalf("a balanced phase fold allocated %.0f objects", n)
	}
	if n := testing.AllocsPerRun(10, func() { foldPerThread(ep, run) }); n != 0 {
		t.Fatalf("a per-thread phase fold allocated %.0f objects", n)
	}
}

var foldSink float64

// BenchmarkPhaseFold times one phase from reset to fold into a run ledger
// on the 8x10 machine: a balanced edge phase charged once per node, and a
// per-thread vertex phase that splits every node.
func BenchmarkPhaseFold(b *testing.B) {
	m := numa.NewMachine(numa.IntelXeon80(), 8, 10)
	b.Run("balanced-edge", func(b *testing.B) {
		ep, run := m.NewEpoch(), m.NewEpoch()
		charge := func(th, node int) { chargeEdgePhase(ep, th, node) }
		for b.Loop() {
			foldSink += foldBalanced(ep, run, charge)
		}
	})
	b.Run("per-thread-vertex", func(b *testing.B) {
		ep, run := m.NewEpoch(), m.NewEpoch()
		for b.Loop() {
			foldSink += foldPerThread(ep, run)
		}
	})
}

package numa_test

// ChargeNodes against the loop it replaces: for seeded random charge
// recipes, charging once per node into shared rows must leave the ledger —
// and everything read from it — bit for bit what charging every thread
// does. The recipes go through mem.TierClass, as the engines' do, so the
// tiered half also holds the promotion pass that follows to the same
// standard (the byte tally that pass ranks by is compared in package mem,
// which can see it).

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"polymer/internal/mem"
	"polymer/internal/numa"
)

// chargeOp is one line of a recipe. A thread enters only through its node:
// own selects the thread's node as the target instead of node.
type chargeOp struct {
	kind      int // 0 Access, 1 AccessInterleaved, 2 LatencyBound, 3 Compute
	class     int // demand class index
	p         numa.Pattern
	op        numa.Op
	own       bool
	node      int
	count     int64
	elemBytes int
	ws        int64
	seconds   float64
}

func randomRecipe(rng *rand.Rand, nodes int) []chargeOp {
	ops := make([]chargeOp, 4+rng.Intn(20))
	for i := range ops {
		o := chargeOp{
			kind:      rng.Intn(4),
			class:     rng.Intn(3),
			p:         numa.Pattern(rng.Intn(2)),
			op:        numa.Op(rng.Intn(2)),
			own:       rng.Intn(2) == 0,
			node:      rng.Intn(nodes),
			count:     rng.Int63n(1 << uint(1+rng.Intn(22))),
			elemBytes: 1 + rng.Intn(16),
			seconds:   rng.Float64() * 1e-4,
		}
		if rng.Intn(3) > 0 {
			o.ws = rng.Int63n(1 << 28)
		}
		if rng.Intn(8) == 0 {
			o.count = 0
		}
		ops[i] = o
	}
	return ops
}

// apply charges the recipe to thread th of node; classes[i] is nil on an
// untiered machine (the wrappers then forward to the epoch).
func apply(ops []chargeOp, ep *numa.Epoch, classes [3]*mem.TierClass, th, node int) {
	for _, o := range ops {
		target := o.node
		if o.own {
			target = node
		}
		c := classes[o.class]
		switch o.kind {
		case 0:
			c.Access(ep, th, o.p, o.op, target, o.count, o.elemBytes, o.ws)
		case 1:
			c.AccessInterleaved(ep, th, o.p, o.op, o.count, o.elemBytes, o.ws)
		case 2:
			c.LatencyBound(ep, th, o.op, target, o.count)
		default:
			ep.Compute(th, o.seconds)
		}
	}
}

// tierClasses registers three demand classes that overflow the machine's
// DRAM, so every tiered charge splits between the banks. Nil on an
// untiered machine.
func tierClasses(m *numa.Machine) (*mem.TierPlan, [3]*mem.TierClass) {
	tp := mem.NewTierPlan(m)
	var cs [3]*mem.TierClass
	for i, spec := range []mem.ClassSpec{
		{Label: "frontier", Pinned: true},
		{Label: "state", Priority: 0, HotMass: func(f float64) float64 { return math.Sqrt(f) }},
		{Label: "topology", Priority: 1},
	} {
		spec.BytesPerNode = make([]int64, m.Nodes)
		for n := range spec.BytesPerNode {
			spec.BytesPerNode[n] = int64(1+i+n) << 18
		}
		cs[i] = tp.AddClass(spec)
	}
	return tp, cs
}

// randomMachine draws one machine of the test matrix: CoresPerNode 1, 2
// or 10; the default socket pick or a leased socket set; sometimes a
// degraded link; tiered (hot or interleave) or untiered.
func randomMachine(t *testing.T, rng *rand.Rand) *numa.Machine {
	t.Helper()
	topo := numa.IntelXeon80()
	sockets := [][]int{nil, {0}, {1, 4, 6}, {7, 2, 5, 0, 3}}
	cpn := []int{1, 2, 10}[rng.Intn(3)]
	var m *numa.Machine
	if set := sockets[rng.Intn(len(sockets))]; set == nil {
		m = numa.NewMachine(topo, 1+rng.Intn(topo.Sockets), cpn)
	} else {
		var err error
		if m, err = numa.NewMachineOnSockets(topo, set, cpn); err != nil {
			t.Fatal(err)
		}
	}
	if m.Nodes > 1 && rng.Intn(3) == 0 {
		if err := m.DegradeLink(0, m.Nodes-1, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if rng.Intn(2) == 0 {
		tc := numa.TierConfig{DRAMPerNode: 1 << 19, Policy: numa.TierHot, PromoteEvery: 1}
		if rng.Intn(3) == 0 {
			tc.Policy = numa.TierInterleave
		}
		if err := m.SetTierConfig(tc); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// compareLedgers fails unless got and want hold the same ledger and read
// the same bits through every reader: Equal, Time, Stats, Traffic and
// every thread's ThreadSeconds.
func compareLedgers(t *testing.T, where string, got, want *numa.Epoch) {
	t.Helper()
	if !got.Equal(want) {
		t.Fatalf("%s: ledgers differ", where)
	}
	if a, b := got.Time(), want.Time(); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("%s: Time %v != %v", where, a, b)
	}
	if a, b := got.Stats(), want.Stats(); a != b {
		t.Fatalf("%s: Stats %+v != %+v", where, a, b)
	}
	var ta, tb numa.TrafficMatrix
	got.Traffic(&ta)
	want.Traffic(&tb)
	if !reflect.DeepEqual(ta, tb) {
		t.Fatalf("%s: Traffic differs", where)
	}
	for th := 0; th < got.Machine().Threads(); th++ {
		if a, b := got.ThreadSeconds(th), want.ThreadSeconds(th); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: ThreadSeconds(%d) %v != %v", where, th, a, b)
		}
	}
}

func TestChargeNodesMatchesPerThreadLoop(t *testing.T) {
	for seed := int64(1); seed <= 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := randomMachine(t, rng)
		ops := randomRecipe(rng, m.Nodes)

		loopPlan, loopClasses := tierClasses(m)
		loop := m.NewEpoch()
		for th := 0; th < m.Threads(); th++ {
			apply(ops, loop, loopClasses, th, m.NodeOfThread(th))
		}
		nodePlan, nodeClasses := tierClasses(m)
		byNode := m.NewEpoch()
		byNode.ChargeNodes(func(th, node int) { apply(ops, byNode, nodeClasses, th, node) })

		compareLedgers(t, fmt.Sprintf("seed %d on %v, after charging", seed, m), byNode, loop)

		// The promotion pass ranks classes by the bytes tallied beside the
		// ledger and charges its migrations into the epoch: same decisions,
		// same ledger. A no-op on untiered machines.
		loopPlan.Step(loop)
		nodePlan.Step(byNode)
		if !reflect.DeepEqual(nodePlan.Migrations(), loopPlan.Migrations()) {
			t.Fatalf("seed %d: migrations %v != %v", seed, nodePlan.Migrations(), loopPlan.Migrations())
		}
		compareLedgers(t, fmt.Sprintf("seed %d on %v, after the promotion pass", seed, m), byNode, loop)
	}
}

// ChargeWeight is what a layer with its own per-thread tally scales by; it
// must not outlive the callback, even one that panics. A callback that
// charges a thread other than the one it was handed panics: the charge
// would otherwise be lost, or land in another node's shared rows.
func TestChargeWeightScopedToCallback(t *testing.T) {
	m := numa.NewMachine(numa.IntelXeon80(), 2, 10)
	ep := m.NewEpoch()
	if w := ep.ChargeWeight(); w != 1 {
		t.Fatalf("weight outside ChargeNodes = %d, want 1", w)
	}
	ep.ChargeNodes(func(int, int) {
		if w := ep.ChargeWeight(); w != 10 {
			t.Fatalf("weight inside ChargeNodes = %d, want 10", w)
		}
	})
	panics := func(fn func(th, node int)) (msg any) {
		defer func() { msg = recover() }()
		ep.ChargeNodes(fn)
		return nil
	}
	if panics(func(int, int) { panic("charge failed") }) == nil {
		t.Fatal("a panicking callback did not panic")
	}
	if w := ep.ChargeWeight(); w != 1 {
		t.Fatalf("weight after a panicking callback = %d, want 1", w)
	}

	for _, stray := range []struct {
		name   string
		charge func(th, node int)
	}{
		{"a sibling thread", func(th, _ int) { ep.Access(th+1, numa.Seq, numa.Load, 0, 100, 8, 0) }},
		{"the next node's first thread", func(th, _ int) { ep.LatencyBound(th+m.CoresPerNode, numa.Store, 1, 100) }},
		{"a thread's compute", func(th, _ int) { ep.Compute(th+3, 1e-6) }},
	} {
		ep.Reset()
		if panics(stray.charge) == nil {
			t.Fatalf("a callback charging %s did not panic", stray.name)
		}
		if w := ep.ChargeWeight(); w != 1 {
			t.Fatalf("weight after charging %s = %d, want 1", stray.name, w)
		}
		// The epoch still takes per-thread charges after the panic.
		ep.Reset()
		ep.Access(1, numa.Seq, numa.Load, 0, 100, 8, 0)
		if ep.ThreadSeconds(1) == 0 || ep.ThreadSeconds(0) != 0 {
			t.Fatalf("after charging %s: a per-thread charge landed on the wrong thread", stray.name)
		}
	}
}

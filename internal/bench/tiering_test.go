package bench

import (
	"context"

	"encoding/json"
	"testing"

	"polymer/internal/fault"
	"polymer/internal/gen"
	"polymer/internal/numa"
)

// tierSweepFixture runs the standard smoke sweep: powerlaw at Tiny
// scale, both sweep algorithms, the three canonical DRAM fractions.
func tierSweepFixture(t *testing.T) *TierSweep {
	t.Helper()
	g, err := gen.Load(gen.PowerLaw, gen.Tiny, false)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := RunTierSweep("powerlaw/tiny", g, numa.IntelXeon80(), 4, 2,
		[]Algo{PR, BFS}, []float64{0.75, 0.5, 0.25}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// TestTierSweepGate is the in-tree half of the nightly acceptance: hot
// placement must beat naive interleave on simulated time whenever at
// most half the footprint fits in DRAM, for PR and BFS, and no tiered
// run may beat the untiered clock.
func TestTierSweepGate(t *testing.T) {
	ts := tierSweepFixture(t)
	t.Log("\n" + FormatTierSweep(ts))
	if err := ts.Gate(); err != nil {
		t.Fatal(err)
	}
	if len(ts.Rows) != 6 {
		t.Fatalf("sweep produced %d rows, want 6", len(ts.Rows))
	}
	for _, r := range ts.Rows {
		if r.Hot.SlowRate <= 0 || r.Interleave.SlowRate <= 0 {
			t.Errorf("%s@%.2f: constrained run reported no slow-tier traffic", r.Algo, r.Frac)
		}
	}
}

// TestTierSweepDeterminism: two sweeps must agree bit-for-bit on every
// row.
func TestTierSweepDeterminism(t *testing.T) {
	a, b := tierSweepFixture(t), tierSweepFixture(t)
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Errorf("row %d diverged across identical sweeps:\n%+v\n%+v", i, a.Rows[i], b.Rows[i])
		}
	}
}

// TestTierBaselineCompare: a sweep passes against itself and fails
// against an inflated baseline.
func TestTierBaselineCompare(t *testing.T) {
	ts := tierSweepFixture(t)
	out, err := MarshalTierSweep(ts)
	if err != nil {
		t.Fatal(err)
	}
	var back TierSweep
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if err := CompareTierBaseline(ts, &back, 0.8); err != nil {
		t.Fatalf("sweep failed against its own baseline: %v", err)
	}
	for i := range back.Rows {
		back.Rows[i].HotSpeedup *= 10
	}
	if err := CompareTierBaseline(ts, &back, 0.8); err == nil {
		t.Fatal("inflated baseline not detected")
	}
}

// TestTieredResilientRollback: a fault rolled back at step 0 — before
// the engine's lazy layout/agent allocations have committed a tier fill
// — must not disturb the tier split for the rest of the run. The replay
// of a repaired step is bit-identical to a fault-free run, so the
// whole-run slow-tier traffic and clock must match the clean run
// exactly. (Regression: restoring a pre-growth tier snapshot used to
// leave every class fully resident, zeroing slow-tier traffic for the
// entire run.)
func TestTieredResilientRollback(t *testing.T) {
	g, err := gen.Load(gen.PowerLaw, gen.Tiny, false)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *numa.Machine {
		m := numa.NewMachine(numa.IntelXeon80(), 4, 2)
		if err := m.SetTierConfig(numa.TierConfig{DRAMPerNode: 20000, Policy: numa.TierInterleave}); err != nil {
			t.Fatal(err)
		}
		return m
	}
	run := func(spec string) (RunResult, ResilienceReport) {
		var inj *fault.Injector
		if spec != "" {
			evs, err := fault.ParseSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			inj = fault.NewInjector(evs)
		}
		r, rep, err := RunResilientCtx(context.Background(), Polymer, PR, g, mk, inj, ResilientOptions{SessionRetries: -1})
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		return r, rep
	}
	clean, _ := run("")
	if clean.Stats.SlowCount == 0 {
		t.Fatal("clean tiered run reported no slow-tier traffic")
	}
	for _, spec := range []string{"link@0:n1-n0*0.5", "panic@0:t1"} {
		r, rep := run(spec)
		if rep.Rollbacks == 0 {
			t.Fatalf("%q: expected a rollback", spec)
		}
		if r.Stats.SlowCount != clean.Stats.SlowCount {
			t.Errorf("%q: slow-tier count %d != clean run's %d", spec, r.Stats.SlowCount, clean.Stats.SlowCount)
		}
		if r.SimSeconds != clean.SimSeconds {
			t.Errorf("%q: clock %v != clean run's %v", spec, r.SimSeconds, clean.SimSeconds)
		}
	}
}

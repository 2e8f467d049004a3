package numa

import (
	"errors"
	"testing"
)

// TestDegradedLinkInflatesTime checks a degraded link slows remote traffic
// across it and that repairing restores the exact healthy charge — the
// property transient-fault replay relies on.
func TestDegradedLinkInflatesTime(t *testing.T) {
	m := NewMachine(IntelXeon80(), 2, 2)
	charge := func() float64 {
		ep := m.NewEpoch()
		// Thread 0 (node 0) streaming from node 1: pure remote traffic.
		ep.Access(0, Seq, Load, 1, 1<<20, 8, 0)
		return ep.Time()
	}
	healthy := charge()
	if healthy <= 0 {
		t.Fatalf("healthy charge %g", healthy)
	}
	if err := m.DegradeLink(0, 1, 0.25); err != nil {
		t.Fatal(err)
	}
	if !m.Degraded() {
		t.Fatal("Degraded() false after DegradeLink")
	}
	slow := charge()
	if slow <= healthy {
		t.Fatalf("degraded link did not slow remote traffic: %g vs %g", slow, healthy)
	}
	m.RepairLink(0, 1)
	if m.Degraded() {
		t.Fatal("Degraded() true after RepairLink")
	}
	if got := charge(); got != healthy {
		t.Fatalf("repaired charge %g != healthy %g (replay would not be bit-identical)", got, healthy)
	}
}

func TestDegradeLinkValidation(t *testing.T) {
	m := NewMachine(IntelXeon80(), 2, 2)
	if err := m.DegradeLink(0, 5, 0.5); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if err := m.DegradeLink(0, 1, 0); err == nil {
		t.Fatal("zero factor accepted")
	}
	if err := m.DegradeLink(0, 1, 1.5); err == nil {
		t.Fatal("factor > 1 accepted")
	}
}

// TestWorstLinkScaleInterleaved checks interleaved traffic pays the most
// degraded link touching the issuing node.
func TestWorstLinkScaleInterleaved(t *testing.T) {
	m := NewMachine(IntelXeon80(), 4, 2)
	charge := func() float64 {
		ep := m.NewEpoch()
		ep.AccessInterleaved(0, Seq, Load, 1<<20, 8, 0)
		return ep.Time()
	}
	healthy := charge()
	if err := m.DegradeLink(0, 3, 0.2); err != nil {
		t.Fatal(err)
	}
	if slow := charge(); slow <= healthy {
		t.Fatalf("interleaved charge ignored degraded link: %g vs %g", slow, healthy)
	}
	m.RepairAllLinks()
	if got := charge(); got != healthy {
		t.Fatalf("RepairAllLinks did not restore charge: %g vs %g", got, healthy)
	}
}

func TestSetNodeOffline(t *testing.T) {
	m := NewMachine(IntelXeon80(), 2, 2)
	if m.NodeOffline(0) {
		t.Fatal("fresh machine reports node offline")
	}
	if err := m.SetNodeOffline(1, true); err != nil {
		t.Fatal(err)
	}
	if !m.NodeOffline(1) || m.NodeOffline(0) {
		t.Fatal("offline flag misplaced")
	}
	if err := m.SetNodeOffline(1, false); err != nil {
		t.Fatal(err)
	}
	if m.NodeOffline(1) {
		t.Fatal("node still offline after clearing")
	}
	if err := m.SetNodeOffline(9, true); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

func TestAllocFailNext(t *testing.T) {
	a := NewAllocTracker()
	if err := a.Grow("x", 100); err != nil {
		t.Fatal(err)
	}
	a.FailNext("")
	err := a.Grow("x", 50)
	if err == nil {
		t.Fatal("armed failure did not fire")
	}
	var af *AllocFailure
	if !errors.As(err, &af) {
		t.Fatalf("want *AllocFailure, got %T: %v", err, err)
	}
	if a.Current() != 100 {
		t.Fatalf("failed Grow changed accounting: %d", a.Current())
	}
	// The failure is one-shot.
	if err := a.Grow("x", 50); err != nil {
		t.Fatalf("second Grow after fired failure: %v", err)
	}
	// ClearFailure disarms an unfired one.
	a.FailNext("")
	a.ClearFailure()
	if err := a.Grow("x", 1); err != nil {
		t.Fatalf("Grow after ClearFailure: %v", err)
	}
}

// TestAllocFailNextLabel checks a labelled failure only fires on the
// matching allocation site.
func TestAllocFailNextLabel(t *testing.T) {
	a := NewAllocTracker()
	a.FailNext("target")
	if err := a.Grow("other", 10); err != nil {
		t.Fatalf("mismatched label fired: %v", err)
	}
	if err := a.Grow("target", 10); err == nil {
		t.Fatal("matching label did not fire")
	}
}

func TestNewMachineChecked(t *testing.T) {
	topo := IntelXeon80()
	if _, err := NewMachineChecked(topo, 2, 2); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][2]int{{0, 2}, {2, 0}, {-1, 2}, {topo.Sockets + 1, 2}, {2, topo.CoresPerSocket + 1}} {
		if _, err := NewMachineChecked(topo, bad[0], bad[1]); err == nil {
			t.Errorf("NewMachineChecked(%d, %d) accepted invalid shape", bad[0], bad[1])
		}
	}
}

// TestEpochCopyFrom checks the snapshot/rollback primitive the resilience
// layer uses: CopyFrom must make charges after the snapshot disappear.
func TestEpochCopyFrom(t *testing.T) {
	m := NewMachine(IntelXeon80(), 2, 2)
	ep := m.NewEpoch()
	ep.Access(0, Seq, Load, 0, 1000, 8, 0)
	snap := ep.Clone()
	before := ep.Time()
	ep.Access(1, Rand, Store, 1, 5000, 8, 0)
	if ep.Time() == before {
		t.Fatal("extra charge invisible")
	}
	ep.CopyFrom(snap)
	if got := ep.Time(); got != before {
		t.Fatalf("rollback inexact: %g vs %g", got, before)
	}
}

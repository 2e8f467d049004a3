package main

import (
	"strings"
	"testing"
)

// TestRun executes the full example — incremental repair, the
// /mutatez-driven server with its repaired read, and the recovery
// restart — so the example is
// behavior-checked, not just compiled.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatalf("run: %v\noutput so far:\n%s", err, out.String())
	}
	for _, want := range []string{
		"verified against full recomputation",
		"committed mutation batch: seq 1, generation 1",
		"repaired from the previous answer",
		"restart recovered the mutated snapshot bit-identically",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

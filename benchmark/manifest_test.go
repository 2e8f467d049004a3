package main

import (
	"regexp"
	"strings"
	"testing"
)

func testManifest(t *testing.T) *manifest {
	t.Helper()
	mf, err := loadManifest("../" + manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	return mf
}

func TestManifestNamesTheWorkloadsAndMetrics(t *testing.T) {
	mf := testManifest(t)
	var names []string
	for _, w := range mf.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, is %d", w.Name, len(w.Why))
		}
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("manifest workloads %v, program workloads %v", names, workloads)
	}
	if len(mf.EndToEnd) != 9 {
		t.Errorf("%d end-to-end metrics, want 9", len(mf.EndToEnd))
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	for _, d := range append(append([]declared(nil), mf.EndToEnd...), mf.PerLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is illegal or repeated", d.Name)
		}
		seen[d.Name] = true
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: illegal unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range mf.EndToEnd {
		// The driver takes bounds up to 0.25 and wants set-up's the largest.
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("%s: every end-to-end metric has a bound in (0, 0.25]", d.Name)
		}
		if d.Name == "setup_s" && (d.Unit != "s" || d.Better != "lower") {
			t.Errorf("setup_s must be in s, lower better")
		}
		if d.Bound != nil && *d.Bound > *mf.EndToEnd[0].Bound {
			t.Errorf("%s: bound %v exceeds setup_s's", d.Name, *d.Bound)
		}
	}
	if mf.EndToEnd[0].Name != "setup_s" {
		t.Errorf("setup_s leads the end-to-end metrics, not %s", mf.EndToEnd[0].Name)
	}
	for _, d := range mf.PerLayer {
		if d.Bound != nil {
			t.Errorf("%s: per-layer metrics have no bound", d.Name)
		}
		if layer, _, ok := strings.Cut(d.Name, "."); !ok || layer == "" {
			t.Errorf("%s: per-layer metrics are named <module>.<metric>", d.Name)
		}
	}
	if mf.RunSeconds < 1 || mf.RunSeconds > 60 || len(mf.Paths) != 1 || mf.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", mf.RunSeconds, mf.Paths)
	}
}

// Every run checks its metrics against the manifest with check; this
// checks check: all declared names present on both kinds of run, with the
// declared unit, and nothing undeclared.
func TestManifestCheck(t *testing.T) {
	mf := testManifest(t)
	for _, traced := range []bool{false, true} {
		want := mf.EndToEnd
		if traced {
			want = mf.PerLayer
		}
		m := newMetricSet()
		for _, d := range want {
			m.set(d.Name, 1, d.Unit)
		}
		if err := mf.check(traced, m); err != nil {
			t.Errorf("a complete set is refused: %v", err)
		}
		m.set("undeclared.metric", 1, "ms")
		if err := mf.check(traced, m); err == nil || !strings.Contains(err.Error(), "emitted but not declared: undeclared.metric") {
			t.Errorf("an undeclared metric passes: %v", err)
		}
		m = newMetricSet()
		for _, d := range want[1:] {
			m.set(d.Name, 1, d.Unit)
		}
		if err := mf.check(traced, m); err == nil || !strings.Contains(err.Error(), "declared but not emitted: "+want[0].Name) {
			t.Errorf("a missing metric passes: %v", err)
		}
		m.set(want[0].Name, 1, "furlongs")
		if err := mf.check(traced, m); err == nil || !strings.Contains(err.Error(), "furlongs") {
			t.Errorf("a wrong unit passes: %v", err)
		}
	}
}

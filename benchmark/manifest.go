package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
)

// manifest is BENCHMARK.json at the repository root: the contract this
// program is run under. Every run checks what it emits against it, so the
// two cannot drift apart unnoticed.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

const manifestPath = "BENCHMARK.json"

func loadManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run the benchmark from the repository root)", err)
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &mf, nil
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// check reports how a run's metrics differ from what the manifest
// declares for its mode: end-to-end metrics untraced, per-layer traced.
func (mf *manifest) check(traced bool, m *metricSet) error {
	want := mf.EndToEnd
	if traced {
		want = mf.PerLayer
	}
	var problems []string
	seen := make(map[string]bool)
	for _, d := range want {
		seen[d.Name] = true
		got, ok := m.vals[d.Name]
		switch {
		case !ok:
			problems = append(problems, "declared but not emitted: "+d.Name)
		case got.Unit != d.Unit:
			problems = append(problems, fmt.Sprintf("%s: emitted in %s, declared in %s", d.Name, got.Unit, d.Unit))
		}
	}
	for name := range m.vals {
		if !seen[name] {
			problems = append(problems, "emitted but not declared: "+name)
		}
		if !nameRE.MatchString(name) {
			problems = append(problems, "not a legal metric name: "+name)
		}
	}
	if len(problems) == 0 {
		return nil
	}
	sort.Strings(problems)
	return fmt.Errorf("%s and the benchmark disagree: %q", manifestPath, problems)
}

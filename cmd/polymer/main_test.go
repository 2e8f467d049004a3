package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"polymer/internal/graph"
)

func TestParseExps(t *testing.T) {
	all, err := parseExps("all")
	if err != nil || len(all) != len(paperExps) {
		t.Fatalf("all: %d ids, %v; want the paper's %d", len(all), err, len(paperExps))
	}
	for _, id := range beyondExps {
		if all[id] {
			t.Errorf("all runs %s, which runs only when named", id)
		}
	}
	if want, err := parseExps("fn6"); err != nil || len(want) != 1 || !want["fn6"] {
		t.Errorf("fn6: %v, %v", want, err)
	}
	if want, err := parseExps("table3, fig7 ,plan"); err != nil || len(want) != 3 || !want["table3"] || !want["fig7"] || !want["plan"] {
		t.Errorf("comma list with spaces: %v, %v", want, err)
	}
	for _, list := range []string{"fig44", "fig4,fig44", "fig4,", "", "cluster"} {
		if _, err := parseExps(list); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("%q: err %v, want an unknown experiment", list, err)
		}
	}
}

func TestWriteEdgesRejectsFormatBeforeCreating(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x")
	edges := []graph.Edge{{Src: 0, Dst: 1}}
	if err := writeEdges(2, edges, false, "nope", path); err == nil {
		t.Fatal("unknown format accepted")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("unknown format left a file behind: %v", err)
	}
	if err := writeEdges(2, edges, false, "text", path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

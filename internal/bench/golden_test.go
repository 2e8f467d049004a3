//go:build amd64

package bench

import (
	"context"
	"os"
	"strings"
	"testing"

	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
)

// TestGolden holds the simulated clock of all 24 cells, at tiny and at
// small scale, to the bytes testdata/<scale>.golden recorded (go run
// ./cmd/polymer dump [-scale small]; the output is byte-stable at any
// GOMAXPROCS): a structural change must not move them. At small scale
// both scatter-gather engines take dense and sparse phases. Every
// session-capable cell must also print the same line through the
// resilient path with nothing injected.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		sc   gen.Scale
	}{{"tiny", gen.Tiny}, {"small", gen.Small}} {
		t.Run(tc.name, func(t *testing.T) { checkGolden(t, "testdata/"+tc.name+".golden", tc.sc) })
	}
}

func checkGolden(t *testing.T, path string, sc gen.Scale) {
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.SplitAfter(string(golden), "\n")
	if len(want) != 25 || want[24] != "" {
		t.Fatalf("golden holds %d lines, want 24", len(want)-1)
	}
	i := 0
	err = DumpCells(sc, func(sys System, alg Algo, g *graph.Graph, mk func() *numa.Machine) error {
		if got := DumpLine(RunFrom(sys, alg, g, mk(), 0)); got != want[i] {
			t.Errorf("plain run drifted from the golden:\n got %s\nwant %s", got, want[i])
		}
		if SessionCapable(sys, alg) {
			r, _, err := RunResilientCtx(context.Background(), sys, alg, g, mk, nil, ResilientOptions{SessionRetries: -1})
			if err != nil {
				return err
			}
			if got := DumpLine(r); got != want[i] {
				t.Errorf("resilient run differs from the plain one:\n got %s\nwant %s", got, want[i])
			}
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != 24 {
		t.Fatalf("visited %d cells, want 24", i)
	}
}

package core_test

import (
	"testing"

	"polymer/internal/algorithms"
	"polymer/internal/core"
	"polymer/internal/fault"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
	"polymer/internal/sg"
)

type runOutcome struct {
	out  []float64
	sim  float64
	peak int64
}

// shareCase is one algorithm on a graph of the given weight class.
type shareCase struct {
	name     string
	weighted bool
	opt      func() core.Options
	run      func(sg.Engine, *fault.Session) ([]float64, error)
}

func shareCases() []shareCase {
	pushOpt := func() core.Options { o := core.DefaultOptions(); o.Mode = core.Push; return o }
	return []shareCase{
		{"bfs", false, core.DefaultOptions, func(e sg.Engine, s *fault.Session) ([]float64, error) {
			levels, err := algorithms.BFSE(e, 0, s)
			out := make([]float64, len(levels))
			for i, l := range levels {
				out[i] = float64(l)
			}
			return out, err
		}},
		{"sssp", true, core.DefaultOptions, func(e sg.Engine, s *fault.Session) ([]float64, error) {
			return algorithms.SSSP(e, 0, s)
		}},
		{"pr", false, pushOpt, func(e sg.Engine, s *fault.Session) ([]float64, error) {
			return algorithms.PageRankE(e, 3, 0.85, s)
		}},
	}
}

func runOn(t *testing.T, g *graph.Graph, c shareCase, sess func(*core.Engine) *fault.Session) runOutcome {
	t.Helper()
	m := numa.NewMachine(numa.IntelXeon80(), 4, 2)
	e := core.MustNew(g, m, c.opt())
	defer e.Close()
	var s *fault.Session
	if sess != nil {
		s = sess(e)
	}
	out, err := c.run(e, s)
	if err != nil {
		t.Fatal(err)
	}
	return runOutcome{out, e.SimSeconds(), m.Alloc().Peak()}
}

func sameOutcome(t *testing.T, what string, got, want runOutcome) {
	t.Helper()
	if got.sim != want.sim || got.peak != want.peak {
		t.Fatalf("%s: sim %v peak %d, want sim %v peak %d", what, got.sim, got.peak, want.sim, want.peak)
	}
	for i := range want.out {
		if got.out[i] != want.out[i] {
			t.Fatalf("%s: vertex %d = %v, want %v", what, i, got.out[i], want.out[i])
		}
	}
}

// holdLayouts runs c on the weighted graph g and returns the engine still
// open, so every later engine of the same partition on g or its
// Unweighted view reads its builds.
func holdLayouts(t *testing.T, g *graph.Graph, c shareCase) *core.Engine {
	t.Helper()
	e := core.MustNew(g, numa.NewMachine(numa.IntelXeon80(), 4, 2), c.opt())
	if _, err := c.run(e, nil); err != nil {
		t.Fatal(err)
	}
	return e
}

// A run on a layout another engine built — through the weighted graph or
// its Unweighted view — equals a run on a private build of its own graph:
// result, simulated clock and simulated peak.
func TestSharedLayoutRunMatchesPrivate(t *testing.T) {
	n, edges := gen.Powerlaw(600, 6, 2.0, 41)
	gen.AddRandomWeights(edges, 42)
	g := graph.FromEdges(n, edges, true)
	for _, c := range shareCases() {
		t.Run(c.name, func(t *testing.T) {
			private := runOn(t, graph.FromEdges(n, edges, c.weighted), c, nil)
			holder := holdLayouts(t, g, c)
			defer holder.Close()
			view := g
			if !c.weighted {
				view = g.Unweighted()
			}
			sameOutcome(t, "shared", runOn(t, view, c, nil), private)
		})
	}
}

// An allocation fault in the first superstep — the first Grow there is
// the layout's — rolls back and replays on the same shared build, charging
// exactly what a fault-free run charges.
func TestLayoutAllocFaultReplayMatchesFaultFree(t *testing.T) {
	n, edges := gen.Powerlaw(600, 6, 2.0, 43)
	gen.AddRandomWeights(edges, 44)
	g := graph.FromEdges(n, edges, true)
	for _, c := range shareCases() {
		t.Run(c.name, func(t *testing.T) {
			view := g
			if !c.weighted {
				view = g.Unweighted()
			}
			clean := runOn(t, view, c, nil)
			holder := holdLayouts(t, g, c)
			defer holder.Close()
			var sess *fault.Session
			got := runOn(t, view, c, func(e *core.Engine) *fault.Session {
				evs, err := fault.ParseSpec("alloc@0")
				if err != nil {
					t.Fatal(err)
				}
				sess = fault.NewSession(e, fault.NewInjector(evs))
				return sess
			})
			if sess.Rollbacks() != 1 {
				t.Fatalf("%d rollbacks, want 1", sess.Rollbacks())
			}
			sameOutcome(t, "replayed", got, clean)
		})
	}
}

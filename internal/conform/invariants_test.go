package conform

import (
	"testing"

	"polymer/internal/algorithms"
	"polymer/internal/core"
	"polymer/internal/engines/galois"
	"polymer/internal/engines/ligra"
	"polymer/internal/engines/xstream"
	"polymer/internal/fault"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
	"polymer/internal/obs"
	"polymer/internal/sg"
	"polymer/internal/state"
)

func invariantGraph() *graph.Graph {
	n, e := gen.Uniform(160, 900, 23)
	return graph.FromEdges(n, e, false)
}

// withEngine builds the named engine on a fresh 2x2 machine, hands it to
// the body as the SimEngine invariant surface plus a PageRank closure,
// and closes it.
func withEngine(t *testing.T, eng Engine, g *graph.Graph, body func(e SimEngine, pr func())) {
	t.Helper()
	m := numa.NewMachine(numa.IntelXeon80(), 2, 2)
	switch eng {
	case Polymer, Ligra:
		var e sg.Engine
		if eng == Polymer {
			opt := core.DefaultOptions()
			opt.Mode = core.Push
			e = core.MustNew(g, m, opt)
		} else {
			e = ligra.MustNew(g, m, ligra.DefaultOptions())
		}
		defer e.Close()
		body(e.(SimEngine), func() { algorithms.PageRank(e, Iters, Damping) })
	case XStream:
		e := xstream.MustNew(g, m, xstream.DefaultOptions(), sg.Hints{DataBytes: 8})
		defer e.Close()
		body(e, func() { algorithms.XSPageRank(e, Iters, Damping) })
	case Galois:
		e := galois.MustNew(g, m, galois.DefaultOptions())
		defer e.Close()
		body(e, func() { e.PageRank(Iters, Damping) })
	default:
		t.Fatalf("unknown engine %q", eng)
	}
}

// TestTrafficConservation: after a real run, every engine's classified
// traffic matrix must account for the same bytes whether summed in
// total, per node, or per level and access pattern — and the run must
// have produced some traffic at all.
func TestTrafficConservation(t *testing.T) {
	g := invariantGraph()
	for _, eng := range Engines() {
		t.Run(string(eng), func(t *testing.T) {
			withEngine(t, eng, g, func(e SimEngine, pr func()) {
				pr()
				tm := &numa.TrafficMatrix{}
				e.TrafficSnapshot(tm)
				if tm.Total() <= 0 {
					t.Fatal("run produced no traffic")
				}
				if err := CheckTrafficConservation(tm); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestRollbackResidue: snapshot, run a full PageRank, restore — the
// simulated clock, traffic ledger and access statistics must come back
// bit-identical on every engine. The first PageRank call makes the
// pre-snapshot state non-trivial.
func TestRollbackResidue(t *testing.T) {
	g := invariantGraph()
	for _, eng := range Engines() {
		t.Run(string(eng), func(t *testing.T) {
			withEngine(t, eng, g, func(e SimEngine, pr func()) {
				pr()
				if err := CheckRollbackResidue(e, pr); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestDegreeCacheInvariant: every way a Subset's cached degree can be
// produced — builder accumulation over duplicate adds, the full-frontier
// shortcut, sparse construction, memoized rescan — must agree with a
// from-scratch scan of the graph.
func TestDegreeCacheInvariant(t *testing.T) {
	g := invariantGraph()
	n := g.NumVertices()
	bounds := []int{0, n / 3, n}
	degreeOf := func(v uint32) int64 { return g.OutDegree(graph.Vertex(v)) }

	t.Run("full-frontier", func(t *testing.T) {
		if err := CheckDegreeCache(g, state.NewAll(bounds)); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if err := CheckDegreeCache(g, state.NewEmpty(bounds)); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("single", func(t *testing.T) {
		if err := CheckDegreeCache(g, state.NewSingle(bounds, 7)); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("sparse-from-vertices", func(t *testing.T) {
		s := state.FromVertices(bounds, []uint32{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5})
		if err := CheckDegreeCache(g, s); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("builder-with-degrees-duplicates", func(t *testing.T) {
		b := state.NewBuilder(bounds, 2, false).WithDegrees(degreeOf)
		// Both threads add overlapping vertex sets; Build must subtract
		// the duplicate-carried degree.
		for v := uint32(0); v < uint32(n); v += 3 {
			b.Add(0, v)
		}
		for v := uint32(0); v < uint32(n); v += 5 {
			b.Add(1, v)
		}
		if err := CheckDegreeCache(g, b.Build()); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("dense-builder-with-degrees", func(t *testing.T) {
		b := state.NewBuilder(bounds, 2, true).WithDegrees(degreeOf)
		for v := uint32(0); v < uint32(n); v += 2 {
			b.Set(0, v)
		}
		for v := uint32(0); v < uint32(n); v += 7 {
			b.Set(1, v)
		}
		if err := CheckDegreeCache(g, b.Build()); err != nil {
			t.Fatal(err)
		}
	})
}

// All four engines get the recovery, tracing and invariant surfaces from
// the embedded sg.Base.
var (
	_ = []fault.Engine{(*core.Engine)(nil), (*ligra.Engine)(nil), (*xstream.Engine)(nil), (*galois.Engine)(nil)}
	_ = []obs.SimSource{(*core.Engine)(nil), (*ligra.Engine)(nil), (*xstream.Engine)(nil), (*galois.Engine)(nil)}
	_ = []SimEngine{(*core.Engine)(nil), (*ligra.Engine)(nil), (*xstream.Engine)(nil), (*galois.Engine)(nil)}
)

package conform

import (
	"math"
	"reflect"
	"testing"

	"polymer/internal/algorithms"
	"polymer/internal/core"
	"polymer/internal/engines/galois"
	"polymer/internal/engines/ligra"
	"polymer/internal/engines/xstream"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/mem"
	"polymer/internal/numa"
	"polymer/internal/sg"
)

// tieredFracs are the DRAM budgets the differential sweeps: full
// residency (the bit-identical-clock regime) and two constrained points.
var tieredFracs = []float64{1.0, 0.5, 0.25}

// TestTieredDifferential: every engine on both paper topologies, PR and
// BFS, across the DRAM-fraction sweep under the hot policy with online
// promotion. Values must be bit-identical to the untiered run at every
// budget; the clock bit-identical at full residency and inside the
// envelope below it.
func TestTieredDifferential(t *testing.T) {
	g := invariantGraph()
	for _, topo := range Topos() {
		for _, eng := range Engines() {
			for _, alg := range []Algo{PR, BFS} {
				for _, frac := range tieredFracs {
					c := Case{Engine: eng, Algo: alg, Topo: topo, Src: 3}
					t.Run(c.String()+"/hot", func(t *testing.T) {
						if err := CheckTiered(c, g, numa.TierHot, frac, 2); err != nil {
							t.Fatal(err)
						}
					})
				}
			}
		}
	}
}

// TestTieredInterleaveBaseline: the naive uniform-spill baseline must
// satisfy the same value identity and clock envelope.
func TestTieredInterleaveBaseline(t *testing.T) {
	g := invariantGraph()
	for _, eng := range Engines() {
		for _, frac := range tieredFracs {
			c := Case{Engine: eng, Algo: PR, Topo: Intel80, Src: 3}
			t.Run(c.String()+"/interleave", func(t *testing.T) {
				if err := CheckTiered(c, g, numa.TierInterleave, frac, 0); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestTieredAllAlgos runs the full algorithm set on the flagship engine
// at the tightest budget: value identity must hold for every kernel, not
// just the sweep pair.
func TestTieredAllAlgos(t *testing.T) {
	g := invariantGraph()
	for _, alg := range Algos() {
		c := Case{Engine: Polymer, Algo: alg, Topo: Intel80, Src: 3}
		t.Run(c.String(), func(t *testing.T) {
			if err := CheckTiered(c, g, numa.TierHot, 0.25, 2); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// tierPlanner is the accessor every engine exposes for its tier plan.
type tierPlanner interface {
	TierPlan() *mem.TierPlan
}

// TestTieredPromotionDeterminism: the same tiered PageRank run on two
// fresh machines must make identical migration decisions (the log is a
// pure function of the run's access counters), converge to the same
// residency split, and report a bit-identical clock.
func TestTieredPromotionDeterminism(t *testing.T) {
	g := invariantGraph()
	type probe struct {
		clock      float64
		migrations []mem.Migration
		classes    []string
	}
	for _, eng := range Engines() {
		t.Run(string(eng), func(t *testing.T) {
			sample := func() probe {
				var p probe
				// Half the footprint: tight enough to force spills, loose
				// enough that the non-pinned classes actually hold DRAM for
				// the pass to move around (at harsher budgets the pinned
				// frontier takes everything and there is nothing to migrate).
				withTieredEngine(t, eng, g, 0.5, func(e SimEngine, m *numa.Machine, pr func()) {
					tp := e.(tierPlanner).TierPlan()
					if tp == nil {
						t.Fatal("tiered machine produced a nil tier plan")
					}
					// Seed a cold class that outranks vertex state in the
					// static fill: PageRank never touches it, so the first
					// promotion pass must demote it and promote the hot
					// classes — real migrations for the log to pin.
					cold := m.TierConfig().DRAMPerNode / 2
					tp.AddClass(mem.ClassSpec{
						Label:        "cold",
						BytesPerNode: []int64{cold, cold},
						Priority:     -1,
					})
					pr()
					p.clock = e.SimSeconds()
					p.migrations = append([]mem.Migration(nil), tp.Migrations()...)
					p.classes = tp.Classes()
				})
				return p
			}
			a, b := sample(), sample()
			if math.Float64bits(a.clock) != math.Float64bits(b.clock) {
				t.Fatalf("tiered clock not deterministic: %v != %v", a.clock, b.clock)
			}
			if len(a.migrations) == 0 {
				t.Fatal("constrained hot-policy run with PromoteEvery=1 made no migrations")
			}
			if !reflect.DeepEqual(a.migrations, b.migrations) {
				t.Fatalf("migration logs diverged across identical runs:\n%v\n%v", a.migrations, b.migrations)
			}
			if !reflect.DeepEqual(a.classes, b.classes) {
				t.Fatalf("final residency diverged: %v != %v", a.classes, b.classes)
			}
		})
	}
}

// tieredMachine arms a 2x2 Intel machine with the hot policy at the
// given fraction of the given footprint.
func tieredMachine(t *testing.T, peak int64, frac float64) *numa.Machine {
	t.Helper()
	m := numa.NewMachine(numa.IntelXeon80(), 2, 2)
	if err := m.SetTierConfig(numa.TierConfig{
		DRAMPerNode:  TieredBudget(peak, 2, frac),
		Policy:       numa.TierHot,
		PromoteEvery: 1,
	}); err != nil {
		t.Fatal(err)
	}
	return m
}

// withTieredEngine mirrors withEngine on a DRAM-constrained machine. The
// footprint estimate comes from a probe run of the same engine untiered.
func withTieredEngine(t *testing.T, eng Engine, g *graph.Graph, frac float64, body func(e SimEngine, m *numa.Machine, pr func())) {
	t.Helper()
	probe := Run(Case{Engine: eng, Algo: PR, Topo: Intel80}, g)
	m := tieredMachine(t, probe.Peak, frac)
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
		body(e.(SimEngine), m, func() { algorithms.PageRank(e, Iters, Damping) })
	case XStream:
		e := xstream.MustNew(g, m, xstream.DefaultOptions(), sg.Hints{DataBytes: 8})
		defer e.Close()
		body(e, m, func() { algorithms.XSPageRank(e, Iters, Damping) })
	case Galois:
		e := galois.MustNew(g, m, galois.DefaultOptions())
		defer e.Close()
		body(e, m, func() { e.PageRank(Iters, Damping) })
	default:
		t.Fatalf("unknown engine %q", eng)
	}
}

// TestTieredRollbackResidue: snapshot/rollback on a DRAM-constrained
// machine with per-phase promotion passes must leave zero residue — the
// tier plan's residency, counters and migration log rewind with the
// ledger, so the slow-tier traffic bank comes back bit-identical.
func TestTieredRollbackResidue(t *testing.T) {
	g := invariantGraph()
	for _, eng := range Engines() {
		t.Run(string(eng), func(t *testing.T) {
			withTieredEngine(t, eng, g, 0.25, func(e SimEngine, m *numa.Machine, pr func()) {
				pr()
				if err := CheckRollbackResidue(e, pr); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestTieredTrafficConservation: the widened traffic matrix (DRAM rows
// plus the slow-tier bank) must still conserve — the same bytes sum
// consistently in total, per node and per level/pattern — and a
// constrained run must actually touch the slow tier.
func TestTieredTrafficConservation(t *testing.T) {
	g := invariantGraph()
	for _, eng := range Engines() {
		t.Run(string(eng), func(t *testing.T) {
			withTieredEngine(t, eng, g, 0.25, func(e SimEngine, m *numa.Machine, pr func()) {
				pr()
				tm := &numa.TrafficMatrix{}
				e.TrafficSnapshot(tm)
				if err := CheckTrafficConservation(tm); err != nil {
					t.Fatal(err)
				}
				levels := numa.IntelXeon80().MaxLevel() + 1
				if tm.Levels != 2*levels {
					t.Fatalf("tiered traffic has %d levels, want %d (DRAM + slow banks)", tm.Levels, 2*levels)
				}
				var slow float64
				for l := levels; l < tm.Levels; l++ {
					slow += tm.LevelBytes(l, numa.Seq) + tm.LevelBytes(l, numa.Rand)
				}
				if slow <= 0 {
					t.Fatal("constrained run produced no slow-tier traffic")
				}
			})
		})
	}
}

// TestTieredAdversarialShapes: value identity must survive the
// degenerate shape corpus (empty graphs, self-loops, stars, paths) where
// per-node demand is wildly skewed.
func TestTieredAdversarialShapes(t *testing.T) {
	for _, shape := range gen.Adversarial() {
		g := graph.FromEdges(shape.N, shape.Edges, false)
		for _, alg := range []Algo{PR, BFS} {
			c := Case{Engine: Polymer, Algo: alg, Topo: Intel80}
			t.Run(shape.Name+"/"+c.String(), func(t *testing.T) {
				if err := CheckTiered(c, g, numa.TierHot, 0.25, 1); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

package plan

import (
	"context"
	"errors"
	"testing"

	"polymer/internal/bench"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/mem"
	"polymer/internal/numa"
)

func testPlanner() *Planner {
	return New(numa.IntelXeon80(), 4)
}

func testFeatures() Features {
	n, edges := gen.RMAT(10, 8, 1)
	return Profile(graph.FromEdges(n, edges, false))
}

// A vetoed engine must never be picked, whatever the cost model thinks
// of it — this is the open-circuit-breaker regression test.
func TestResolveNeverPicksVetoedEngine(t *testing.T) {
	p := testPlanner()
	f := testFeatures()
	for _, sys := range bench.Systems() {
		d := p.Resolve(Query{Features: f, Alg: bench.PR, Nodes: 8, Veto: VetoBit(sys)})
		if d.Pick.Engine == sys {
			t.Fatalf("planner picked vetoed engine %s", sys)
		}
		if d.Fallback {
			t.Fatalf("single veto of %s must not trigger fallback", sys)
		}
	}
}

// With every engine vetoed the planner falls back (it cannot conjure a
// healthy engine) and says so, so the serving layer's breaker produces
// the honest degraded/refused answer.
func TestResolveAllVetoedFallsBack(t *testing.T) {
	p := testPlanner()
	all := VetoPolymer | VetoLigra | VetoXStream | VetoGalois
	d := p.Resolve(Query{Features: testFeatures(), Alg: bench.PR, Nodes: 8, Veto: all})
	if !d.Fallback {
		t.Fatal("all-vetoed query must report Fallback")
	}
	if d.Pick.Engine == "" {
		t.Fatal("fallback must still pick an engine")
	}
}

// Pinning the engine or placement restricts the search space.
func TestResolveHonorsPins(t *testing.T) {
	p := testPlanner()
	f := testFeatures()
	d := p.Resolve(Query{Features: f, Alg: bench.PR, Nodes: 8, EngineFixed: bench.Ligra})
	if d.Pick.Engine != bench.Ligra {
		t.Fatalf("pinned engine ignored: picked %s", d.Pick.Engine)
	}
	d = p.Resolve(Query{Features: f, Alg: bench.PR, Nodes: 8,
		EngineFixed: bench.Polymer, PlacementFixed: mem.Centralized, PlacementSet: true})
	if d.Pick.Placement != mem.Centralized {
		t.Fatalf("pinned placement ignored: picked %s", d.Pick.Placement)
	}
	for _, s := range d.Table {
		if s.Candidate.Engine != bench.Polymer || s.Candidate.Placement != mem.Centralized {
			t.Fatalf("pinned table contains foreign candidate %s", s.Candidate)
		}
	}
}

// Engines that cannot run an algorithm must never appear as candidates.
func TestCandidatesRespectSupport(t *testing.T) {
	for _, alg := range []bench.Algo{bench.BFS, bench.SSSP, bench.SpMV, bench.BP} {
		for _, c := range Candidates(alg, 8) {
			if c.Engine == bench.XStream || c.Engine == bench.Galois {
				t.Fatalf("%s offered on %s", alg, c.Engine)
			}
		}
	}
	seen := map[bench.System]bool{}
	for _, c := range Candidates(bench.PR, 8) {
		seen[c.Engine] = true
		if c.Engine != bench.Polymer && c.Placement != mem.Interleaved {
			t.Fatalf("baseline %s offered placement %s", c.Engine, c.Placement)
		}
	}
	for _, sys := range bench.Systems() {
		if !seen[sys] {
			t.Fatalf("PR candidates missing %s", sys)
		}
	}
}

// Supported and the resilient runner must agree on every one of the 24
// cells: what the planner offers is exactly what the runner executes.
func TestSupportedMatchesRunner(t *testing.T) {
	n, edges := gen.RMAT(6, 4, 1)
	gen.AddRandomWeights(edges, 1)
	g := graph.FromEdges(n, edges, true)
	mk := func() *numa.Machine { return numa.NewMachine(numa.IntelXeon80(), 2, 2) }
	for _, sys := range bench.Systems() {
		for _, alg := range bench.Algos() {
			_, _, err := bench.RunResilientCtx(context.Background(), sys, alg, g, mk, nil, bench.ResilientOptions{SessionRetries: -1})
			if ran := !errors.Is(err, bench.ErrUnsupported); ran != Supported(sys, alg) || (ran && err != nil) {
				t.Errorf("%s/%s: Supported=%t, runner: %v", sys, alg, Supported(sys, alg), err)
			}
		}
	}
}

// Resolving the same query twice must return the identical cached
// decision; a learner-generation bump must invalidate it.
func TestResolveCaching(t *testing.T) {
	p := testPlanner()
	f := testFeatures()
	q := Query{Features: f, Alg: bench.PR, Nodes: 8}
	d1 := p.Resolve(q)
	d2 := p.Resolve(q)
	if d1 != d2 {
		t.Fatal("repeat resolve did not hit the cache")
	}
	if s := p.Snapshot(); s.CacheHits < 1 {
		t.Fatalf("cache hits = %d", s.CacheHits)
	}
	// Feed divergent observations until a factor moves enough to bump gen.
	for i := 0; i < 10 && p.learner.Gen() == d1.LearnGen; i++ {
		p.Observe(d1, d1.Raw*3)
	}
	if p.learner.Gen() == d1.LearnGen {
		t.Fatal("observations never advanced the learner generation")
	}
	d3 := p.Resolve(q)
	if d3 == d1 {
		t.Fatal("stale decision served after learner update")
	}
	if d3.LearnGen == d1.LearnGen {
		t.Fatal("new decision carries stale generation")
	}
}

// Corrections must bend future costs: after observing that the pick
// runs 3x slower than predicted, its corrected cost must rise.
func TestLearnerCorrectsCosts(t *testing.T) {
	p := testPlanner()
	f := testFeatures()
	q := Query{Features: f, Alg: bench.PR, Nodes: 8}
	d1 := p.Resolve(q)
	for i := 0; i < 20; i++ {
		p.Observe(d1, d1.Raw*3)
	}
	fac := p.learner.Factor(d1.Bucket, d1.Pick)
	if fac < 1.5 {
		t.Fatalf("factor after 20x 3x-slow observations = %f", fac)
	}
	if fac > maxFactor {
		t.Fatalf("factor exceeded clamp: %f", fac)
	}
	d2 := p.Resolve(q)
	if d2.Predicted <= d1.Predicted && d2.Pick == d1.Pick {
		t.Fatalf("corrected cost did not rise: %f vs %f", d2.Predicted, d1.Predicted)
	}
	st := p.learner.Stats()
	if st.Observations != 20 || st.Buckets != 1 {
		t.Fatalf("learner stats: %+v", st)
	}
}

// Degenerate observations must not poison the learner.
func TestLearnerIgnoresGarbage(t *testing.T) {
	l := NewLearner()
	b := Bucket{Alg: bench.PR}
	c := Candidate{Engine: bench.Polymer, Placement: mem.CoLocated, Nodes: 8}
	l.Observe(b, c, 0, 1)
	l.Observe(b, c, 1, 0)
	l.Observe(b, c, -1, 5)
	if l.Stats().Observations != 0 {
		t.Fatal("garbage observations were counted")
	}
	if l.Factor(b, c) != 1 {
		t.Fatal("garbage observations moved a factor")
	}
}

// The hot path contract: resolving an already-cached query allocates
// nothing.
func TestResolveZeroAllocOnHit(t *testing.T) {
	p := testPlanner()
	f := testFeatures()
	q := Query{Features: f, Alg: bench.PR, Nodes: 8}
	p.Resolve(q) // warm
	avg := testing.AllocsPerRun(100, func() {
		if p.Resolve(q) == nil {
			t.Fatal("nil decision")
		}
	})
	if avg != 0 {
		t.Fatalf("Resolve on cache hit allocates %.1f times", avg)
	}
}

// Decision tables must be complete and internally consistent.
func TestDecisionTable(t *testing.T) {
	p := testPlanner()
	d := p.Resolve(Query{Features: testFeatures(), Alg: bench.PR, Nodes: 8})
	if len(d.Table) != len(Candidates(bench.PR, 8)) {
		t.Fatalf("table has %d rows, want %d", len(d.Table), len(Candidates(bench.PR, 8)))
	}
	var foundPick bool
	for _, s := range d.Table {
		if s.Cost <= 0 || s.Raw <= 0 {
			t.Fatalf("non-positive cost for %s", s.Candidate)
		}
		if s.Candidate == d.Pick {
			foundPick = true
			if s.Cost != d.Predicted {
				t.Fatalf("pick cost mismatch: %f vs %f", s.Cost, d.Predicted)
			}
		}
		if !s.Vetoed && s.Cost < d.Predicted {
			t.Fatalf("%s is cheaper (%g) than the pick (%g)", s.Candidate, s.Cost, d.Predicted)
		}
	}
	if !foundPick {
		t.Fatal("pick not present in its own table")
	}
}

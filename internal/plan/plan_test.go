package plan

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
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
		if s.Cost < d.Predicted {
			t.Fatalf("%s is cheaper (%g) than the pick (%g)", s.Candidate, s.Cost, d.Predicted)
		}
	}
	if !foundPick {
		t.Fatal("pick not present in its own table")
	}
}

// coldQuery is the decision the serving benchmark's planned PageRank makes
// after every commit: 18 PageRank candidates on power-law small, on the
// Intel machine's eight sockets of ten cores.
func coldQuery(tb testing.TB) (*numa.Topology, Query) {
	g, err := gen.Load(gen.PowerLaw, gen.Small, false)
	if err != nil {
		tb.Fatal(err)
	}
	return numa.IntelXeon80(), Query{Features: Profile(g), Alg: bench.PR, Nodes: 8}
}

// BenchmarkResolveCold times one cold decision: every candidate priced.
func BenchmarkResolveCold(b *testing.B) {
	topo, q := coldQuery(b)
	b.ReportAllocs()
	for range b.N {
		b.StopTimer()
		p := New(topo, 10)
		b.StartTimer()
		p.Resolve(q)
	}
}

// A cold decision prices every candidate on a private machine; its
// allocations are pinned so pricing through the engines' recipes costs no
// more than the hand-written model it replaced (347 with the planner's own
// construction, 336 of them the decision's).
func TestResolveColdAllocBudget(t *testing.T) {
	topo, q := coldQuery(t)
	if avg := testing.AllocsPerRun(20, func() { New(topo, 10).Resolve(q) }); avg > 347 {
		t.Fatalf("a cold decision allocates %.0f times, budget 347", avg)
	}
}

// TestServedQueriesKeepTheirPick pins what the planner picks for the
// queries the serving benchmark leaves to it (a /run body without a
// system): PageRank and BFS on the power-law and road datasets at small
// scale, on all eight sockets of ten cores of the Intel machine. Polymer,
// co-located, across eight nodes is the pick today; a planned PageRank
// that moved to another engine would stop sharing its result-cache entry
// with the explicit Polymer query and add an engine run to every block of
// the churn workload.
func TestServedQueriesKeepTheirPick(t *testing.T) {
	want := Candidate{Engine: bench.Polymer, Placement: mem.CoLocated, Nodes: 8}
	p := New(numa.IntelXeon80(), 10)
	for _, d := range []gen.Dataset{gen.PowerLaw, gen.RoadUS} {
		for _, alg := range []bench.Algo{bench.PR, bench.BFS} {
			g, err := gen.Load(d, gen.Small, alg.Weighted())
			if err != nil {
				t.Fatal(err)
			}
			if got := p.Resolve(Query{Features: Profile(g), Alg: alg, Nodes: 8}).Pick; got != want {
				t.Errorf("%s/%s: planner picks %s, want %s", d, alg, got, want)
			}
		}
	}
}

// The planner prices traffic only through an engine's charge recipe: no
// non-test file of the package charges an epoch or a tier class itself,
// so the cost model cannot grow a second copy of what the engines charge.
func TestPlannerChargesOnlyThroughRecipes(t *testing.T) {
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					switch sel.Sel.Name {
					case "Access", "AccessInterleaved", "LatencyBound", "Compute":
						t.Errorf("%s: the planner calls %s itself; price traffic through an engine's recipe",
							fset.Position(call.Pos()), sel.Sel.Name)
					}
				}
			}
			return true
		})
	}
}

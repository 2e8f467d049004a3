package plan

import (
	"testing"

	"polymer/internal/bench"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
)

// reducedCorpus is a fast subset of the full planner corpus: a
// power-law graph (hub-heavy), a road grid (deep), a uniform graph and
// two adversarial corner cases.
func reducedCorpus() []CorpusEntry {
	var out []CorpusEntry
	n, e := gen.Powerlaw(3000, 8, 2.1, 11)
	out = append(out, CorpusEntry{Name: "powerlaw", N: n, E: e})
	n, e = gen.RoadGrid(48, 48, 5)
	out = append(out, CorpusEntry{Name: "road", N: n, E: e})
	n, e = gen.Uniform(2000, 16000, 9)
	out = append(out, CorpusEntry{Name: "uniform", N: n, E: e})
	for _, a := range gen.Adversarial() {
		if a.Name == "star-out" || a.Name == "chain" {
			out = append(out, CorpusEntry{Name: "adv/" + a.Name, N: a.N, E: a.Edges})
		}
	}
	return out
}

// The acceptance gate at test scale: planner picks must be within 10%
// mean simulated cost of the exhaustive oracle across the corpus.
func TestSweepRegretGate(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is minutes of simulated runs")
	}
	p := New(numa.IntelXeon80(), 4)
	res := Sweep(p, reducedCorpus(), []bench.Algo{bench.PR, bench.BFS, bench.SSSP}, 8, false, false)
	if len(res.Cells) == 0 {
		t.Fatal("sweep measured nothing")
	}
	for _, c := range res.Cells {
		t.Logf("%-14s %-4s pick=%-28s oracle=%-28s regret=%5.1f%%",
			c.Graph, c.Alg, c.Pick, c.Oracle, 100*c.Regret)
	}
	if res.MeanRegret > 0.10 {
		t.Fatalf("mean regret %.1f%% exceeds the 10%% gate", 100*res.MeanRegret)
	}
}

// The acceptance gate on the full planner corpus: across everything —
// paper datasets and adversarial corner cases — the picks must cost at
// most 10% more simulated time than the exhaustive oracle's. The metric
// is cost-weighted, so a nanosecond corner graph cannot dominate it.
func TestFullCorpusCostRegretGate(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus sweep")
	}
	p := New(numa.IntelXeon80(), 2)
	res := Sweep(p, Corpus(), []bench.Algo{bench.PR, bench.BFS, bench.SSSP}, 8, false, false)
	if len(res.Cells) < 30 {
		t.Fatalf("full sweep measured only %d cells", len(res.Cells))
	}
	t.Logf("cost regret %.2f%%  mean %.1f%%  max %.1f%%  over %d cells",
		100*res.CostRegret, 100*res.MeanRegret, 100*res.MaxRegret, len(res.Cells))
	if res.CostRegret > 0.10 {
		t.Fatalf("cost regret %.1f%% exceeds the 10%% gate", 100*res.CostRegret)
	}
}

// Learning during a sweep must reduce (or at least not explode) the
// model's bias: after one training pass the learner holds observations
// and the mean factor error is finite.
func TestSweepLearns(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is minutes of simulated runs")
	}
	p := New(numa.IntelXeon80(), 4)
	n, e := gen.Powerlaw(2000, 8, 2.1, 3)
	entries := []CorpusEntry{{Name: "pl", N: n, E: e}}
	_ = Sweep(p, entries, []bench.Algo{bench.PR}, 8, true, false)
	st := p.Learner().Stats()
	if st.Observations == 0 {
		t.Fatal("learning sweep recorded no observations")
	}
}

// BuildGraph must not mutate the shared corpus edge slice when adding
// weights.
func TestBuildGraphDoesNotMutateCorpus(t *testing.T) {
	n, e := gen.Uniform(100, 500, 1)
	entry := CorpusEntry{Name: "u", N: n, E: e}
	before := append([]graph.Edge(nil), e...)
	_ = BuildGraph(entry, bench.SSSP) // weighted: must copy
	for i := range before {
		if e[i] != before[i] {
			t.Fatalf("corpus edge %d mutated by weighted build", i)
		}
	}
	g := BuildGraph(entry, bench.SSSP)
	if !g.Weighted() {
		t.Fatal("weighted build produced unweighted graph")
	}
}

func TestCorpusNonEmpty(t *testing.T) {
	c := Corpus()
	if len(c) < 10 {
		t.Fatalf("corpus has only %d entries", len(c))
	}
	names := map[string]bool{}
	for _, e := range c {
		if names[e.Name] {
			t.Fatalf("duplicate corpus entry %s", e.Name)
		}
		names[e.Name] = true
	}
}

package plan

import (
	"math"
	"testing"

	"polymer/internal/bench"
	"polymer/internal/core"
	"polymer/internal/gen"
	"polymer/internal/mem"
	"polymer/internal/numa"
	"polymer/internal/partition"
)

// modelFootprint is the model's own total demand estimate: what the tier
// classes it registers for PageRank on a Polymer candidate hold, so the
// tests can express DRAM budgets as fractions of exactly what the model
// places.
func modelFootprint(f Features, nodes int) int64 {
	m := numa.NewMachine(numa.IntelXeon80(), nodes, 2)
	if err := m.SetTierConfig(numa.TierConfig{DRAMPerNode: 1 << 40, Policy: numa.TierHot}); err != nil {
		panic(err)
	}
	w, _ := estimateRun(f, bench.PR)
	return modelTiers(m, f, w, core.FrontierDemand(partition.Bounds(partition.VertexBalanced(int(f.Vertices), nodes)))).Plan.Demand()
}

func tierCfg(f Features, frac float64, pol numa.TierPolicy, nodes int) numa.TierConfig {
	total := modelFootprint(f, nodes)
	b := int64(frac * float64(total) / float64(nodes))
	if b < 1 {
		b = 1
	}
	return numa.TierConfig{DRAMPerNode: b, Policy: pol}
}

// TestPredictTieredFullResidency: a budget covering the whole footprint
// yields a prediction bit-identical to the untiered model — every class
// is fully resident, every slow split exactly zero.
func TestPredictTieredFullResidency(t *testing.T) {
	g, err := gen.Load(gen.PowerLaw, gen.Tiny, false)
	if err != nil {
		t.Fatal(err)
	}
	f := Profile(g)
	topo := numa.IntelXeon80()
	full := numa.TierConfig{DRAMPerNode: 2 * modelFootprint(f, 4), Policy: numa.TierHot}
	for _, alg := range []bench.Algo{bench.PR, bench.BFS} {
		for _, c := range Candidates(alg, 4) {
			base := Predict(f, alg, topo, c, 2)
			got := PredictTiered(f, alg, topo, c, 2, full)
			if math.Float64bits(got) != math.Float64bits(base) {
				t.Errorf("%s/%s: full-residency tiered prediction %v != untiered %v", c, alg, got, base)
			}
		}
	}
}

// TestPredictTieredMonotone: shrinking DRAM can only make the predicted
// clock worse, and every constrained prediction is at least the
// untiered one (the slow tier can only cost more).
func TestPredictTieredMonotone(t *testing.T) {
	g, err := gen.Load(gen.PowerLaw, gen.Tiny, false)
	if err != nil {
		t.Fatal(err)
	}
	f := Profile(g)
	topo := numa.IntelXeon80()
	fracs := []float64{1.5, 0.5, 0.25, 0.1}
	for _, pol := range []numa.TierPolicy{numa.TierHot, numa.TierInterleave} {
		for _, c := range Candidates(bench.PR, 4) {
			base := Predict(f, bench.PR, topo, c, 2)
			prev := -1.0
			for _, frac := range fracs {
				got := PredictTiered(f, bench.PR, topo, c, 2, tierCfg(f, frac, pol, c.Nodes))
				if got < base {
					t.Errorf("%s %s frac=%v: tiered %v < untiered %v", pol, c, frac, got, base)
				}
				if prev >= 0 && got < prev {
					t.Errorf("%s %s frac=%v: prediction %v improved when DRAM shrank (was %v)", pol, c, frac, got, prev)
				}
				prev = got
			}
		}
	}
}

// TestPredictTieredHotBeatsInterleave: on a skewed graph with half the
// footprint in DRAM, the hot-vertex policy's predictions must beat the
// uniform-interleave baseline — degree-ranked residency concentrates
// the access mass on the resident bytes, which is the whole reason the
// policy exists and exactly what the bench tier sweep measures.
func TestPredictTieredHotBeatsInterleave(t *testing.T) {
	g, err := gen.Load(gen.PowerLaw, gen.Tiny, false)
	if err != nil {
		t.Fatal(err)
	}
	f := Profile(g)
	topo := numa.IntelXeon80()
	for _, alg := range []bench.Algo{bench.PR, bench.BFS} {
		c := Candidate{Engine: bench.Polymer, Placement: mem.CoLocated, Nodes: 4}
		hot := PredictTiered(f, alg, topo, c, 2, tierCfg(f, 0.5, numa.TierHot, c.Nodes))
		il := PredictTiered(f, alg, topo, c, 2, tierCfg(f, 0.5, numa.TierInterleave, c.Nodes))
		if hot >= il {
			t.Errorf("%s: hot policy predicted %v, interleave %v — hot-vertex placement must win on a skewed graph", alg, hot, il)
		}
	}
}

// TestResolveTieredCacheDistinct: a tiered query must not collide with
// the untiered cache entry for the same features, and the tiered
// decision's raw costs must reflect the constrained machine.
func TestResolveTieredCacheDistinct(t *testing.T) {
	g, err := gen.Load(gen.PowerLaw, gen.Tiny, false)
	if err != nil {
		t.Fatal(err)
	}
	f := Profile(g)
	p := New(numa.IntelXeon80(), 2)
	plain := p.Resolve(Query{Features: f, Alg: bench.PR, Nodes: 4})
	tiered := p.Resolve(Query{Features: f, Alg: bench.PR, Nodes: 4,
		Tier: tierCfg(f, 0.25, numa.TierHot, 4)})
	if plain == tiered {
		t.Fatal("tiered query returned the untiered cached decision")
	}
	if tiered.Raw < plain.Raw {
		t.Errorf("tiered pick raw cost %v below untiered %v", tiered.Raw, plain.Raw)
	}
	again := p.Resolve(Query{Features: f, Alg: bench.PR, Nodes: 4,
		Tier: tierCfg(f, 0.25, numa.TierHot, 4)})
	if again != tiered {
		t.Error("identical tiered query missed the decision cache")
	}
}

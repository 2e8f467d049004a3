package plan

import (
	"testing"

	"polymer/internal/bench"
	"polymer/internal/gen"
	"polymer/internal/mem"
	"polymer/internal/numa"
)

// TestWidthOrderingAdversarial is the regression gate for the planner's
// width ordering on degenerate shapes. The seed model split a
// traversal's edge work uniformly across threads, so it predicted
// wide-wins on a star (where the hub's CSR row serializes everything
// and barriers dominate, so narrow truly wins) and missed the
// per-superstep dense scans on a path (where every level crosses the
// dense threshold and narrow truly loses). For each decisive shape the
// RAW prediction's width argmin must match the measured one — raw, not
// the planner's margined pick, because the deviation margin could mask
// a re-inverted model at the widths the margin happens to favour.
//
// Shapes where the measured width deltas are nanosecond-scale near-ties
// (star-in: the source never reaches the hub's in-edges, so there is no
// work to order) are deliberately excluded: asserting an argmin over
// noise-level deltas would pin model behaviour the simulator does not
// distinguish.
func TestWidthOrderingAdversarial(t *testing.T) {
	topo := numa.IntelXeon80()
	const cores = 2
	widths := []int{4, 2, 1}

	shapes := map[string]gen.Named{}
	for _, a := range gen.Adversarial() {
		shapes[a.Name] = a
	}

	native := func(sys bench.System) mem.Placement {
		if sys == bench.Polymer {
			return mem.CoLocated
		}
		return mem.Interleaved
	}

	cases := []struct {
		shape string
		alg   bench.Algo
	}{
		// Star: one hub row serializes the traversal; width buys nothing
		// and barrier growth makes it a loss.
		{"star-out", bench.BFS},
		{"star-out", bench.SSSP},
		// Path: every level is dense (frontier edges > |E|/20), so each
		// superstep scans the whole vertex set — width genuinely helps.
		{"path", bench.BFS},
		// Cycle above the dense threshold stays sparse: diameter-many
		// barrier rounds dominate and narrow wins.
		{"cycle-65", bench.BFS},
	}

	for _, tc := range cases {
		a, ok := shapes[tc.shape]
		if !ok {
			t.Fatalf("adversarial corpus lost shape %q", tc.shape)
		}
		e := CorpusEntry{Name: a.Name, N: a.N, E: a.Edges}
		g := BuildGraph(e, tc.alg)
		f := Profile(g)
		for _, sys := range []bench.System{bench.Polymer, bench.Ligra} {
			t.Run(tc.shape+"/"+string(tc.alg)+"/"+string(sys), func(t *testing.T) {
				pl := native(sys)
				var predBest, simBest int
				var predMin, simMin float64
				for i, w := range widths {
					c := Candidate{Engine: sys, Placement: pl, Nodes: w}
					pred := Predict(f, tc.alg, topo, c, cores)
					m := numa.NewMachine(topo, w, cores)
					r, err := bench.RunWith(sys, tc.alg, g, m, bench.Options{Layout: pl, LayoutSet: true})
					if err != nil {
						t.Fatalf("w=%d: %v", w, err)
					}
					t.Logf("w=%d pred=%.4gs sim=%.4gs", w, pred, r.SimSeconds)
					if i == 0 || pred < predMin {
						predMin, predBest = pred, w
					}
					if i == 0 || r.SimSeconds < simMin {
						simMin, simBest = r.SimSeconds, w
					}
				}
				if predBest != simBest {
					t.Errorf("width ordering inverted: model prefers %d nodes, simulator %d", predBest, simBest)
				}
			})
		}
	}
}

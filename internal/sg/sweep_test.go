package sg

import (
	"testing"

	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
)

// Scheduler-balanced charging divides each part's totals once, by the
// part's S threads, and floors: a thread carries floor(total ÷ S), so up to
// S−1 units of every count go uncharged each phase. The rule is pinned
// here, on totals of remainder S−1, for Polymer's shape (P = nodes, S =
// cores per node) and Ligra's (P = 1, S = all threads), so that changing
// it is one deliberate re-baseline. The edge counter takes the undivided
// totals, and a part without rows is left alone.
func TestBalanceFloorsPartTotals(t *testing.T) {
	n, edges := gen.Star(12)
	g := graph.FromEdges(n, edges, false)
	for _, tc := range []struct {
		name   string
		bounds []int
		slots  int64
	}{
		{"P=nodes", []int{0, 4, 8, n}, 2},
		{"P=1", []int{0, n}, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &Sweep{}
			if err := s.Init("test", g, numa.NewMachine(numa.IntelXeon80(), 3, 2), nil); err != nil {
				t.Fatal(err)
			}
			s.InitSweep(tc.bounds, SweepConfig{})
			if int64(s.slots) != tc.slots {
				t.Fatalf("S = %d, want %d", s.slots, tc.slots)
			}
			counted := func(c *Counts) []*int64 {
				f := []*int64{&c.Edges, &c.Updates, &c.CondChecks, &c.Lookups, &c.Appends}
				for o := range c.RowsByOwner {
					f = append(f, &c.RowsByOwner[o], &c.ActiveByOwner[o])
				}
				return f
			}
			parts := make([]Part, len(s.counts))
			var totalEdges int64
			for p := range parts {
				rs := Rows{Idx: []int64{0, 1}}
				if p == 1 { // the middle node of three holds no rows
					rs.Idx = rs.Idx[:1]
				}
				parts[p] = Part{Flat: &rs, ChunkRows: []int{0, rs.Len()}}
				for i, f := range counted(&s.counts[p]) {
					*f = tc.slots*int64(10*p+i) + tc.slots - 1
				}
				if parts[p].Len() > 0 {
					totalEdges += s.counts[p].Edges
				}
			}
			l := NewLayout(parts, nil, int(tc.slots))
			s.balance(&l)

			if s.Edges != totalEdges {
				t.Errorf("edge counter %d, want the undivided totals %d", s.Edges, totalEdges)
			}
			for p := range parts {
				for i, f := range counted(&s.counts[p]) {
					want := int64(10*p + i)
					if parts[p].Len() == 0 {
						want = tc.slots*want + tc.slots - 1
					}
					if *f != want {
						t.Errorf("part %d, count %d: %d, want %d", p, i, *f, want)
					}
				}
			}
		})
	}
}

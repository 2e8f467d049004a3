package main

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/mutate"
)

func bodies(pop []query) [][]byte {
	var out [][]byte
	for _, q := range pop {
		out = append(out, q.body)
	}
	return out
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	draw := func(seed uint64) []int {
		z := newZipf(54, zipfS, seed)
		out := make([]int, 1000)
		for i := range out {
			out[i] = z.next()
		}
		return out
	}
	if !reflect.DeepEqual(draw(1), draw(1)) || reflect.DeepEqual(draw(1), draw(2)) {
		t.Error("the Zipf schedule must repeat for a seed and differ between seeds")
	}
	if !reflect.DeepEqual(bodies(hotPopulation(1, "small")), bodies(hotPopulation(1, "small"))) ||
		reflect.DeepEqual(bodies(hotPopulation(1, "small")), bodies(hotPopulation(2, "small"))) {
		t.Error("serve-hot's population must repeat for a seed and differ between seeds")
	}
	if n := len(hotPopulation(1, "small")); n != 54 {
		t.Errorf("serve-hot has %d bodies, the README says 54", n)
	}
	if n := len(churnPopulation(1, "small")); n != 24 {
		t.Errorf("serve-churn has %d read queries, the README says 24", n)
	}
	if !reflect.DeepEqual(cornerSources(1), cornerSources(1)) || reflect.DeepEqual(cornerSources(1), cornerSources(2)) {
		t.Error("BFS sources must repeat for a seed and differ between seeds")
	}
}

func TestZipfFavoursTheHead(t *testing.T) {
	z := newZipf(54, zipfS, 7)
	counts := make([]int, 54)
	for i := 0; i < 20000; i++ {
		counts[z.next()]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] || counts[53] == 0 {
		t.Errorf("Zipf(1.1) draws are not head-heavy over the whole population: %v", counts)
	}
}

// The road grid's shortcuts run down-right, so only the top-right and
// bottom-left corners are equally far from everything for every seed.
func TestBFSSourcesSitInTheAntiDiagonalCorners(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		srcs := cornerSources(seed)
		if len(srcs) != 3 || srcs[0] == srcs[1] || srcs[0] == srcs[2] || srcs[1] == srcs[2] {
			t.Fatalf("seed %d: want three distinct sources, got %v", seed, srcs)
		}
		for _, s := range srcs {
			r, c := int(s)/roadSide, int(s)%roadSide
			topRight := r < 2 && c >= roadSide-2
			bottomLeft := r >= roadSide-2 && c < 2
			if !topRight && !bottomLeft {
				t.Errorf("seed %d: source %d at (%d,%d) is not in an anti-diagonal corner block", seed, s, r, c)
			}
		}
	}
}

// Every churn block holds the same kinds of read; the seed only orders
// them, and the traversal sources take turns.
func TestChurnBlocksAreAlike(t *testing.T) {
	pop := churnPopulation(1, "tiny")
	kinds := func(reads []int) string {
		var ks []string
		for _, r := range reads {
			ks = append(ks, pop[r].algo+"/"+pop[r].system)
		}
		sort.Strings(ks)
		return fmt.Sprint(ks)
	}
	rng1, rng2 := gen.NewRNG(1), gen.NewRNG(2)
	want := kinds(churnReads(0, gen.NewRNG(9)))
	if want != "[bfs/ligra bfs/polymer pr/ pr/ligra pr/polymer pr/polymer sssp/polymer]" {
		t.Fatalf("block 0 holds %s", want)
	}
	seen := make(map[int]bool)
	differs := false
	for b := 0; b < 14; b++ {
		a, c := churnReads(b, rng1), churnReads(b, rng2)
		if len(a) != churnBlock-1 || kinds(a) != want || kinds(c) != want {
			t.Errorf("block %d: %s", b, kinds(a))
		}
		differs = differs || !reflect.DeepEqual(a, c)
		for _, r := range a {
			seen[r] = true
		}
	}
	if !differs {
		t.Error("two seeds ordered every block alike")
	}
	if len(seen) != len(pop) {
		t.Errorf("fourteen blocks used %d of the %d queries", len(seen), len(pop))
	}
}

// Every op of the mutation stream applies: a delete names an edge that an
// earlier batch inserted and no later batch has deleted.
func TestMutationStream(t *testing.T) {
	gen1, gen2, other := newMutationStream(1, gen.PowerLaw, "tiny"), newMutationStream(1, gen.PowerLaw, "tiny"), newMutationStream(2, gen.PowerLaw, "tiny")
	type edge struct{ s, d graph.Vertex }
	live := make(map[edge]int)
	differs := false
	for batch := 0; batch < 40; batch++ {
		body, ops := gen1.next()
		again, _ := gen2.next()
		if !bytes.Equal(body, again) {
			t.Fatalf("batch %d differs between two streams of one seed", batch)
		}
		if b, _ := other.next(); !bytes.Equal(body, b) {
			differs = true
		}
		if len(ops) != mutateOps {
			t.Fatalf("batch %d has %d ops", batch, len(ops))
		}
		inserted := make(map[edge]int)
		deletes := 0
		for _, op := range ops {
			e := edge{op.Src, op.Dst}
			if op.Kind == mutate.OpDelete {
				deletes++
				if live[e] == 0 {
					t.Fatalf("batch %d deletes %v, which no earlier batch left live", batch, e)
				}
				live[e]--
			} else {
				inserted[e]++
			}
		}
		for e, n := range inserted {
			live[e] += n
		}
		if batch > 0 && deletes != mutateOps/4 {
			t.Errorf("batch %d: %d deletes, want one op in four", batch, deletes)
		}
	}
	if !differs {
		t.Error("two seeds generated the same mutation stream")
	}
	if len(gen1.all) != 40*mutateOps {
		t.Errorf("the stream remembers %d ops for the oracle, want %d", len(gen1.all), 40*mutateOps)
	}
}

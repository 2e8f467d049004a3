package graph

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func randomEdges(seed int64) (int, []Edge) {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(40)
	m := rng.Intn(120)
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{Vertex(rng.Intn(n)), Vertex(rng.Intn(n)), float32(rng.Intn(100)) + 1}
	}
	return n, edges
}

func edgesEqual(a, b []Edge, weighted bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Src != b[i].Src || a[i].Dst != b[i].Dst {
			return false
		}
		if weighted && a[i].Wt != b[i].Wt {
			return false
		}
	}
	return true
}

func TestEdgeListRoundTrip(t *testing.T) {
	f := func(seed int64, weighted bool) bool {
		n, edges := randomEdges(seed)
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, n, edges, weighted); err != nil {
			return false
		}
		n2, edges2, w2, err := ReadEdgeList(&buf)
		if err != nil || w2 != weighted || n2 != n {
			return false
		}
		return edgesEqual(edges, edges2, weighted)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
	// Edges lists a graph in out-direction order, so on a list already in
	// that order it is FromEdges' inverse, with and without weights.
	for _, weighted := range []bool{false, true} {
		n, edges := randomEdges(7)
		slices.SortStableFunc(edges, func(a, b Edge) int { return cmp.Compare(a.Src, b.Src) })
		g := FromEdges(n, edges, weighted)
		sameGraph(t, FromEdges(n, g.Edges(), g.Weighted()), g)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	f := func(seed int64, weighted bool) bool {
		n, edges := randomEdges(seed)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, n, edges, weighted); err != nil {
			return false
		}
		n2, edges2, w2, err := ReadBinary(&buf)
		if err != nil || w2 != weighted || n2 != n {
			return false
		}
		return edgesEqual(edges, edges2, weighted)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestReadEdgeListWithoutHeader(t *testing.T) {
	in := "0 1\n1 2\n# a stray comment\n2 0\n"
	n, edges, weighted, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if weighted || n != 3 || len(edges) != 3 {
		t.Fatalf("n=%d m=%d weighted=%t", n, len(edges), weighted)
	}
}

func TestReadEdgeListMalformed(t *testing.T) {
	for _, in := range []string{"0\n", "a b\n", "# 3 1 true\n0 1 xyz\n"} {
		if _, _, _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q should fail", in)
		}
	}
}

func TestReadBinaryBadMagic(t *testing.T) {
	buf := bytes.Repeat([]byte{0}, 64)
	if _, _, _, err := ReadBinary(bytes.NewReader(buf)); err == nil {
		t.Fatal("bad magic must be rejected")
	}
}

func TestReadBinaryTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, 3, []Edge{{0, 1, 0}, {1, 2, 0}}, false); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, _, _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated stream must be rejected")
	}
}

package gen

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"polymer/internal/graph"
)

// edgeDigest is FNV-1a (64-bit) over each edge's Src, Dst and Wt bits,
// little-endian, in the order given.
func edgeDigest(edges []graph.Edge) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 0, 12*1024)
	for i, e := range edges {
		w := math.Float32bits(e.Wt)
		buf = append(buf,
			byte(e.Src), byte(e.Src>>8), byte(e.Src>>16), byte(e.Src>>24),
			byte(e.Dst), byte(e.Dst>>8), byte(e.Dst>>16), byte(e.Dst>>24),
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
		if len(buf) == cap(buf) || i == len(edges)-1 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	return h.Sum64()
}

// datasetDigests pins the bytes every generated input is made of: each
// Load at Tiny and Small scale, weighted and not, hashed in Edges() order,
// and the benchmark's engine-dense and engine-sparse generator outputs at
// seed 7, hashed in the order the generator returns them. A digest that
// moves is a change to every graph built from that input, and with it to
// every simulated figure reported on it; it is edited only for a
// deliberate change to a generator.
var datasetDigests = map[string]uint64{
	"Load(powerlaw,small,false)": 0xdb790361fed0004e,
	"Load(powerlaw,small,true)":  0x1c535dc8567d98c5,
	"Load(powerlaw,tiny,false)":  0x43ac84a8606c7f53,
	"Load(powerlaw,tiny,true)":   0xa8b78b32dd12ce57,
	"Load(rmat24,small,false)":   0x0d032589310eb9f3,
	"Load(rmat24,small,true)":    0x78014b69ce9574bb,
	"Load(rmat24,tiny,false)":    0xd28649b1ac66a474,
	"Load(rmat24,tiny,true)":     0x534f2fd38cf842bb,
	"Load(rmat27,small,false)":   0x421b94bb7a9e84a4,
	"Load(rmat27,small,true)":    0x2925f0cb5160f6d9,
	"Load(rmat27,tiny,false)":    0x0c5d159975aa5c5b,
	"Load(rmat27,tiny,true)":     0x15bf6583a6843b88,
	"Load(roadUS,small,false)":   0x86df43830e7bb249,
	"Load(roadUS,small,true)":    0x86df43830e7bb249,
	"Load(roadUS,tiny,false)":    0x3a2a36cfb8ca3af9,
	"Load(roadUS,tiny,true)":     0x3a2a36cfb8ca3af9,
	"Load(twitter,small,false)":  0x112d5986eb1d7e8c,
	"Load(twitter,small,true)":   0xf355e1aa8451410f,
	"Load(twitter,tiny,false)":   0x6143873667f0a9a4,
	"Load(twitter,tiny,true)":    0x1986d89494d80109,
	"RMAT(15,16,7)":              0xe42cb6e2b3930539,
	"RoadGrid(200,200,7)":        0x6d861a12837d68fd,
}

// digestCases returns every pinned input's name and a function making its
// edge list.
func digestCases() map[string]func() []graph.Edge {
	cases := map[string]func() []graph.Edge{
		"RMAT(15,16,7)":       func() []graph.Edge { _, e := RMAT(15, 16, 7); return e },
		"RoadGrid(200,200,7)": func() []graph.Edge { _, e := RoadGrid(200, 200, 7); return e },
	}
	for _, d := range Datasets() {
		for sc, scName := range map[Scale]string{Tiny: "tiny", Small: "small"} {
			for _, weighted := range []bool{false, true} {
				cases[fmt.Sprintf("Load(%s,%s,%v)", d, scName, weighted)] = func() []graph.Edge {
					g, err := Load(d, sc, weighted)
					if err != nil {
						panic(err)
					}
					return g.Edges()
				}
			}
		}
	}
	return cases
}

// TestDatasetDigests holds every generated input to its checked-in
// digest, so a faster or restructured generator must produce the same
// bytes as the one it replaces.
func TestDatasetDigests(t *testing.T) {
	cases := digestCases()
	if len(cases) != len(datasetDigests) {
		t.Errorf("%d inputs, %d digests", len(cases), len(datasetDigests))
	}
	for name, edges := range cases {
		want, ok := datasetDigests[name]
		got := edgeDigest(edges())
		if !ok || got != want {
			t.Errorf("%q: digest %#016x, want %#016x", name, got, want)
		}
	}
}

// rmatFloat is the reference RMAT must match edge for edge: each level
// draws a float in [0, 1) and picks the quadrant by comparing it with the
// cumulative probabilities in turn.
func rmatFloat(scale int, edgeFactor int, seed uint64) (int, []graph.Edge) {
	const a, b, c = 0.57, 0.19, 0.19
	n := 1 << scale
	m := n * edgeFactor
	rng := NewRNG(seed)
	edges := make([]graph.Edge, m)
	for i := range edges {
		var src, dst int
		for bit := scale - 1; bit >= 0; bit-- {
			p := rng.Float64()
			switch {
			case p < a:
				// top-left: no bits set
			case p < a+b:
				dst |= 1 << bit
			case p < a+b+c:
				src |= 1 << bit
			default:
				src |= 1 << bit
				dst |= 1 << bit
			}
		}
		edges[i] = graph.Edge{Src: graph.Vertex(src), Dst: graph.Vertex(dst)}
	}
	return n, edges
}

// TestRMATMatchesFloatCompares: RMAT's integer thresholds pick the
// quadrant rmatFloat's float compares pick, for every draw, at every scale
// from 1 to 16 and three seeds.
func TestRMATMatchesFloatCompares(t *testing.T) {
	for scale := 1; scale <= 16; scale++ {
		for _, seed := range []uint64{0, 7, 0x27} {
			n, got := RMAT(scale, 16, seed)
			wn, want := rmatFloat(scale, 16, seed)
			if n != wn || len(got) != len(want) {
				t.Fatalf("RMAT(%d,16,%d): %d vertices and %d edges, want %d and %d", scale, seed, n, len(got), wn, len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("RMAT(%d,16,%d): edge %d is %v, want %v", scale, seed, i, got[i], want[i])
				}
			}
		}
	}
}

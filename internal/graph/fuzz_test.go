package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadEdgeList checks the text parser never panics and that anything
// it accepts round-trips through the writer.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("# 3 2 false\n0 1\n1 2\n")
	f.Add("# 2 1 true\n0 1 3.5\n")
	f.Add("0 1\n# stray comment\n2 0\n")
	f.Add("")
	f.Add("a b c\n")
	f.Add("# -1 2 false\n0 1\n")     // negative vertex count
	f.Add("# 2 -5 true\n0 1 1\n")    // negative edge count
	f.Add("# 2 1 false\n0 5\n")      // vertex outside declared range
	f.Add("# 3 5 false\n0 1\n1 2\n") // fewer edges than declared
	f.Add("# 2 1 true\n0 1 NaN\n")
	f.Add("4294967295 0\n")
	// Adversarial shapes (mirroring internal/gen's corpus, inlined —
	// the gen package imports graph, so it cannot seed us directly).
	f.Add("# 1 1 false\n0 0\n")                     // single self-loop
	f.Add("# 3 5 false\n0 1\n0 1\n0 1\n1 2\n1 2\n") // duplicate edges
	f.Add("# 5 4 false\n0 1\n0 2\n0 3\n0 4\n")      // star out of 0
	f.Add("# 65 1 false\n63 64\n")                  // crosses a 64-bit bitmap word
	f.Add("# 10 1 false\n0 1\n")                    // isolated tail vertices
	f.Add("# 2 1 true\n0 1 1e38\n")                 // near float32 max
	f.Add("# 2 1 true\n0 1 1e-40\n")                // float32 denormal
	f.Fuzz(func(t *testing.T, in string) {
		n, edges, weighted, err := ReadEdgeList(strings.NewReader(in))
		if err != nil {
			return
		}
		for _, e := range edges {
			if int(e.Src) >= n || int(e.Dst) >= n {
				t.Fatalf("accepted edge (%d,%d) outside [0,%d)", e.Src, e.Dst, n)
			}
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, n, edges, weighted); err != nil {
			t.Fatal(err)
		}
		n2, edges2, w2, err := ReadEdgeList(&buf)
		if err != nil || n2 != n || w2 != weighted || len(edges2) != len(edges) {
			t.Fatalf("round trip failed: %v n=%d/%d m=%d/%d", err, n, n2, len(edges), len(edges2))
		}
	})
}

// FuzzReadDIMACS checks the DIMACS parser never panics, validates vertex
// ranges on accepted input, and that anything it accepts survives a
// write/read round trip identically (1-based ids, %g weights).
func FuzzReadDIMACS(f *testing.F) {
	f.Add("p sp 3 1\na 1 2 5\n")
	f.Add("c x\np sp 2 2\na 1 2 1\na 2 1 1\n")
	f.Add("p sp 0 0\n")
	f.Add("garbage")
	f.Add("p sp 2 1\np sp 2 1\na 1 2 1\n") // duplicate problem line
	f.Add("p sp 2 1\na 1 2 NaN\n")         // non-finite weight
	f.Add("p sp 2 1\na 1 2 1\na 2 1 1\n")  // more arcs than declared
	f.Add("p sp 2 3\na 1 2 1\n")           // fewer arcs than declared
	f.Add("p sp -1 -1\n")
	// Adversarial shapes.
	f.Add("p sp 1 1\na 1 1 1\n")                            // self-loop
	f.Add("p sp 3 4\na 1 2 1\na 1 2 1\na 2 3 1\na 2 3 1\n") // duplicate arcs
	f.Add("p sp 65 1\na 64 65 1\n")                         // 64-bit word boundary
	f.Add("p sp 2 1\na 1 2 3.3999999\n")                    // weight needs full float32 precision
	f.Add("p sp 2 1\na 1 2 1e38\n")                         // near float32 max
	f.Fuzz(func(t *testing.T, in string) {
		n, edges, err := ReadDIMACS(strings.NewReader(in))
		if err != nil {
			return
		}
		for _, e := range edges {
			if int(e.Src) >= n || int(e.Dst) >= n {
				t.Fatalf("accepted arc (%d,%d) outside [0,%d)", e.Src, e.Dst, n)
			}
		}
		var buf bytes.Buffer
		if err := WriteDIMACS(&buf, n, edges); err != nil {
			t.Fatal(err)
		}
		n2, edges2, err := ReadDIMACS(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if n2 != n || len(edges2) != len(edges) {
			t.Fatalf("round trip changed shape: n=%d/%d m=%d/%d", n, n2, len(edges), len(edges2))
		}
		for i := range edges {
			if edges[i] != edges2[i] {
				t.Fatalf("round trip changed arc %d: %v != %v", i, edges[i], edges2[i])
			}
		}
	})
}

// FuzzReadBinary checks the binary parser handles arbitrary byte streams.
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteBinary(&buf, 3, []Edge{{0, 1, 0}, {1, 2, 0}}, false)
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 40))
	f.Add(buf.Bytes()[:len(buf.Bytes())-3]) // truncated edge stream
	var bad bytes.Buffer
	_ = WriteBinary(&bad, 2, []Edge{{0, 9, 0}}, false) // id outside declared n
	f.Add(bad.Bytes())
	f.Fuzz(func(t *testing.T, in []byte) {
		// Cap the declared edge count implicitly by input length: the
		// reader must fail gracefully on truncated streams.
		if len(in) > 1<<16 {
			in = in[:1<<16]
		}
		n, edges, weighted, err := ReadBinary(bytes.NewReader(in))
		if err != nil {
			return
		}
		_ = weighted
		for _, e := range edges {
			if int(e.Src) >= n || int(e.Dst) >= n {
				t.Fatalf("accepted edge (%d,%d) outside [0,%d)", e.Src, e.Dst, n)
			}
		}
	})
}

package core

import (
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/sg"
	"polymer/internal/state"
)

// goid returns the calling goroutine's id, parsed from its stack header.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	id, err := strconv.ParseUint(strings.Fields(string(buf[:n]))[1], 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// writerKernel records, per simulated node, which goroutine wrote into
// the node's vertex range. The slots are plain memory on purpose: two
// host workers writing one node's targets is also a -race report.
type writerKernel struct {
	t      *testing.T
	bounds []int
	writer []uint64 // per node: goroutine of the last write into it
	writes []int64
	mixed  []bool
	rows   atomic.Int64 // PushRow calls, from every host worker
	byEdge atomic.Int64 // Update calls
}

func (k *writerKernel) Update(s, d graph.Vertex, w float32) bool {
	k.byEdge.Add(1)
	k.write(d)
	return true
}

// PushRow makes writerKernel an sg.RowKernel: Polymer's push hands it
// whole rows, never shared, exactly when the phase builds no output.
func (k *writerKernel) PushRow(s graph.Vertex, cols []graph.Vertex, wts []float32, shared bool) {
	if shared {
		k.t.Error("push phase passed shared=true: its targets have one writer")
	}
	k.rows.Add(1)
	for _, d := range cols {
		k.write(d)
	}
}

func (k *writerKernel) write(d graph.Vertex) {
	p := 0
	for int(d) >= k.bounds[p+1] {
		p++
	}
	id := goid()
	if k.writes[p] > 0 && k.writer[p] != id {
		k.mixed[p] = true
	}
	k.writer[p] = id
	k.writes[p]++
}

func (k *writerKernel) UpdateAtomic(s, d graph.Vertex, w float32) bool {
	k.t.Error("push phase took the atomic update path")
	return true
}

func (k *writerKernel) Cond(graph.Vertex) bool { return true }

// TestPushTargetsHaveOneWriter pins what lets the push phases call
// Update (or an unshared PushRow) instead of UpdateAtomic: during a
// dense-push or sparse phase, every write into node p's vertex range
// comes from the host worker that runs all of p's simulated threads. Run
// it under -race at -cpu 1,2,8; 3x4 and 5x3 are shapes where threads/W is
// not a multiple of the cores per node, so an assignment that split
// threads evenly would cut a node. The "rows" mode is the dense phase
// under NoOutput, the one place the engine may use the kernel's row form.
func TestPushTargetsHaveOneWriter(t *testing.T) {
	n, edges := gen.RMAT(9, 8, 5)
	g := graph.FromEdges(n, edges, false)
	for _, shape := range [][2]int{{4, 2}, {3, 4}, {5, 3}, {8, 10}} {
		for _, mode := range []string{"dense", "sparse", "rows"} {
			sparse := mode == "sparse"
			m := testMachine(shape[0], shape[1])
			opt := DefaultOptions()
			opt.Mode = Push
			opt.Adaptive = sparse
			e := MustNew(g, m, opt)

			threadOn := make([]uint64, m.Threads())
			e.SetFaultHook(func(th int) error {
				threadOn[th] = goid()
				return nil
			})
			k := &writerKernel{
				t: t, bounds: e.Bounds(),
				writer: make([]uint64, m.Nodes), writes: make([]int64, m.Nodes), mixed: make([]bool, m.Nodes),
			}
			frontier := state.NewAll(e.Bounds())
			if sparse {
				// As many low-degree vertices as stay under the switch
				// to dense (|V_a|+|E_a| <= |E|/20), spread over the nodes.
				b := state.NewBuilder(e.Bounds(), 1, false)
				budget := g.NumEdges() / 40
				for v := n - 1; v >= 0 && budget > 0; v-- {
					if d := g.OutDegree(graph.Vertex(v)); d > 0 && d < 8 {
						b.Add(0, uint32(v))
						budget -= d + 1
					}
				}
				frontier = b.Build()
			}
			e.EdgeMap(frontier, k, sg.Hints{DensePush: true, NoOutput: mode == "rows"})
			if err := e.Err(); err != nil {
				t.Fatal(err)
			}
			if sparse != (e.Metrics().SparsePhases == 1) {
				t.Fatalf("%v %s: ran the other phase kind", m, mode)
			}
			if byRow := k.rows.Load() > 0; byRow != (mode == "rows") || byRow == (k.byEdge.Load() > 0) {
				t.Fatalf("%v %s: %d PushRow and %d Update calls", m, mode, k.rows.Load(), k.byEdge.Load())
			}
			if got := e.Metrics().EdgesProcessed; got != g.NumEdges() && !sparse {
				t.Fatalf("%v %s: %d edges processed, want %d", m, mode, got, g.NumEdges())
			}

			var total int64
			for p := 0; p < m.Nodes; p++ {
				total += k.writes[p]
				owner := threadOn[p*m.CoresPerNode]
				for c := 1; c < m.CoresPerNode; c++ {
					if got := threadOn[p*m.CoresPerNode+c]; got != owner {
						t.Errorf("%v %s: node %d's threads ran on goroutines %d and %d", m, mode, p, owner, got)
					}
				}
				if k.mixed[p] || (k.writes[p] > 0 && k.writer[p] != owner) {
					t.Errorf("%v %s: node %d's targets were written off its owning worker", m, mode, p)
				}
			}
			if total == 0 {
				t.Fatalf("%v %s: phase applied no edge", m, mode)
			}
			e.Close()
		}
	}
}

package core

import (
	"runtime"
	"strconv"
	"strings"
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

// writerKernel checks that every write of a phase comes from the
// goroutine that started it, and counts the calls by form.
type writerKernel struct {
	t      *testing.T
	caller uint64
	writes int64
	rows   int64 // PushRows calls
	byEdge int64 // Update calls
}

func (k *writerKernel) Update(s, d graph.Vertex, w float32) bool {
	k.byEdge++
	k.write()
	return true
}

// PushRows makes writerKernel an sg.RowKernel: Polymer's push hands it
// segments of rows exactly when the phase builds no output.
func (k *writerKernel) PushRows(rs *sg.Rows, lo, hi int, active []uint64, base int) (activeRows, edges int64) {
	k.rows++
	for r := lo; r < hi; r++ {
		if !sg.InLeaf(active, base, rs.ID(r)) {
			continue
		}
		activeRows++
		for j := rs.Idx[r]; j < rs.Idx[r+1]; j++ {
			k.write()
			edges++
		}
	}
	return activeRows, edges
}

func (k *writerKernel) write() {
	if id := goid(); id != k.caller {
		k.t.Errorf("write from goroutine %d, the phase was started on %d", id, k.caller)
	}
	k.writes++
}

func (k *writerKernel) Cond(graph.Vertex) bool { return true }

// TestPushTargetsHaveOneWriter pins what lets kernels use plain loads and
// stores: during a dense-push or sparse phase every simulated thread, and
// so every kernel write, runs on the goroutine that called EdgeMap. Run it
// under -race at -cpu 1,2,8. The "rows" mode is the dense phase under
// NoOutput, the one place the engine may use the kernel's segment form.
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

			k := &writerKernel{t: t, caller: goid()}
			e.SetFaultHook(func(th int) error {
				if id := goid(); id != k.caller {
					t.Errorf("%v %s: thread %d ran on goroutine %d, the caller is %d", m, mode, th, id, k.caller)
				}
				return nil
			})
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
			if byRow := k.rows > 0; byRow != (mode == "rows") || byRow == (k.byEdge > 0) {
				t.Fatalf("%v %s: %d PushRows and %d Update calls", m, mode, k.rows, k.byEdge)
			}
			if got := e.Metrics().EdgesProcessed; got != g.NumEdges() && !sparse {
				t.Fatalf("%v %s: %d edges processed, want %d", m, mode, got, g.NumEdges())
			}

			if k.writes == 0 {
				t.Fatalf("%v %s: phase applied no edge", m, mode)
			}
			e.Close()
		}
	}
}

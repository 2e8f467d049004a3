// Warm-run conformance: after a commit the serving layer answers a BFS or
// SSSP miss by repairing an earlier answer for the edits in between
// (bench.Options.Warm), so a warm response is only indistinguishable from a
// cold one if the repair equals the cold run bit for bit. CheckWarm
// asserts exactly that over a batch stream, from every earlier snapshot's
// answer to every later snapshot.

package conform

import (
	"fmt"

	"polymer/internal/bench"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/mutate"
)

// WarmStream is a deterministic random stream of batches batches of ops
// ops over g, mixing what a repair must get right: inserts (a weight of 0,
// unit, one time in eight, and one so small that it vanishes in a sum one
// time in eight), duplicate inserts, self-loops, deletes of base
// edges and of earlier inserts, and a pair deleted and re-inserted inside
// one batch. Its second batch also deletes every out-edge of src, cutting
// off the whole tree below it, and its third links src to a vertex no edge
// reached before, so a vertex becomes reachable.
func WarmStream(g *graph.Graph, src graph.Vertex, seed uint64, batches, ops int) [][]mutate.Op {
	rng := gen.NewRNG(seed)
	n := g.NumVertices()
	base := g.Edges()
	var live []mutate.Op
	insert := func(s, d graph.Vertex) mutate.Op {
		op := mutate.Op{Kind: mutate.OpInsert, Src: s, Dst: d, Wt: float32(rng.Intn(99) + 1)}
		switch rng.Intn(8) {
		case 0:
			op.Wt = 0
		case 1:
			op.Wt = 1e-30 // rounds away against any other distance
		}
		live = append(live, op)
		return op
	}
	del := func(s, d graph.Vertex) mutate.Op { return mutate.Op{Kind: mutate.OpDelete, Src: s, Dst: d} }
	vertex := func() graph.Vertex { return graph.Vertex(rng.Intn(n)) }
	out := make([][]mutate.Op, batches)
	for b := range out {
		var batch []mutate.Op
		switch b {
		case 1:
			for _, d := range g.OutNeighbors(src) {
				batch = append(batch, del(src, d))
			}
		case 2:
			for v := range n {
				if g.InDegree(graph.Vertex(v)) == 0 && graph.Vertex(v) != src {
					batch = append(batch, insert(src, graph.Vertex(v)))
					break
				}
			}
		}
		for len(batch) < ops {
			switch rng.Intn(6) {
			case 0:
				batch = append(batch, insert(vertex(), vertex()))
			case 1:
				if len(live) > 0 {
					l := live[rng.Intn(len(live))]
					batch = append(batch, insert(l.Src, l.Dst))
				}
			case 2:
				v := vertex()
				batch = append(batch, insert(v, v))
			case 3:
				if len(base) > 0 {
					e := base[rng.Intn(len(base))]
					batch = append(batch, del(e.Src, e.Dst))
				}
			case 4:
				if len(live) > 0 {
					l := live[rng.Intn(len(live))]
					batch = append(batch, del(l.Src, l.Dst))
				}
			case 5:
				if len(base) > 0 {
					e := base[rng.Intn(len(base))]
					batch = append(batch, del(e.Src, e.Dst), insert(e.Src, e.Dst))
				}
			}
		}
		out[b] = batch
	}
	return out
}

// CheckWarm commits batches to st under the dataset name (scale 0, a
// fresh name per call) and, at every snapshot the store materializes over
// base, runs c cold and then warm from the cold answer at every earlier
// snapshot, over the edits st.Edits folds in between. Every warm output
// must equal the cold one bit for bit: Float64bits for SSSP distances,
// exact levels for BFS. c.Algo is BFS or SSSP, c.Engine Polymer or Ligra;
// BFS reads each snapshot's unweighted view, as the server does. It
// returns the first divergence, or the error that stopped the check.
func CheckWarm(st *mutate.Store, name string, c Case, base *graph.Graph, batches [][]mutate.Op) error {
	sys, alg := benchSystems[c.Engine], benchAlgos[c.Algo]
	opt := bench.Options{Src: c.Src}
	var priors []bench.Output
	for seq := range uint64(len(batches) + 1) {
		if seq > 0 {
			if _, err := st.Commit(name, 0, base.NumVertices(), batches[seq-1]); err != nil {
				return err
			}
		}
		g, err := st.GraphAt(name, 0, seq, base)
		if err != nil {
			return err
		}
		if c.Algo == BFS {
			g = g.Unweighted()
		}
		cold, err := bench.RunWith(sys, alg, g, c.Machine(), opt)
		if err != nil {
			return err
		}
		for from, prior := range priors {
			deleted, appended, err := st.Edits(name, 0, uint64(from), seq)
			if err != nil {
				return err
			}
			warm, err := bench.RunWith(sys, alg, g, c.Machine(), bench.Options{Src: c.Src,
				Warm: &bench.Warm{Prior: prior, Deleted: deleted, Appended: appended}})
			if err != nil {
				return fmt.Errorf("%s: warm from snapshot %d at %d: %w", c, from, seq, err)
			}
			if d := Compare(c, Policy{Exact: true}, cold.Out.Widen(), warm.Out.Widen()); d != nil {
				return fmt.Errorf("warm from snapshot %d at %d: %w", from, seq, d)
			}
		}
		priors = append(priors, cold.Out)
	}
	return nil
}

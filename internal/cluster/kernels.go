// The sharded kernels. Each is written so the committed values are a
// pure function of the previous round's committed state, independent of
// machine count, replica placement, goroutine scheduling and fault
// history:
//
//   - PageRank pulls: next[v] = (1-d)/n + d * Σ curr[u]*invOut[u] over
//     InNeighbors(v) in CSR order — the exact float expression the
//     sequential oracle evaluates, so the answer is bit-identical for
//     any cluster shape.
//   - BFS/SSSP push min-combine: every candidate dist[u]+w(u,v) is a sum
//     along a path, and min over floats is order-independent, so the
//     fixed point matches the oracle bit for bit.
//
// Charging follows the ledger discipline: sequential streams (edge
// lists, frontier scans, shard rewrites) and random element accesses
// (gather reads, min-combine updates) go to each machine's round epoch;
// cross-machine element flows are counted per (src, dst) machine and
// priced onto network links after the barrier.

package cluster

import (
	"polymer/internal/graph"
	"polymer/internal/numa"
	"polymer/internal/partition"
)

// edgeWeight mirrors the engines' convention: an absent or explicit-zero
// weight traverses at unit cost.
func edgeWeight(w float32) float64 {
	if w == 0 {
		return 1
	}
	return float64(w)
}

// prPhase runs one pull-mode PageRank round for machine mi's shards.
// Remote rank reads are counted per owning machine and priced as network
// pulls after the barrier.
func (c *Cluster) prPhase(mi int, owned []int) {
	m := c.ms[mi]
	threads := m.mach.Threads()
	local := c.scratchLocal[mi]
	remote := c.scratchRemote[mi]
	n := c.g.NumVertices()
	ws := int64(n) * 8
	// base must be computed with runtime float64 subtraction, exactly as
	// the oracle does: folding 1-0.85 in untyped constant arithmetic
	// rounds differently (1 ULP) and breaks bit-identity.
	damping := float64(prDamping)
	base := (1 - damping) / float64(n)
	for _, si := range owned {
		rng := c.shards[si].rng
		if rng.Len() == 0 {
			continue
		}
		for th, ch := range partition.VertexBalanced(rng.Len(), threads) {
			if ch.Len() == 0 {
				continue
			}
			lo, hi := rng.Lo+ch.Lo, rng.Lo+ch.Hi
			node := m.mach.NodeOfThread(th)
			for v := lo; v < hi; v++ {
				var sum float64
				for _, u := range c.g.InNeighbors(graph.Vertex(v)) {
					sum += c.curr[u] * c.invOut[u]
					if om := int(c.owner[c.vertexShard[u]]); om == mi {
						local[c.vertexNode[u]]++
					} else {
						remote[om]++
					}
				}
				c.next[v] = base + damping*sum
			}
			// In-edge stream and the shard's next-rank rewrite are
			// sequential; locally owned rank gathers are random reads
			// against the full rank vector.
			m.round.Access(th, numa.Seq, numa.Load, node, c.g.InEdgesBefore(hi)-c.g.InEdgesBefore(lo), 4, 0)
			m.round.Access(th, numa.Seq, numa.Store, node, int64(hi-lo), 8, 0)
			for nd, cnt := range local {
				if cnt > 0 {
					m.round.Access(th, numa.Rand, numa.Load, nd, cnt, 8, ws)
					local[nd] = 0
				}
			}
		}
	}
}

// scatterPhase runs the push half of a BFS/SSSP round for machine mi:
// walk the owned frontier, relax local targets in place, and buffer
// updates for remote owners.
func (c *Cluster) scatterPhase(alg Algo, mi int, owned []int) {
	m := c.ms[mi]
	threads := m.mach.Threads()
	local := c.scratchLocal[mi]
	msgs := c.msgs[mi]
	n := c.g.NumVertices()
	ws := int64(n) * 8
	for _, si := range owned {
		rng := c.shards[si].rng
		if rng.Len() == 0 {
			continue
		}
		for th, ch := range partition.VertexBalanced(rng.Len(), threads) {
			if ch.Len() == 0 {
				continue
			}
			lo, hi := rng.Lo+ch.Lo, rng.Lo+ch.Hi
			node := m.mach.NodeOfThread(th)
			var edges int64
			for v := lo; v < hi; v++ {
				if c.active[v] == 0 {
					continue
				}
				dv := c.curr[v]
				vv := graph.Vertex(v)
				nbrs := c.g.OutNeighbors(vv)
				var wts []float32
				if alg == SSSP {
					wts = c.g.OutWeights(vv)
				}
				edges += int64(len(nbrs))
				for j, u := range nbrs {
					cand := dv + 1
					if wts != nil {
						cand = dv + edgeWeight(wts[j])
					}
					if om := int(c.owner[c.vertexShard[u]]); om == mi {
						if cand < c.next[u] {
							c.next[u] = cand
							c.nextActive[u] = 1
						}
						local[c.vertexNode[u]]++
					} else {
						msgs[om].m = append(msgs[om].m, msg{v: u, val: cand})
					}
				}
			}
			// Frontier scan reads flags + distances sequentially; the
			// edge (and weight) stream is sequential; local relaxations
			// are random element updates against the distance vector.
			m.round.Access(th, numa.Seq, numa.Load, node, int64(hi-lo), 12, 0)
			if edges > 0 {
				wb := 4
				if alg == SSSP {
					wb = 8
				}
				m.round.Access(th, numa.Seq, numa.Load, node, edges, wb, 0)
			}
			for nd, cnt := range local {
				if cnt > 0 {
					m.round.Access(th, numa.Rand, numa.Store, nd, cnt, 8, ws)
					local[nd] = 0
				}
			}
		}
	}
}

// applyPhase drains the push updates addressed to machine mi's shards
// after the scatter barrier. One core per target node performs the
// min-combines — random element updates on the owning node.
func (c *Cluster) applyPhase(mi int) {
	m := c.ms[mi]
	local := c.scratchLocal[mi]
	n := c.g.NumVertices()
	ws := int64(n) * 8
	for from := range c.msgs {
		for _, mg := range c.msgs[from][mi].m {
			if mg.val < c.next[mg.v] {
				c.next[mg.v] = mg.val
				c.nextActive[mg.v] = 1
			}
			local[c.vertexNode[mg.v]]++
		}
	}
	for nd, cnt := range local {
		if cnt > 0 {
			m.round.Access(nd*m.mach.CoresPerNode, numa.Rand, numa.Store, nd, cnt, 12, ws)
			local[nd] = 0
		}
	}
}

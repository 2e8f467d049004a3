// The count estimator: the quantities an engine's charge recipe takes,
// estimated from the graph's profile, one representative superstep per
// phase kind (cost.go prices them). Every modelling choice the planner
// makes is a rule for estimating a count, here; none charges one.

package plan

import (
	"math"

	"polymer/internal/algorithms"
	"polymer/internal/barrier"
	"polymer/internal/bench"
	"polymer/internal/engines/galois"
	"polymer/internal/engines/xstream"
	"polymer/internal/mem"
	"polymer/internal/numa"
	"polymer/internal/par"
	"polymer/internal/sg"
)

// run is one algorithm's run on a graph of n vertices and m edges: the
// hints its driver passes and steps supersteps of a full frontier when
// iterated, else a traversal spanning about steps levels (supersteps).
// relax marks SSSP: its Cond never filters a target, so a dense pull
// scans every edge, and part of each frontier improves again next round.
type run struct {
	h               sg.Hints
	iterated, relax bool
	steps           int
	n, m            int64
}

// relaxAgain is the share of an SSSP frontier that improves again in the
// next superstep through a second in-edge, which a graph of mean degree d
// offers a share 1-1/d of its vertices.
const relaxAgain = 0.4

// estimateRun estimates alg's run on a graph with features f; false for
// an algorithm no engine serves under a session (see Candidates).
func estimateRun(f Features, alg bench.Algo) (run, bool) {
	w := run{h: algorithms.Hints[string(alg)].Normalize(), n: f.Vertices, m: f.Edges}
	switch alg {
	case bench.PR, bench.SpMV, bench.BP:
		w.iterated, w.steps = true, bench.DefaultIters
	case bench.BFS, bench.SSSP:
		// DiameterEst levels, plus the round that finds the frontier empty.
		w.steps, w.relax = max(f.DiameterEst+1, 2), alg == bench.SSSP
	default:
		return run{}, false
	}
	return w, true
}

// supersteps hands visit each superstep's frontier, the edges out of it,
// the targets it updates and the edges a dense pull would scan.
//
// An iterated superstep pushes along every edge. A traversal is the
// expected search from one source on a random graph of the profile's size
// and mean degree d: an unreached vertex is reached with probability
// 1-exp(-edges/n), and the frontier holds a vertex until the last level s.
// Such a search spans about log(n)/log(d) levels; a graph whose diameter
// is four times that is geometric, like a road grid, and its frontier
// grows by at most 4n/s² a level, a tent peaking at 2n/s. A BFS dense pull
// scans an unreached target's in-edges until one comes from the frontier:
// about n/frontier, at most d.
func (w run) supersteps(visit func(frontier, edges, updates, scan float64)) {
	n, m := float64(w.n), float64(w.m)
	if w.iterated {
		for range w.steps {
			visit(n, m, m, m)
		}
		return
	}
	d, s := m/n, w.steps
	grow, again := math.Inf(1), 0.0
	if d > 1 && float64(s) > 4*math.Log(n)/math.Log(d) {
		grow = 4 * n / float64(s*s)
	}
	if d > 1 && w.relax {
		again = relaxAgain * (1 - 1/d)
	}
	reached, frontier := 1.0, 1.0
	for k := 0; k < s || again > 0 && frontier >= 1; k++ {
		edges, fresh := frontier*d, 0.0
		if k+1 < s {
			fresh = min((n-reached)*(1-math.Exp(-edges/n)), frontier+grow)
		}
		next, scan := fresh+again*frontier, m
		if !w.relax {
			scan = (n - reached) * min(d, n/frontier)
		}
		visit(frontier, edges, next, scan)
		reached += fresh
		if frontier = next; k+1 < s {
			frontier = max(frontier, 1)
		}
	}
}

// sweep prices a run on an engine that runs the shared sweep under its own
// policy and charges cfg, as parts parts of slots threads, a part keying
// rows rows and the busiest holding verts vertices. A superstep is an edge
// phase in the mode cfg picks for its frontier, the supersteps of a mode
// priced as their average, times their number; an iterated run adds a
// VertexMap a superstep. A count is one thread's share of a part's, as the
// sweep's balance leaves it.
func (p *pricer) sweep(w run, cfg sg.SweepConfig, parts, slots int, rows, verts float64) {
	var kinds [3]struct{ times, frontier, edges, updates, scan float64 } // by sg.EdgeMode
	w.supersteps(func(frontier, edges, updates, scan float64) {
		k := &kinds[cfg.EdgeMode(int64(frontier), func() int64 { return int64(edges) }, w.m, w.h)]
		k.times, k.frontier, k.edges = k.times+1, k.frontier+frontier, k.edges+edges
		k.updates, k.scan = k.updates+updates, k.scan+scan
	})
	P, own := float64(parts), make([]int64, 2*parts)
	for mode, k := range kinds {
		if k.times == 0 {
			continue
		}
		share := func(x float64) int64 { return int64(x / P / k.times / float64(slots)) }
		c := sg.Counts{RowsByOwner: own[:parts], ActiveByOwner: own[parts:], Edges: share(k.edges), Updates: share(k.updates)}
		swept, active := k.times*rows, k.times*rows // a part's, over the kind
		switch sg.EdgeMode(mode) {
		case sg.DensePush:
			c.CondChecks = c.Edges
		case sg.DensePull:
			active, c.Edges = k.updates/P, share(k.scan)
		case sg.SparsePush:
			// Every part reads the whole frontier and finds a row for the
			// frontier vertices it holds one of.
			swept, active = k.frontier, k.frontier*rows/float64(w.n)
			c.Lookups, c.CondChecks, c.Appends = share(P*k.frontier), c.Edges, c.Updates
		}
		for o := range parts {
			c.RowsByOwner[o], c.ActiveByOwner[o] = share(swept), share(active)
		}
		p.phase(k.times, cfg.Barrier, true, func(th, node int) { cfg.ChargeEdges(sg.EdgeMode(mode), p.ep, th, node, &c, w.h) })
	}
	if w.iterated {
		// A leaf's words go to its part's threads 64 at a time.
		v := int64(verts)
		sched := par.MakeStrided((v+63)/64, 64, slots)
		p.phase(float64(w.steps), cfg.Barrier, false, func(th, node int) {
			words := sched.Len(th % slots)
			cfg.ChargeVertices(p.ep, th, node, true, words, min(v, 64*words))
		})
	}
}

// xstream prices an iterated run on X-Stream: a superstep streams, shuffles
// and gathers every edge and applies over every vertex, 256 at a time.
func (p *pricer) xstream(w run, r xstream.Recipe, threads int) {
	edges, steps, apply := w.m/int64(threads), float64(w.steps), par.MakeStrided(w.n, 256, threads)
	p.phase(steps, xstream.Barrier, true, func(th, node int) { r.Scatter(p.ep, th, node, edges, edges) })
	p.phase(steps, xstream.Barrier, true, func(th, node int) { r.Shuffle(p.ep, th, node, edges) })
	p.phase(steps, xstream.Barrier, true, func(th, node int) { r.Gather(p.ep, th, node, edges, edges) })
	p.phase(steps, xstream.Barrier, false, func(th, _ int) { r.Apply(p.ep, th, apply.Len(th)) })
}

// galois prices an iterated run on Galois: a superstep is one synchronous
// round of every vertex pulling along its in-edges.
func (p *pricer) galois(w run, r galois.Recipe, threads int) {
	edges, tasks := w.m/int64(threads), w.n/int64(threads)
	p.phase(float64(w.steps), galois.SyncBarrier, true, func(th, _ int) { r.Round(p.ep, th, edges, tasks, w.h.DataBytes) })
}

// modelTiers registers the demand classes on m as an engine does
// (sg.NewTiers): runtime state by the engine's rule frontier, topology as
// the CSR, and the algorithm's data ranked by the sketched degrees.
func modelTiers(m *numa.Machine, f Features, w run, frontier func(*mem.TierClass)) sg.Tiers {
	k := int(min(f.Vertices, 1024))
	t := sg.NewTiers(m, frontier, f.Vertices*12+f.Edges*int64(w.h.EdgeBytes()), k, func(i int) int64 { return rankDegree(f, i, k) })
	t.State.GrowDemandEven(f.Vertices * int64(w.h.DataBytes))
	return t
}

// pricer accumulates a candidate's predicted clock.
type pricer struct {
	ep    *numa.Epoch
	total float64
}

// phase charges one representative superstep of a phase kind — once per
// node when balanced, as the engines charge such a phase, else once per
// thread — and adds its time and its barrier's, times over.
func (p *pricer) phase(times float64, kind barrier.Kind, balanced bool, charge func(th, node int)) {
	m := p.ep.Machine()
	p.ep.Reset()
	if balanced {
		p.ep.ChargeNodes(charge)
	} else {
		for th := range m.Threads() {
			charge(th, m.NodeOfThread(th))
		}
	}
	p.total += times * (p.ep.Time() + barrier.SyncCost(kind, m.Nodes)/m.Topo.SyncScale)
}

// plateaus reads the profile's out-degree sketch as a distribution: the top
// 1% of vertices, the next 9%, the next 40% and the lower half, each with
// the rank share it ends at and the geometric mean of the quantiles that
// bound it (half the median for the lower half).
func plateaus(f Features) [4]struct{ upTo, degree float64 } {
	mid := func(lo, hi float64) float64 { return math.Sqrt(lo * hi) }
	return [4]struct{ upTo, degree float64 }{{0.01, mid(f.DegP99, float64(f.MaxOutDegree))},
		{0.10, mid(f.DegP90, f.DegP99)}, {0.50, mid(f.DegP50, f.DegP90)}, {1, f.DegP50 / 2}}
}

// rankDegree is the out-degree of the vertex of rank i of k, the hub first,
// by which the model ranks per-vertex data for the hot tier policy.
func rankDegree(f Features, i, k int) int64 {
	for _, pl := range plateaus(f) {
		if i > 0 && float64(i)/float64(k) < pl.upTo {
			return int64(pl.degree)
		}
	}
	return f.MaxOutDegree
}

// busiestPart estimates the vertices of the busiest of parts edge-balanced
// partitions: n/parts, more where low-degree vertices cluster in one id
// range — InSkew·n/8 at eight parts, interpolated in log2(parts).
func busiestPart(f Features, parts int) float64 {
	n, P := float64(f.Vertices), float64(parts)
	return min(n, n/P*(1+max(f.InSkew-1, 0)*math.Log2(P)/3))
}

// keyedRows estimates the rows one of parts partitions keys by far-side
// vertex: the vertices with an edge into it. An edge stays in its source's
// partition with the profile's Locality, else lands in a random one.
func keyedRows(f Features, parts int) float64 {
	P, far := float64(parts), 1-f.Locality
	var rows, from float64
	for _, pl := range plateaus(f) {
		own, other := 1-math.Pow(far*(1-1/P), pl.degree), 1-math.Pow(1-far/P, pl.degree)
		rows += (pl.upTo - from) * (own/P + (1-1/P)*other)
		from = pl.upTo
	}
	return rows * float64(f.Vertices)
}

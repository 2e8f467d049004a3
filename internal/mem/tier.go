package mem

import (
	"fmt"
	"sort"

	"polymer/internal/numa"
)

// Tier-aware placement. A TierPlan decides, per demand class and node,
// what fraction of the class's bytes live in DRAM versus the machine's
// slow tier, and the TierClass handles it hands out split every charge
// between numa.Epoch's DRAM and slow-tier access classes accordingly.
//
// The model is statistical rather than per-page: a class holds a
// DRAM-resident byte fraction and an access-mass fraction ("hit
// fraction") derived from it. Under the hot-vertex policy the two
// differ — a degree-rank mass curve says how much of the access stream
// the resident bytes cover — while under the naive interleave baseline
// every class spills uniformly, so hit == resident.
//
// Everything here is deterministic: class fill order, promotion
// ranking, and migration deltas are pure functions of the registered
// specs and the folded access counters, so the same seed and schedule
// replay to identical migration decisions and ledgers (the conformance
// suite checks exactly that).
//
// A nil *TierPlan / *TierClass is the untiered fast path: every charge
// wrapper forwards to the epoch's DRAM method with identical arguments,
// so an untiered run's arithmetic is bit-identical to the historical
// substrate. The same holds on a tiered machine whose DRAM covers the
// whole footprint: every resident fraction is exactly 1 and the slow
// split is exactly zero.

// ClassSpec describes one demand class registered with a TierPlan —
// typically one engine data structure (topology, vertex state,
// frontier) whose bytes compete for DRAM.
type ClassSpec struct {
	// Label names the class in migration logs and provenance.
	Label string
	// BytesPerNode is the class's demand on each node. Classes whose
	// structures are interleaved or centralized should spread/concentrate
	// their total accordingly.
	BytesPerNode []int64
	// Priority orders the initial DRAM fill: lower fills first. Pinned
	// classes fill before any priority.
	Priority int
	// Pinned marks runtime state the hot policy never spills (frontiers,
	// per-phase scratch). The interleave baseline ignores it.
	Pinned bool
	// HotMass maps a DRAM-resident byte fraction to the fraction of the
	// class's access mass it covers, under the assumption the hottest
	// bytes are resident (degree-rank order for vertex state). Nil means
	// uniform access: hit == resident.
	HotMass func(frac float64) float64
}

// Migration records one promotion/demotion decision: DeltaBytes > 0
// moved the class toward DRAM on that node, < 0 toward the slow tier.
type Migration struct {
	Pass       int
	Class      string
	Node       int
	DeltaBytes int64
}

// TierClass is a registered class's charging handle. A nil handle (from
// a nil plan, i.e. an untiered machine) forwards every charge to the
// DRAM access class unchanged.
type TierClass struct {
	plan *TierPlan
	idx  int
	spec ClassSpec

	// dramFrac[n] is the resident byte fraction on node n; hit[n] the
	// access-mass fraction it covers; hitIl their demand-weighted mean,
	// used for interleaved charges.
	dramFrac []float64
	hit      []float64
	hitIl    float64

	// acc accumulates the bytes charged since the last promotion pass
	// (folded in Step).
	acc int64
}

// TierPlan owns the tier placement state for one machine.
type TierPlan struct {
	m       *numa.Machine
	cfg     numa.TierConfig
	classes []*TierClass

	steps int // committed phases since the last promotion pass
	pass  int // promotion passes run
	log   []Migration
}

// NewTierPlan returns a plan for the machine, or nil when the machine is
// untiered — callers thread the nil through and get the fast path.
func NewTierPlan(m *numa.Machine) *TierPlan {
	if m == nil || !m.Tiered() {
		return nil
	}
	return &TierPlan{m: m, cfg: m.TierConfig()}
}

// AddClass registers a demand class and recomputes the fill. It returns
// nil when the plan is nil.
func (tp *TierPlan) AddClass(spec ClassSpec) *TierClass {
	if tp == nil {
		return nil
	}
	if len(spec.BytesPerNode) != tp.m.Nodes {
		panic(fmt.Sprintf("mem: class %q has %d node demands, machine has %d nodes", spec.Label, len(spec.BytesPerNode), tp.m.Nodes))
	}
	c := &TierClass{
		plan:     tp,
		idx:      len(tp.classes),
		spec:     spec,
		dramFrac: make([]float64, tp.m.Nodes),
		hit:      make([]float64, tp.m.Nodes),
	}
	tp.classes = append(tp.classes, c)
	tp.fill(tp.order())
	return c
}

// order returns the class fill order for the current policy: pinned
// classes first, then ascending priority, registration order breaking
// ties. The interleave baseline has no order (uniform spill).
func (tp *TierPlan) order() []*TierClass {
	out := make([]*TierClass, len(tp.classes))
	copy(out, tp.classes)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.spec.Pinned != b.spec.Pinned {
			return a.spec.Pinned
		}
		return a.spec.Priority < b.spec.Priority
	})
	return out
}

// fill assigns each class's resident fraction per node. Under the hot
// policy classes fill DRAM greedily in the given order; under the
// interleave baseline every class gets the node's uniform ratio.
func (tp *TierPlan) fill(order []*TierClass) {
	nodes := tp.m.Nodes
	if tp.cfg.Policy == numa.TierInterleave {
		for n := 0; n < nodes; n++ {
			var demand int64
			for _, c := range tp.classes {
				demand += c.spec.BytesPerNode[n]
			}
			ratio := 1.0
			if demand > tp.cfg.DRAMPerNode {
				ratio = float64(tp.cfg.DRAMPerNode) / float64(demand)
			}
			for _, c := range tp.classes {
				c.dramFrac[n] = ratio
			}
		}
	} else {
		for n := 0; n < nodes; n++ {
			budget := tp.cfg.DRAMPerNode
			for _, c := range order {
				b := c.spec.BytesPerNode[n]
				if b <= 0 {
					c.dramFrac[n] = 1
					continue
				}
				take := b
				if take > budget {
					take = budget
				}
				if take == b {
					c.dramFrac[n] = 1
				} else {
					c.dramFrac[n] = float64(take) / float64(b)
				}
				budget -= take
			}
		}
	}
	for _, c := range tp.classes {
		c.refreshHit()
	}
}

// refreshHit derives the access-mass fractions from the resident ones.
func (c *TierClass) refreshHit() {
	var massNum, massDen float64
	for n, f := range c.dramFrac {
		h := f
		if c.plan.cfg.Policy == numa.TierHot && c.spec.HotMass != nil {
			h = c.spec.HotMass(f)
			if f >= 1 {
				h = 1 // the curve must not round 100% residency down
			}
		}
		c.hit[n] = h
		w := float64(c.spec.BytesPerNode[n])
		massNum += h * w
		massDen += w
	}
	if massDen > 0 {
		c.hitIl = massNum / massDen
	} else {
		c.hitIl = 1
	}
}

// GrowDemand adds bytes to the class's demand on one node and refills the
// plan in the static order (a later promotion pass re-ranks by observed
// traffic). Engines call it as structures are allocated, so class
// demand mirrors the allocation tracker. Nil-safe.
func (c *TierClass) GrowDemand(node int, bytes int64) {
	if c == nil || bytes == 0 {
		return
	}
	c.spec.BytesPerNode[node] += bytes
	c.plan.fill(c.plan.order())
}

// GrowDemandEven spreads bytes evenly across all nodes' demand. Nil-safe.
func (c *TierClass) GrowDemandEven(bytes int64) {
	if c == nil || bytes == 0 {
		return
	}
	nodes := int64(len(c.spec.BytesPerNode))
	for n := range c.spec.BytesPerNode {
		c.spec.BytesPerNode[n] += bytes / nodes
	}
	c.plan.fill(c.plan.order())
}

// SetHotMass installs (or replaces) the class's hot-mass curve once the
// degree distribution is known. Nil-safe.
func (c *TierClass) SetHotMass(f func(float64) float64) {
	if c == nil {
		return
	}
	c.spec.HotMass = f
	c.refreshHit()
}

// DRAMFrac returns the class's resident byte fraction on a node (1 for a
// nil handle: untiered machines are all-DRAM).
func (c *TierClass) DRAMFrac(node int) float64 {
	if c == nil {
		return 1
	}
	return c.dramFrac[node]
}

// HitFrac returns the fraction of the class's access mass on a node that
// the resident bytes cover.
func (c *TierClass) HitFrac(node int) float64 {
	if c == nil {
		return 1
	}
	return c.hit[node]
}

// record tallies bytes charged through ep. Inside ep.ChargeNodes one
// charge stands for the whole node's threads, so the tally is scaled by
// the epoch's charge weight: the fold sees the node's full byte count
// either way.
func (c *TierClass) record(ep *numa.Epoch, bytes int64) {
	if c.plan.cfg.PromoteEvery > 0 {
		c.acc += bytes * ep.ChargeWeight()
	}
}

// Access charges count elements against node, splitting between DRAM and
// the slow tier by the class's hit fraction. A nil handle forwards to
// ep.Access unchanged.
func (c *TierClass) Access(ep *numa.Epoch, th int, p numa.Pattern, op numa.Op, node int, count int64, elemBytes int, ws int64) {
	if c == nil {
		ep.Access(th, p, op, node, count, elemBytes, ws)
		return
	}
	if count <= 0 {
		return
	}
	c.record(ep, count*int64(elemBytes))
	dram := int64(float64(count) * c.hit[node])
	if dram > count {
		dram = count
	}
	ep.Access(th, p, op, node, dram, elemBytes, ws)
	ep.AccessSlow(th, p, op, node, count-dram, elemBytes, ws)
}

// AccessInterleaved charges count elements against interleaved pages,
// splitting by the class's demand-weighted mean hit fraction.
func (c *TierClass) AccessInterleaved(ep *numa.Epoch, th int, p numa.Pattern, op numa.Op, count int64, elemBytes int, ws int64) {
	if c == nil {
		ep.AccessInterleaved(th, p, op, count, elemBytes, ws)
		return
	}
	if count <= 0 {
		return
	}
	c.record(ep, count*int64(elemBytes))
	dram := int64(float64(count) * c.hitIl)
	if dram > count {
		dram = count
	}
	ep.AccessInterleaved(th, p, op, dram, elemBytes, ws)
	ep.AccessSlowInterleaved(th, p, op, count-dram, elemBytes, ws)
}

// LatencyBound charges count serialised operations against node,
// splitting by the class's hit fraction.
func (c *TierClass) LatencyBound(ep *numa.Epoch, th int, op numa.Op, node int, count int64) {
	if c == nil {
		ep.LatencyBound(th, op, node, count)
		return
	}
	if count <= 0 {
		return
	}
	c.record(ep, count*8)
	dram := int64(float64(count) * c.hit[node])
	if dram > count {
		dram = count
	}
	ep.LatencyBound(th, op, node, dram)
	ep.LatencyBoundSlow(th, op, node, count-dram)
}

// Step commits one parallel phase: it advances the promotion clock and,
// every PromoteEvery committed phases under the hot policy, folds the
// access counters, re-ranks the classes by observed
// access density, refills DRAM in the new order, and charges the
// migration traffic into ep (slow-tier reads + DRAM writes for
// promotions and the reverse for demotions, capped at PromoteFrac of
// the machine's DRAM per pass). Call it with the phase's epoch before
// folding the epoch into the clock, so migration cost lands in the
// phase and rolls back with it. Nil-safe.
func (tp *TierPlan) Step(ep *numa.Epoch) {
	if tp == nil || tp.cfg.PromoteEvery <= 0 || tp.cfg.Policy != numa.TierHot {
		return
	}
	tp.steps++
	if tp.steps < tp.cfg.PromoteEvery {
		return
	}
	tp.steps = 0
	tp.pass++

	// Fold the counters.
	density := make([]float64, len(tp.classes))
	for i, c := range tp.classes {
		folded := c.acc
		c.acc = 0
		var bytes int64
		for _, b := range c.spec.BytesPerNode {
			bytes += b
		}
		if bytes > 0 {
			density[i] = float64(folded) / float64(bytes)
		}
	}

	// Re-rank: pinned classes keep their place, the rest order by
	// observed density (descending), priority then registration order
	// breaking ties — all deterministic.
	order := make([]*TierClass, len(tp.classes))
	copy(order, tp.classes)
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.spec.Pinned != b.spec.Pinned {
			return a.spec.Pinned
		}
		if density[a.idx] != density[b.idx] {
			return density[a.idx] > density[b.idx]
		}
		return a.spec.Priority < b.spec.Priority
	})

	old := make([][]float64, len(tp.classes))
	for i, c := range tp.classes {
		old[i] = append([]float64(nil), c.dramFrac...)
	}
	tp.fill(order)

	// Cap the migration volume per pass, scaling every delta uniformly
	// so the decision stays a pure function of the counters.
	var promoted float64
	for i, c := range tp.classes {
		for n := range c.dramFrac {
			if d := (c.dramFrac[n] - old[i][n]) * float64(c.spec.BytesPerNode[n]); d > 0 {
				promoted += d
			}
		}
	}
	maxMove := tp.cfg.PromoteFrac * float64(tp.cfg.DRAMPerNode) * float64(tp.m.Nodes)
	scale := 1.0
	if promoted > maxMove && promoted > 0 {
		scale = maxMove / promoted
	}

	nodes := tp.m.Nodes
	promoteBytes := make([]int64, nodes)
	demoteBytes := make([]int64, nodes)
	for i, c := range tp.classes {
		for n := range c.dramFrac {
			target := old[i][n] + (c.dramFrac[n]-old[i][n])*scale
			c.dramFrac[n] = target
			delta := int64((target - old[i][n]) * float64(c.spec.BytesPerNode[n]))
			if delta == 0 {
				continue
			}
			if delta > 0 {
				promoteBytes[n] += delta
			} else {
				demoteBytes[n] += -delta
			}
			tp.log = append(tp.log, Migration{Pass: tp.pass, Class: c.spec.Label, Node: n, DeltaBytes: delta})
		}
		c.refreshHit()
	}
	for n := 0; n < nodes; n++ {
		th := n * tp.m.CoresPerNode // one migration worker per node
		if b := promoteBytes[n]; b > 0 {
			ep.AccessSlow(th, numa.Seq, numa.Load, n, b, 1, 0)
			ep.Access(th, numa.Seq, numa.Store, n, b, 1, 0)
		}
		if b := demoteBytes[n]; b > 0 {
			ep.Access(th, numa.Seq, numa.Load, n, b, 1, 0)
			ep.AccessSlow(th, numa.Seq, numa.Store, n, b, 1, 0)
		}
	}
}

// Migrations returns the migration log (nil-safe).
func (tp *TierPlan) Migrations() []Migration {
	if tp == nil {
		return nil
	}
	return tp.log
}

// Classes returns the registered class labels with their mean resident
// fractions, for provenance reporting (nil-safe).
func (tp *TierPlan) Classes() []string {
	if tp == nil {
		return nil
	}
	out := make([]string, len(tp.classes))
	for i, c := range tp.classes {
		var f, w float64
		for n, b := range c.spec.BytesPerNode {
			f += c.dramFrac[n] * float64(b)
			w += float64(b)
		}
		if w > 0 {
			f /= w
		} else {
			f = 1
		}
		out[i] = fmt.Sprintf("%s:%.3f", c.spec.Label, f)
	}
	return out
}

// TierSnap captures a plan's mutable state for checkpoint/rollback.
type TierSnap struct {
	steps, pass int
	logLen      int
	frac        [][]float64
	acc         []int64
	demand      [][]int64
}

// Snapshot captures the plan's state (nil-safe: returns nil).
func (tp *TierPlan) Snapshot() *TierSnap {
	if tp == nil {
		return nil
	}
	s := &TierSnap{steps: tp.steps, pass: tp.pass, logLen: len(tp.log)}
	s.frac = make([][]float64, len(tp.classes))
	s.acc = make([]int64, len(tp.classes))
	s.demand = make([][]int64, len(tp.classes))
	for i, c := range tp.classes {
		s.frac[i] = append([]float64(nil), c.dramFrac...)
		s.acc[i] = c.acc
		s.demand[i] = append([]int64(nil), c.spec.BytesPerNode...)
	}
	return s
}

// Restore rewinds the plan to a snapshot taken on the same plan. Class
// demand is NOT rolled back — it mirrors the allocation tracker, and a
// rolled-back step's lazy allocations (grouped layouts, agent buffers)
// survive into the replay. When demand grew since the snapshot, the
// restored fractions are stale, so the plan refills in the static order
// — exactly what the intervening Grow calls do in a committed run — and
// the replay charges bit-identically to a fault-free run. With demand
// unchanged the snapshot's fractions are copied verbatim, preserving
// hot-policy promotion state. Nil-safe when both are nil.
func (tp *TierPlan) Restore(s *TierSnap) {
	if tp == nil || s == nil {
		return
	}
	tp.steps, tp.pass = s.steps, s.pass
	tp.log = tp.log[:s.logLen]
	refill := false
	for i, c := range tp.classes {
		if i >= len(s.frac) {
			refill = true
			continue
		}
		copy(c.dramFrac, s.frac[i])
		c.acc = s.acc[i]
		for n, b := range c.spec.BytesPerNode {
			if b != s.demand[i][n] {
				refill = true
			}
		}
	}
	if refill {
		tp.fill(tp.order())
		return
	}
	for _, c := range tp.classes {
		c.refreshHit()
	}
}

// DegreeHotMass builds a hot-mass curve from a degree distribution: the
// fraction of total edge mass covered when the hottest frac of vertices
// (by degree rank) are DRAM-resident. The curve is sampled into a small
// CDF so plans don't retain the degree array.
func DegreeHotMass(n int, deg func(i int) int64) func(float64) float64 {
	if n <= 0 {
		return nil
	}
	ds := make([]int64, n)
	var total int64
	for i := 0; i < n; i++ {
		ds[i] = deg(i)
		total += ds[i]
	}
	if total <= 0 {
		return nil
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] > ds[j] })
	const buckets = 128
	cdf := make([]float64, buckets+1)
	var run int64
	next := 1
	for i := 0; i < n; i++ {
		run += ds[i]
		for next <= buckets && i+1 >= (n*next+buckets-1)/buckets {
			cdf[next] = float64(run) / float64(total)
			next++
		}
	}
	for ; next <= buckets; next++ {
		cdf[next] = 1
	}
	cdf[buckets] = 1
	return func(frac float64) float64 {
		if frac <= 0 {
			return 0
		}
		if frac >= 1 {
			return 1
		}
		x := frac * buckets
		k := int(x)
		if k >= buckets {
			return 1
		}
		return cdf[k] + (cdf[k+1]-cdf[k])*(x-float64(k))
	}
}

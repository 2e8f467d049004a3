package numa

import (
	"fmt"
	"math"
	"slices"
)

// Epoch is the traffic ledger for one parallel phase (e.g. one EdgeMap).
// Worker threads record aggregate access descriptors into their own shard
// (no synchronisation needed: thread t only writes shard t), and Time()
// folds the ledger through the cost model:
//
//   - per-thread time: bytes / BW(pattern, hop level), with random accesses
//     split into an LLC-hit portion served at cache bandwidth and a miss
//     portion served at memory bandwidth;
//   - per-resource time: every memory node and interconnect link has an
//     aggregate capacity; traffic that actually reaches memory (the miss
//     portion) is charged against it;
//   - phase time = max(slowest thread, most congested resource).
//
// The congestion term is what reproduces the paper's Section 3 findings:
// interleaved or centralised layouts route all threads' traffic through
// shared links and controllers, capping socket scalability, while
// co-located layouts keep traffic on local controllers.
type Epoch struct {
	m *Machine

	// f holds every thread's float ledger as one flat block: thread th
	// owns f[th*fs:(th+1)*fs], laid out as the four scalars below followed
	// by nodeBytes, portBytes, classBytes and (tiered machines only)
	// slowNodeBytes.
	f  []float64
	fs int // stride of f
	// offNode, offPort, offClass and offSlow locate the vectors inside a
	// thread's stride:
	//   - nodeBytes[n] is traffic (bytes) served by memory node n;
	//   - portBytes[n] is remote traffic entering or leaving socket n's
	//     interconnect port;
	//   - classBytes[lvl*2+pattern] is memory-reaching traffic classified
	//     by hop level and access pattern, the raw material of
	//     TrafficMatrix snapshots. Random accesses count only their
	//     modelled miss portion (the hit portion never leaves the LLC). On
	//     a tiered machine a second bank of rows follows the DRAM bank:
	//     slot (levels+lvl)*2+pattern carries the slow-tier traffic, so
	//     untiered ledgers keep their exact historical shape;
	//   - slowNodeBytes[n] is traffic served by node n's slow-tier media
	//     (absent on untiered machines); it feeds the SlowAggBW congestion
	//     term.
	offNode, offPort, offClass, offSlow int

	// c holds every thread's access counts, cs per thread (see cLocal).
	c []int64

	// shared[n] reports that node n's threads all hold the ledger stored
	// in the node's first thread's rows of f and c; the other threads'
	// rows are then stale and nothing reads them. It is set for every
	// node on a fresh or Reset epoch and by ChargeNodes, and cleared by
	// split, which a per-thread charge calls first.
	shared []bool

	// charging is the thread a ChargeNodes callback was handed, -1
	// outside ChargeNodes.
	charging int
}

// Scalar slots at the head of a thread's stride of Epoch.f.
const (
	fMem     = iota // seconds spent on memory accesses
	fCompute        // seconds of pure computation
	// fMiss counts modelled LLC misses; fRemoteMiss those caused by
	// remote accesses (paper Table 4's "LLC miss rate due to remote").
	fMiss
	fRemoteMiss
	fScalars
)

// Slots of a thread's stride of Epoch.c.
const (
	cLocal = iota
	cRemote
	cSlow // accesses served by the slow tier
	cs
)

func newEpoch(m *Machine) *Epoch {
	n := m.Nodes
	levels := m.Topo.MaxLevel() + 1
	e := &Epoch{m: m, charging: -1}
	e.offNode = fScalars
	e.offPort = e.offNode + n
	e.offClass = e.offPort + n
	e.offSlow = e.offClass + m.tiers()*levels*2
	e.fs = e.offSlow
	if m.Tiered() {
		e.fs += n
	}
	e.f = make([]float64, m.Threads()*e.fs)
	e.c = make([]int64, m.Threads()*cs)
	e.shared = make([]bool, n)
	for i := range e.shared {
		e.shared[i] = true
	}
	return e
}

// rows returns the float vector and access counts stored for thread th.
func (e *Epoch) rows(th int) (f []float64, c []int64) {
	return e.f[th*e.fs : (th+1)*e.fs], e.c[th*cs : (th+1)*cs]
}

// view returns thread th's ledger for reading: its node's first thread's
// rows while the node is shared.
func (e *Epoch) view(th int) (f []float64, c []int64) {
	if node := e.m.NodeOfThread(th); e.shared[node] {
		th = node * e.m.CoresPerNode
	}
	return e.rows(th)
}

// ledger returns thread th's ledger for a charge. Inside a ChargeNodes
// callback the thread it was handed charges its node's shared rows; any
// other charge first gives th rows of its own.
func (e *Epoch) ledger(th int) (f []float64, c []int64) {
	if th != e.charging {
		e.own(th)
	}
	return e.rows(th)
}

// own splits th's node before a per-thread charge. A ChargeNodes callback
// that charges a thread other than the one it was handed is a bug: the
// charge could land in no thread's ledger, or in another node's shared
// rows.
func (e *Epoch) own(th int) {
	if e.charging >= 0 {
		panic(fmt.Sprintf("numa: ChargeNodes callback handed thread %d charged thread %d", e.charging, th))
	}
	if node := e.m.NodeOfThread(th); e.shared[node] {
		e.split(node)
	}
}

// split copies a shared node's first row to the node's other threads, so
// each can be charged on its own.
func (e *Epoch) split(node int) {
	if !e.shared[node] {
		return
	}
	e.shared[node] = false
	lo, hi := node*e.m.CoresPerNode, (node+1)*e.m.CoresPerNode
	fill(e.f[lo*e.fs:hi*e.fs], e.fs)
	fill(e.c[lo*cs:hi*cs], cs)
}

// fill copies blk's first row of width w over the rows after it, doubling
// the copied prefix each time.
func fill[T int64 | float64](blk []T, w int) {
	for n := w; n < len(blk); n *= 2 {
		copy(blk[n:], blk[:n])
	}
}

// Machine returns the machine this epoch charges against.
func (e *Epoch) Machine() *Machine { return e.m }

const mb = 1e6 // bandwidth tables are in MB/s

// hitFraction models the probability a random access to a working set of
// ws bytes hits in the accessing socket's LLC.
func (e *Epoch) hitFraction(ws int64) float64 {
	if ws <= 0 {
		return 0
	}
	llc := float64(e.m.Topo.LLCBytes)
	if float64(ws) <= llc {
		return 1
	}
	return llc / float64(ws)
}

// Access records count elements of elemBytes each, accessed with pattern p
// and operation op by thread th against memory node node. For random
// accesses, ws is the working-set size in bytes used for LLC modelling
// (pass 0 for uncacheable/streaming-like behaviour). Sequential accesses
// ignore ws.
func (e *Epoch) Access(th int, p Pattern, op Op, node int, count int64, elemBytes int, ws int64) {
	if count <= 0 {
		return
	}
	f, c := e.ledger(th)
	topo := e.m.Topo
	from := e.m.NodeOfThread(th)
	lvl := e.m.Level(from, node)
	bytes := float64(count) * float64(elemBytes)
	// Degraded links scale the effective memory bandwidth of the path; the
	// LLC-hit portion of random traffic is unaffected (served from cache).
	scale := e.m.linkScale(from, node)

	if lvl == 0 {
		c[cLocal] += count
	} else {
		c[cRemote] += count
	}

	switch p {
	case Seq:
		f[fMem] += bytes / (topo.SeqBW[lvl] * mb * scale)
		miss := bytes / float64(topo.CacheLineBytes)
		f[fMiss] += miss
		if lvl > 0 {
			f[fRemoteMiss] += miss
		}
		f[e.offClass+lvl*2+int(Seq)] += bytes
		e.chargeResource(f, e.offNode, from, node, bytes)
	case Rand:
		hit := e.hitFraction(ws)
		missBytes := bytes * (1 - hit)
		f[fMem] += missBytes/(topo.RandBW[lvl]*mb*scale) + bytes*hit/(topo.CacheBW*mb)
		miss := float64(count) * (1 - hit)
		f[fMiss] += miss
		if lvl > 0 {
			f[fRemoteMiss] += miss
		}
		f[e.offClass+lvl*2+int(Rand)] += missBytes
		e.chargeResource(f, e.offNode, from, node, missBytes)
	}
	_ = op // direction currently shares one bandwidth table, as in the paper's Figure 4
}

// AccessInterleaved records traffic against pages interleaved across all
// active nodes (the default layout of NUMA-oblivious systems). The
// per-thread cost uses the measured interleaved bandwidth; traffic and the
// remote-access count are spread across all nodes.
func (e *Epoch) AccessInterleaved(th int, p Pattern, op Op, count int64, elemBytes int, ws int64) {
	if count <= 0 {
		return
	}
	f, c := e.ledger(th)
	topo := e.m.Topo
	from := e.m.NodeOfThread(th)
	nodes := e.m.Nodes
	bytes := float64(count) * float64(elemBytes)

	remoteFrac := float64(nodes-1) / float64(nodes)
	c[cLocal] += count - int64(float64(count)*remoteFrac)
	c[cRemote] += int64(float64(count) * remoteFrac)

	seqBW, randBW := e.m.InterleavedBW(from)
	// Interleaved traffic crosses every link; charge it at the most
	// degraded one (conservative).
	if scale := e.m.worstLinkScale(from); scale != 1 {
		seqBW *= scale
		randBW *= scale
	}
	var memBytes float64
	switch p {
	case Seq:
		f[fMem] += bytes / (seqBW * mb)
		miss := bytes / float64(topo.CacheLineBytes)
		f[fMiss] += miss
		f[fRemoteMiss] += miss * remoteFrac
		memBytes = bytes
	case Rand:
		hit := e.hitFraction(ws)
		missBytes := bytes * (1 - hit)
		f[fMem] += missBytes/(randBW*mb) + bytes*hit/(topo.CacheBW*mb)
		miss := float64(count) * (1 - hit)
		f[fMiss] += miss
		f[fRemoteMiss] += miss * remoteFrac
		memBytes = missBytes
	}
	share := memBytes / float64(nodes)
	for n := 0; n < nodes; n++ {
		f[e.offClass+e.m.Level(from, n)*2+int(p)] += share
		e.chargeResource(f, e.offNode, from, n, share)
	}
	_ = op
}

// LatencyBound records count serialised (latency-bound) operations, such as
// atomic read-modify-writes, by thread th against memory node node.
func (e *Epoch) LatencyBound(th int, op Op, node int, count int64) {
	if count <= 0 {
		return
	}
	f, c := e.ledger(th)
	topo := e.m.Topo
	from := e.m.NodeOfThread(th)
	lvl := e.m.Level(from, node)
	lat := topo.LoadLatency[lvl]
	if op == Store {
		lat = topo.StoreLatency[lvl]
	}
	// A degraded link stretches round-trip latency proportionally.
	lat /= e.m.linkScale(from, node)
	f[fMem] += float64(count) * lat / (topo.ClockGHz * 1e9)
	if lvl == 0 {
		c[cLocal] += count
	} else {
		c[cRemote] += count
		f[fRemoteMiss] += float64(count)
	}
	f[fMiss] += float64(count)
	// Latency-bound ops move one element each way; classify them as random
	// traffic at the element size (8 bytes, the engines' widest atomic).
	f[e.offClass+lvl*2+int(Rand)] += float64(count) * 8
}

// AccessSlow is Access against the slow tier: the path is the same hop
// level, but the media at the far end serves at the topology's slow-tier
// tables and the traffic lands in the ledger's slow-tier bank. It must
// only be called on a tiered machine.
func (e *Epoch) AccessSlow(th int, p Pattern, op Op, node int, count int64, elemBytes int, ws int64) {
	if count <= 0 {
		return
	}
	f, c := e.ledger(th)
	topo := e.m.Topo
	from := e.m.NodeOfThread(th)
	lvl := e.m.Level(from, node)
	levels := topo.MaxLevel() + 1
	bytes := float64(count) * float64(elemBytes)
	scale := e.m.linkScale(from, node)

	if lvl == 0 {
		c[cLocal] += count
	} else {
		c[cRemote] += count
	}
	c[cSlow] += count

	switch p {
	case Seq:
		f[fMem] += bytes / (topo.SlowSeqBW[lvl] * mb * scale)
		miss := bytes / float64(topo.CacheLineBytes)
		f[fMiss] += miss
		if lvl > 0 {
			f[fRemoteMiss] += miss
		}
		f[e.offClass+(levels+lvl)*2+int(Seq)] += bytes
		e.chargeResource(f, e.offSlow, from, node, bytes)
	case Rand:
		hit := e.hitFraction(ws)
		missBytes := bytes * (1 - hit)
		f[fMem] += missBytes/(topo.SlowRandBW[lvl]*mb*scale) + bytes*hit/(topo.CacheBW*mb)
		miss := float64(count) * (1 - hit)
		f[fMiss] += miss
		if lvl > 0 {
			f[fRemoteMiss] += miss
		}
		f[e.offClass+(levels+lvl)*2+int(Rand)] += missBytes
		e.chargeResource(f, e.offSlow, from, node, missBytes)
	}
	_ = op
}

// AccessSlowInterleaved is AccessInterleaved against pages interleaved
// across the active nodes' slow tiers.
func (e *Epoch) AccessSlowInterleaved(th int, p Pattern, op Op, count int64, elemBytes int, ws int64) {
	if count <= 0 {
		return
	}
	f, c := e.ledger(th)
	topo := e.m.Topo
	from := e.m.NodeOfThread(th)
	nodes := e.m.Nodes
	levels := topo.MaxLevel() + 1
	bytes := float64(count) * float64(elemBytes)

	remoteFrac := float64(nodes-1) / float64(nodes)
	c[cLocal] += count - int64(float64(count)*remoteFrac)
	c[cRemote] += int64(float64(count) * remoteFrac)
	c[cSlow] += count

	seqBW, randBW := e.m.InterleavedSlowBW(from)
	if scale := e.m.worstLinkScale(from); scale != 1 {
		seqBW *= scale
		randBW *= scale
	}
	var memBytes float64
	switch p {
	case Seq:
		f[fMem] += bytes / (seqBW * mb)
		miss := bytes / float64(topo.CacheLineBytes)
		f[fMiss] += miss
		f[fRemoteMiss] += miss * remoteFrac
		memBytes = bytes
	case Rand:
		hit := e.hitFraction(ws)
		missBytes := bytes * (1 - hit)
		f[fMem] += missBytes/(randBW*mb) + bytes*hit/(topo.CacheBW*mb)
		miss := float64(count) * (1 - hit)
		f[fMiss] += miss
		f[fRemoteMiss] += miss * remoteFrac
		memBytes = missBytes
	}
	share := memBytes / float64(nodes)
	for n := 0; n < nodes; n++ {
		f[e.offClass+(levels+e.m.Level(from, n))*2+int(p)] += share
		e.chargeResource(f, e.offSlow, from, n, share)
	}
	_ = op
}

// LatencyBoundSlow is LatencyBound against the slow tier, charged at the
// topology's slow-tier load/store latency rows.
func (e *Epoch) LatencyBoundSlow(th int, op Op, node int, count int64) {
	if count <= 0 {
		return
	}
	f, c := e.ledger(th)
	topo := e.m.Topo
	from := e.m.NodeOfThread(th)
	lvl := e.m.Level(from, node)
	levels := topo.MaxLevel() + 1
	lat := topo.SlowLoadLatency[lvl]
	if op == Store {
		lat = topo.SlowStoreLatency[lvl]
	}
	lat /= e.m.linkScale(from, node)
	f[fMem] += float64(count) * lat / (topo.ClockGHz * 1e9)
	if lvl == 0 {
		c[cLocal] += count
	} else {
		c[cRemote] += count
		f[fRemoteMiss] += float64(count)
	}
	c[cSlow] += count
	f[fMiss] += float64(count)
	f[e.offClass+(levels+lvl)*2+int(Rand)] += float64(count) * 8
}

// Compute records pure computation time (software overhead, arithmetic)
// for thread th.
func (e *Epoch) Compute(th int, seconds float64) {
	f, _ := e.ledger(th)
	f[fCompute] += seconds
}

// chargeResource charges bytes against the media of node to — bank is
// offNode for DRAM, offSlow for the slow tier, whose own, narrower
// controllers (SlowAggBW) serve it — and, for remote traffic of either
// tier, against the interconnect ports at both ends.
func (e *Epoch) chargeResource(f []float64, bank, from, to int, bytes float64) {
	f[bank+to] += bytes
	if from != to {
		f[e.offPort+from] += bytes
		f[e.offPort+to] += bytes
	}
}

// ChargeNodes charges a phase whose counts are uniform within each node —
// the scheduler-balanced phases, where a node's threads all carry the
// node's work divided by CoresPerNode: fn runs once per node, for the
// node's first thread, and its charges land in the node's shared rows,
// which stand for every thread of the node. fn must charge only the
// thread it is handed; a charge to any other thread panics.
//
// Precondition: on entry the ledgers of each node's threads are equal, as
// on a fresh or Reset epoch. The shared rows are then bit for bit what
// running fn for every thread would produce, since a charge depends on
// its thread only through the thread's node. Charges that differ between
// the threads of a node go through the per-thread methods instead (before
// ChargeNodes only if they keep a node's ledgers equal, after it freely).
//
// ChargeNodes is not safe for concurrent use with any other charge.
func (e *Epoch) ChargeNodes(fn func(th, node int)) {
	defer func() { e.charging = -1 }()
	for node := range e.shared {
		e.shared[node] = true
		e.charging = node * e.m.CoresPerNode
		fn(e.charging, node)
	}
}

// ChargeWeight reports how many threads a charge recorded now stands for:
// CoresPerNode inside a ChargeNodes callback, 1 otherwise. Layers that
// keep their own per-thread tallies beside the ledger (mem.TierClass's
// promotion counters) scale by it.
func (e *Epoch) ChargeWeight() int64 {
	if e.charging >= 0 {
		return int64(e.m.CoresPerNode)
	}
	return 1
}

// Time folds the ledger through the cost model and returns the simulated
// duration of the phase in seconds.
func (e *Epoch) Time() float64 {
	topo := e.m.Topo
	cpn := e.m.CoresPerNode
	var worst float64 // starts as the slowest thread
	for node, shared := range e.shared {
		lo, hi := node*cpn, (node+1)*cpn
		if shared {
			hi = lo + 1
		}
		for th := lo; th < hi; th++ {
			f := e.f[th*e.fs:]
			if s := f[fMem] + f[fCompute]; s > worst {
				worst = s
			}
		}
	}
	nodes := e.m.Nodes
	for n := 0; n < nodes; n++ {
		if s := e.column(e.offNode+n) / (topo.NodeAggBW * mb); s > worst {
			worst = s
		}
	}
	// The slow tier's media sit behind their own, narrower, per-node
	// controllers; traffic that reaches them is charged separately.
	for n := e.offSlow; n < e.fs; n++ {
		if s := e.column(n) / (topo.SlowAggBW * mb); s > worst {
			worst = s
		}
	}
	var remote float64
	for n := 0; n < nodes; n++ {
		b := e.column(e.offPort + n)
		if s := b / (topo.PortBW * mb); s > worst {
			worst = s
		}
		remote += b
	}
	// portBytes counts each remote byte at both endpoints; about half of
	// the remote traffic crosses the machine's bisection.
	if topo.BisectionBW > 0 {
		if s := remote / 4 / (topo.BisectionBW * mb); s > worst {
			worst = s
		}
	}
	return worst
}

// column sums slot off over the threads, in thread order: the
// machine-wide total of one nodeBytes, portBytes or slowNodeBytes entry.
// A shared row is added once for each thread it stands for, so the total
// takes the same additions, in the same order, as every thread's own row
// would.
func (e *Epoch) column(off int) float64 {
	cpn := e.m.CoresPerNode
	var b float64
	for node, shared := range e.shared {
		i := node*cpn*e.fs + off
		if shared {
			x := e.f[i]
			for range cpn {
				b += x
			}
			continue
		}
		for end := i + cpn*e.fs; i < end; i += e.fs {
			b += e.f[i]
		}
	}
	return b
}

// addTo adds src into dst element-wise; src is at least as long as dst.
func addTo[T int64 | float64](dst, src []T) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] += src[i]
	}
}

// Stats summarises the ledger for the paper's Table 4 metrics.
type Stats struct {
	// LocalCount and RemoteCount are classified access counts.
	LocalCount, RemoteCount int64
	// RemoteRate is RemoteCount / (LocalCount + RemoteCount).
	RemoteRate float64
	// MissCount is the modelled number of LLC misses.
	MissCount float64
	// RemoteMissRate is the fraction of all accesses that missed the LLC
	// because of remote traffic ("LLC miss rate due to remote accesses").
	RemoteMissRate float64
	// SlowCount is the number of accesses served by the slow tier (always
	// zero on untiered machines); SlowRate is its share of all accesses.
	SlowCount int64
	SlowRate  float64
}

// Stats aggregates the per-thread ledgers.
func (e *Epoch) Stats() Stats {
	var s Stats
	for th := 0; th < e.m.Threads(); th++ {
		f, c := e.view(th)
		s.LocalCount += c[cLocal]
		s.RemoteCount += c[cRemote]
		s.MissCount += f[fMiss]
		s.RemoteMissRate += f[fRemoteMiss]
		s.SlowCount += c[cSlow]
	}
	total := s.LocalCount + s.RemoteCount
	if total > 0 {
		s.RemoteRate = float64(s.RemoteCount) / float64(total)
		s.RemoteMissRate /= float64(total)
		s.SlowRate = float64(s.SlowCount) / float64(total)
	} else {
		s.RemoteMissRate = 0
	}
	return s
}

// Merge folds another summary into this one, recomputing the rates as
// weighted averages over the combined access counts. It aggregates runs
// that span more than one machine (e.g. a degraded run rebuilt on fewer
// nodes), where the raw epochs cannot be added.
func (s *Stats) Merge(o Stats) {
	t1 := s.LocalCount + s.RemoteCount
	t2 := o.LocalCount + o.RemoteCount
	s.LocalCount += o.LocalCount
	s.RemoteCount += o.RemoteCount
	s.MissCount += o.MissCount
	s.SlowCount += o.SlowCount
	if total := t1 + t2; total > 0 {
		s.RemoteRate = float64(s.RemoteCount) / float64(total)
		s.RemoteMissRate = (s.RemoteMissRate*float64(t1) + o.RemoteMissRate*float64(t2)) / float64(total)
		s.SlowRate = float64(s.SlowCount) / float64(total)
	}
}

// Add accumulates another epoch's raw ledger into this one. Both must
// belong to the same machine. It is used to aggregate per-phase ledgers
// into whole-run statistics. A node shared on both sides stays shared and
// adds one row; otherwise it is split and every thread adds its own.
func (e *Epoch) Add(o *Epoch) {
	if e.m != o.m {
		panic("numa: cannot add epochs from different machines")
	}
	cpn := e.m.CoresPerNode
	for node, shared := range o.shared {
		lo, hi := node*cpn, (node+1)*cpn
		if !shared {
			e.split(node)
			addTo(e.f[lo*e.fs:hi*e.fs], o.f[lo*e.fs:])
			addTo(e.c[lo*cs:hi*cs], o.c[lo*cs:])
			continue
		}
		if e.shared[node] {
			hi = lo + 1
		}
		// o's first row stands for each of the node's threads.
		of, oc := o.rows(lo)
		for th := lo; th < hi; th++ {
			f, c := e.rows(th)
			addTo(f, of)
			addTo(c, oc)
		}
	}
}

// CopyFrom overwrites this epoch's ledger with o's. Both must belong to
// the same machine. The checkpoint layer uses it to snapshot and restore
// the cumulative run ledger around a superstep that may be rolled back.
func (e *Epoch) CopyFrom(o *Epoch) {
	if e.m != o.m {
		panic("numa: cannot copy epochs from different machines")
	}
	copy(e.shared, o.shared)
	cpn := e.m.CoresPerNode
	for node, shared := range o.shared {
		lo, hi := node*cpn, (node+1)*cpn
		if shared {
			hi = lo + 1
		}
		copy(e.f[lo*e.fs:hi*e.fs], o.f[lo*e.fs:])
		copy(e.c[lo*cs:hi*cs], o.c[lo*cs:])
	}
}

// Clone returns an independent copy of the ledger.
func (e *Epoch) Clone() *Epoch {
	c := newEpoch(e.m)
	c.CopyFrom(e)
	return c
}

// Equal reports whether two ledgers of the same shape hold the same
// charges bit for bit: every thread's seconds, counts and byte vectors.
// It is the comparison the round-trip and shared-row tests assert.
func (e *Epoch) Equal(o *Epoch) bool {
	if len(e.f) != len(o.f) || e.fs != o.fs {
		return false
	}
	for th := 0; th < e.m.Threads(); th++ {
		ef, ec := e.view(th)
		of, oc := o.view(th)
		if !slices.Equal(ec, oc) {
			return false
		}
		for i, v := range ef {
			if math.Float64bits(v) != math.Float64bits(of[i]) {
				return false
			}
		}
	}
	return true
}

// Reset clears the ledger for reuse: one row per node, every node shared.
func (e *Epoch) Reset() {
	for node := range e.shared {
		e.shared[node] = true
		f, c := e.rows(node * e.m.CoresPerNode)
		clear(f)
		clear(c)
	}
}

// ThreadSeconds returns the simulated busy time (memory + compute) of one
// thread; used by the Figure 11(b) per-socket breakdown.
func (e *Epoch) ThreadSeconds(th int) float64 {
	f, _ := e.view(th)
	return f[fMem] + f[fCompute]
}

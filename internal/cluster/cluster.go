// Package cluster composes N simulated NUMA machines into a replicated,
// sharded analytics cluster behind a deterministic network cost model —
// the paper's hierarchical virtual topology extended one level: intra-
// socket and inter-socket hops come from each machine's numa.Epoch
// ledger, and inter-machine transfers are charged per link as "hop level
// 3+" under the same discipline.
//
// Graphs are sharded into contiguous vertex ranges with
// internal/partition; every shard is replicated onto R distinct failure
// domains (machines). Supersteps run BSP-style with per-machine health
// tracking: a machine can crash mid-round, a link can partition or
// degrade (seeded via internal/fault's cluster schedule), and the cluster
// recovers by rolling the round back (state.Checkpoint), failing orphaned
// shards over to a healthy replica, and replaying — so committed output
// is bit-identical to the fault-free run, which is exactly what the chaos
// matrix asserts against the internal/conform oracles.
package cluster

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"

	"polymer/internal/fault"
	"polymer/internal/graph"
	"polymer/internal/numa"
	"polymer/internal/obs"
	"polymer/internal/partition"
	"polymer/internal/state"
)

// Algo names a cluster-served algorithm. The cluster runs its own
// deterministic sharded kernels (not the single-machine engines), chosen
// so the committed output is bit-identical to the sequential oracles
// regardless of machine count, replica placement or injected faults.
type Algo string

// The three cluster algorithms.
const (
	PR   Algo = "pr"
	BFS  Algo = "bfs"
	SSSP Algo = "sssp"
)

// Algos lists the cluster-served algorithms.
func Algos() []Algo { return []Algo{PR, BFS, SSSP} }

// ParseAlgo resolves a cluster-served algorithm name case-insensitively,
// so bench's and conform's spellings of pr, bfs and sssp both map here.
func ParseAlgo(name string) (Algo, error) {
	for _, a := range Algos() {
		if strings.EqualFold(name, string(a)) {
			return a, nil
		}
	}
	return "", fmt.Errorf("cluster: %s is not served on the cluster substrate (want pr, bfs or sssp)", name)
}

// Weighted reports whether the algorithm consumes edge weights.
func (a Algo) Weighted() bool { return a == SSSP }

// The fixed kernel constants, matching bench/conform conventions.
const (
	prIters   = 5
	prDamping = 0.85
)

// NetCost is the deterministic inter-machine link model: every directed
// machine pair is one full-duplex link with the same base bandwidth and
// latency (faults degrade or cut individual links).
type NetCost struct {
	// LatencySec is the per-round per-hop link latency in simulated
	// seconds.
	LatencySec float64
	// MBps is the per-link bandwidth in MB/s. Deliberately below every
	// intra-machine hop bandwidth: the wire is the slowest level of the
	// hierarchy.
	MBps float64
}

// DefaultNetCost models a commodity datacenter link: 20us latency,
// 1250 MB/s (~10 GbE) per direction.
func DefaultNetCost() NetCost { return NetCost{LatencySec: 20e-6, MBps: 1250} }

// Config shapes a cluster.
type Config struct {
	// Machines is the member count N (>= 1). Shards map 1:1 to machines:
	// shard i's home is machine i.
	Machines int
	// Replicas is the replication factor R in [1, Machines]: each shard
	// lives on its home machine plus the next R-1 machines (mod N), so
	// consecutive machines are the failure domains. 0 means min(2, N).
	Replicas int
	// Topo, Nodes, Cores shape every member machine (homogeneous
	// cluster). Nodes/Cores of 0 default to 2x2, mirroring conform.Case.
	Topo  *numa.Topology
	Nodes int
	Cores int
	// Net is the link cost model; the zero value takes DefaultNetCost.
	Net NetCost
	// Events is the seeded cluster fault schedule (see
	// fault.ClusterSchedule / fault.ClusterChaos).
	Events []*fault.ClusterEvent
	// Tracer, when non-nil, receives one superstep event per committed
	// round with the cluster's extended traffic matrix (machine × hop
	// level, the wire as the last level).
	Tracer *obs.Tracer
}

// ReplicasFor is the replication factor a cluster of machines runs with
// when asked for replicas: 2 when unset (<= 0), never more than machines.
func ReplicasFor(machines, replicas int) int {
	if replicas <= 0 {
		replicas = 2
	}
	return min(replicas, machines)
}

func (c Config) withDefaults() Config {
	if c.Machines <= 0 {
		c.Machines = 1
	}
	c.Replicas = ReplicasFor(c.Machines, c.Replicas)
	if c.Topo == nil {
		c.Topo = numa.IntelXeon80()
	}
	if c.Nodes <= 0 {
		c.Nodes = 2
	}
	if c.Cores <= 0 {
		c.Cores = 2
	}
	if c.Net.MBps <= 0 {
		c.Net.MBps = DefaultNetCost().MBps
	}
	if c.Net.LatencySec < 0 {
		c.Net.LatencySec = 0
	} else if c.Net.LatencySec == 0 {
		c.Net.LatencySec = DefaultNetCost().LatencySec
	}
	return c
}

// Health is one member machine's state.
type Health int

// The member health states.
const (
	Healthy Health = iota
	Crashed
	Isolated
)

// String names the state for reports.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Crashed:
		return "crashed"
	case Isolated:
		return "isolated"
	}
	return fmt.Sprintf("Health(%d)", int(h))
}

// member is one simulated machine in the cluster.
type member struct {
	id     int
	mach   *numa.Machine
	round  *numa.Epoch // this round's attempt ledger (discarded on rollback)
	cum    *numa.Epoch // committed ledger
	health Health
}

func (m *member) ok() bool { return m.health == Healthy }

// shard is one contiguous vertex range and its replica placement.
type shard struct {
	rng partition.Range
	// replicas holds machine ids, home first; owner indexes into it.
	replicas []int
	owner    int
}

// MachineHealth is the per-member view exposed in results.
type MachineHealth struct {
	ID     int
	State  string
	Shards []int // shards currently owned
}

// Result is one committed cluster run.
type Result struct {
	// Out is the normalized per-vertex answer (conform conventions: BFS
	// levels widened with -1 for unreachable, SSSP +Inf, PR mass).
	Out        []float64
	Checksum   float64
	SimSeconds float64
	Supersteps int
	// Failovers counts shard ownership changes forced by faults.
	Failovers int
	// Stats merges every member's committed epoch ledger.
	Stats numa.Stats
	// Machines reports final member health and shard placement.
	Machines []MachineHealth
	// Links is the cumulative per-directed-link traffic in bytes:
	// Links[i][j] left machine i toward machine j (relayed segments are
	// charged per hop).
	Links [][]float64
	// NetBytes sums Links.
	NetBytes float64
	// Traffic is the cluster's extended attribution: machine × hop level
	// × pattern, where levels 0..MaxLevel are each machine's aggregated
	// intra-machine classes and the final level is bytes it put on the
	// wire.
	Traffic *numa.TrafficMatrix
	// Protocol is the failover/recovery log, one line per action.
	Protocol []string
}

// Healthy counts the members that ended the run healthy.
func (r *Result) Healthy() int {
	n := 0
	for _, m := range r.Machines {
		if m.State == Healthy.String() {
			n++
		}
	}
	return n
}

// Cluster is a replicated sharded run in progress. It is single-use:
// New + Run, then read the Result.
type Cluster struct {
	cfg    Config
	g      *graph.Graph
	ms     []*member
	shards []*shard
	net    *network
	ck     *state.Checkpoint

	// vertexShard and vertexNode are immutable placement maps: the shard
	// holding each vertex, and the NUMA node it lands on within whichever
	// machine owns that shard (replicas lay shards out identically, so
	// the map survives failover).
	vertexShard []int32
	vertexNode  []int8
	// owner[s] is the machine currently owning shard s (derived from
	// shards, kept flat for the per-edge hot path).
	owner []int

	// Kernel state. curr/next and active/nextActive swap at commit;
	// the checkpoint tracks all four plus the simulated clock.
	curr, next         []float64
	active, nextActive []uint32
	invOut             []float64 // PR only

	sim       float64
	simSaved  float64 // checkpointed clock for rollback
	rounds    int
	failovers int
	changed   int // vertices improved in the last committed round
	protocol  []string

	// cdfPending arms the second kill of a crash-during-failover event:
	// the next failover target dies the moment it is chosen.
	cdfPending bool

	// Per-machine scratch for the round loops (reused across threads).
	scratchLocal  [][]int64 // [machine][node] pending random-access counts
	scratchRemote [][]int64 // [machine][machine] pending remote element counts
	msgs          [][]msgBuf
	traffic       numa.TrafficMatrix // cumulative extended matrix
	tmScratch     numa.TrafficMatrix
}

// msg is one push update travelling between machines.
type msg struct {
	v   uint32
	val float64
}

type msgBuf struct{ m []msg }

// msgBytes is the charged wire size of one push update (vertex id +
// value); repBytes the per-vertex replication payload.
const (
	msgBytes = 12
	repBytes = 12
)

// New shards g across the configured machines and prepares a run.
func New(g *graph.Graph, cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Topo.Validate(); err != nil {
		return nil, err
	}
	if cfg.Nodes > cfg.Topo.Sockets || cfg.Cores > cfg.Topo.CoresPerSocket {
		return nil, fmt.Errorf("cluster: %dx%d exceeds topology %s (%dx%d)",
			cfg.Nodes, cfg.Cores, cfg.Topo.Name, cfg.Topo.Sockets, cfg.Topo.CoresPerSocket)
	}
	c := &Cluster{cfg: cfg, g: g, ck: state.NewCheckpoint()}
	n := g.NumVertices()

	// Shard the vertex space: edge-balanced in the direction each kernel
	// walks (in-edges for pull PR, out-edges for push traversals); with
	// one machine the split is trivial either way, so balance on
	// in-degree, matching the dominant PR workload.
	ranges := partition.EdgeBalanced(g, cfg.Machines, partition.In)
	if err := partition.Validate(ranges, n); err != nil {
		return nil, fmt.Errorf("cluster: sharding: %w", err)
	}
	c.shards = make([]*shard, cfg.Machines)
	c.owner = make([]int, cfg.Machines)
	for i, rng := range ranges {
		reps := make([]int, cfg.Replicas)
		for r := 0; r < cfg.Replicas; r++ {
			reps[r] = (i + r) % cfg.Machines
		}
		c.shards[i] = &shard{rng: rng, replicas: reps}
		c.owner[i] = reps[0]
	}

	// Placement maps.
	c.vertexShard = make([]int32, n)
	c.vertexNode = make([]int8, n)
	for si, rng := range ranges {
		ln := rng.Len()
		for v := rng.Lo; v < rng.Hi; v++ {
			c.vertexShard[v] = int32(si)
			c.vertexNode[v] = int8((v - rng.Lo) * cfg.Nodes / ln)
		}
	}

	// Members and scratch.
	c.ms = make([]*member, cfg.Machines)
	c.scratchLocal = make([][]int64, cfg.Machines)
	c.scratchRemote = make([][]int64, cfg.Machines)
	c.msgs = make([][]msgBuf, cfg.Machines)
	for i := range c.ms {
		mach, err := numa.NewMachineChecked(cfg.Topo, cfg.Nodes, cfg.Cores)
		if err != nil {
			return nil, err
		}
		c.ms[i] = &member{id: i, mach: mach, round: mach.NewEpoch(), cum: mach.NewEpoch()}
		c.scratchLocal[i] = make([]int64, cfg.Nodes)
		c.scratchRemote[i] = make([]int64, cfg.Machines)
		c.msgs[i] = make([]msgBuf, cfg.Machines)
	}
	c.net = newNetwork(cfg.Machines, cfg.Net)
	c.traffic.Resize(cfg.Machines, cfg.Topo.MaxLevel()+2)
	return c, nil
}

// logf appends one protocol line.
func (c *Cluster) logf(format string, args ...any) {
	c.protocol = append(c.protocol, fmt.Sprintf(format, args...))
}

// ownedShards returns the shard indices machine mi currently owns, in
// shard order (deterministic).
func (c *Cluster) ownedShards(mi int) []int {
	var out []int
	for si, m := range c.owner {
		if m == mi {
			out = append(out, si)
		}
	}
	return out
}

// Run executes the algorithm to completion and commits the result.
func (c *Cluster) Run(ctx context.Context, alg Algo, src graph.Vertex) (*Result, error) {
	n := c.g.NumVertices()
	if n == 0 {
		return c.finish(alg), nil
	}
	switch alg {
	case PR, BFS, SSSP:
	default:
		return nil, fmt.Errorf("cluster: unsupported algorithm %q (want pr, bfs or sssp)", alg)
	}
	if (alg == BFS || alg == SSSP) && int(src) >= n {
		return nil, fmt.Errorf("cluster: source %d outside [0,%d)", src, n)
	}
	c.initState(alg, src)

	// Rounds are bounded by the diameter for traversals and prIters for
	// PR; the cap is a defensive backstop, not a tuning knob.
	maxRounds := n + 2*c.cfg.Machines + 16
	events := c.cfg.Events
	for round := 0; round < maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Environmental events apply before the round: a slow link
		// changes only the clock, so nothing needs detection or rollback.
		for _, ev := range eventsAt(events, round, true) {
			if ev.Fire() {
				c.net.degrade(ev.Machine, ev.MachineB, ev.Factor)
				c.logf("round %d: %s armed: link m%d-m%d bandwidth x%g", round, ev, ev.Machine, ev.MachineB, ev.Factor)
			}
		}
		if err := c.ensureOwners(round); err != nil {
			return nil, err
		}
		c.saveRound()
		for {
			c.prepareRound(alg)
			c.runRound(alg)
			faults := eventsAt(events, round, false)
			if len(faults) == 0 {
				break
			}
			// Detect after the step, exactly like fault.Session: roll the
			// committed state and clock back, apply the failures, fail
			// orphaned shards over, and replay the round clean.
			c.restoreRound()
			c.logf("round %d: rolled back (%d fault(s) detected)", round, len(faults))
			c.applyFaults(round, faults)
			if err := c.ensureOwners(round); err != nil {
				return nil, err
			}
		}
		c.commitRound(alg, round)
		if c.doneAfter(alg, round) {
			break
		}
	}
	return c.finish(alg), nil
}

// initState allocates and tracks the kernel state.
func (c *Cluster) initState(alg Algo, src graph.Vertex) {
	n := c.g.NumVertices()
	c.curr = make([]float64, n)
	c.next = make([]float64, n)
	c.ck.TrackF64(c.curr, c.next)
	switch alg {
	case PR:
		c.invOut = make([]float64, n)
		for v := 0; v < n; v++ {
			c.curr[v] = 1 / float64(n)
			if d := c.g.OutDegree(graph.Vertex(v)); d > 0 {
				c.invOut[v] = 1 / float64(d)
			}
		}
	case BFS, SSSP:
		for v := range c.curr {
			c.curr[v] = math.Inf(1)
		}
		c.curr[src] = 0
		c.active = make([]uint32, n)
		c.nextActive = make([]uint32, n)
		c.active[src] = 1
		c.ck.TrackU32(c.active, c.nextActive)
		c.changed = 1
	}
}

// eventsAt filters the schedule for unfired events at one step;
// environmental selects the no-rollback kinds (slow links).
func eventsAt(evs []*fault.ClusterEvent, step int, environmental bool) []*fault.ClusterEvent {
	var out []*fault.ClusterEvent
	for _, ev := range evs {
		if ev.Step != step || ev.Fired() {
			continue
		}
		if (ev.Kind == fault.SlowLink) == environmental {
			out = append(out, ev)
		}
	}
	return out
}

// saveRound checkpoints state and clock before a round attempt.
func (c *Cluster) saveRound() {
	c.ck.Save()
	c.simSaved = c.sim
}

// restoreRound rolls state, clock and the attempt's charges back.
func (c *Cluster) restoreRound() {
	c.ck.Restore()
	c.sim = c.simSaved
	c.net.discardRound()
	// Round epochs are reset by prepareRound on the replay.
}

// applyFaults fires the detected events: machines die, links cut. After
// the kills, connectivity is re-evaluated: healthy machines cut off from
// the primary component (the largest one, lowest-id on ties) are
// isolated and treated as failed for ownership.
func (c *Cluster) applyFaults(round int, faults []*fault.ClusterEvent) {
	for _, ev := range faults {
		if !ev.Fire() {
			continue
		}
		switch ev.Kind {
		case fault.MachineCrash:
			c.kill(round, ev.Machine, "crash")
		case fault.CrashDuringFailover:
			c.kill(round, ev.Machine, "crash (failover target will die too)")
			c.cdfPending = true
		case fault.LinkPartition:
			c.net.cut(ev.Machine, ev.MachineB)
			c.logf("round %d: link m%d-m%d partitioned", round, ev.Machine, ev.MachineB)
		}
	}
	c.reisolate(round)
}

// kill fail-stops one machine (idempotent).
func (c *Cluster) kill(round, mi int, why string) {
	m := c.ms[mi]
	if m.health == Crashed {
		return
	}
	m.health = Crashed
	c.logf("round %d: machine m%d %s", round, mi, why)
}

// reisolate recomputes the primary component among healthy machines and
// downgrades unreachable ones to Isolated. Links never heal, so the
// downgrade is permanent.
func (c *Cluster) reisolate(round int) {
	alive := make([]bool, len(c.ms))
	for i, m := range c.ms {
		alive[i] = m.health == Healthy
	}
	primary := c.net.component(alive)
	for i, m := range c.ms {
		if m.health == Healthy && !primary[i] {
			m.health = Isolated
			c.logf("round %d: machine m%d isolated from the primary component", round, i)
		}
	}
}

// ensureOwners fails every orphaned shard (owner not Healthy) over to
// its first healthy replica. A pending crash-during-failover kills the
// first chosen target, forcing the search to restart. Replicas hold the
// shard's last committed state (replication ships every committed
// round), so no bulk state transfer is charged — only the coordination
// latency, folded into the next round's barrier.
func (c *Cluster) ensureOwners(round int) error {
	for {
		killed := false
		for si, sh := range c.shards {
			if c.ms[c.owner[si]].ok() {
				continue
			}
			found := -1
			for ri, mi := range sh.replicas {
				if c.ms[mi].ok() {
					found = ri
					break
				}
			}
			if found < 0 {
				return fmt.Errorf("cluster: shard %d lost: no healthy replica (had %v)", si, sh.replicas)
			}
			target := sh.replicas[found]
			if c.cdfPending {
				// The chosen target dies before it can take ownership.
				// Restart the whole scan: shards already passed — and the
				// target's own — may be orphaned by this kill.
				c.cdfPending = false
				c.kill(round, target, "crashed during failover")
				c.reisolate(round)
				killed = true
				break
			}
			sh.owner = found
			c.owner[si] = target
			c.failovers++
			c.logf("round %d: shard %d failed over to replica m%d", round, si, target)
		}
		if !killed {
			return nil
		}
	}
}

// prepareRound resets the attempt's ledgers and staging state.
func (c *Cluster) prepareRound(alg Algo) {
	for _, m := range c.ms {
		m.round.Reset()
	}
	for i := range c.msgs {
		for j := range c.msgs[i] {
			c.msgs[i][j].m = c.msgs[i][j].m[:0]
		}
	}
	if alg != PR {
		copy(c.next, c.curr)
		clear(c.nextActive)
	}
}

// runRound executes one BSP superstep: a parallel compute/scatter phase
// (one goroutine per healthy machine, disjoint writes), a barrier, and
// for push kernels a parallel apply phase on the owning machines.
// Values are a pure function of the committed state, so scheduling never
// affects the answer; charges are per-machine and folded
// deterministically.
func (c *Cluster) runRound(alg Algo) {
	var wg sync.WaitGroup
	for _, m := range c.ms {
		if !m.ok() {
			continue
		}
		owned := c.ownedShards(m.id)
		if len(owned) == 0 {
			continue
		}
		wg.Add(1)
		go func(mi int, owned []int) {
			defer wg.Done()
			if alg == PR {
				c.prPhase(mi, owned)
			} else {
				c.scatterPhase(alg, mi, owned)
			}
		}(m.id, owned)
	}
	wg.Wait()
	if alg != PR {
		for _, m := range c.ms {
			if !m.ok() {
				continue
			}
			owned := c.ownedShards(m.id)
			if len(owned) == 0 {
				continue
			}
			wg.Add(1)
			go func(mi int) {
				defer wg.Done()
				c.applyPhase(mi)
			}(m.id)
		}
		wg.Wait()
	}
	c.routeRound()
}

// routeRound folds the phase's logical transfers (remote reads, push
// messages) onto network links, single-threaded after the barrier.
func (c *Cluster) routeRound() {
	alive := c.aliveMask()
	for from := range c.scratchRemote {
		for to, cnt := range c.scratchRemote[from] {
			if cnt == 0 {
				continue
			}
			c.scratchRemote[from][to] = 0
			// Pull-style remote reads: the bytes flow owner -> reader.
			c.net.transfer(to, from, float64(cnt)*8, alive)
		}
	}
	for from := range c.msgs {
		for to := range c.msgs[from] {
			if n := len(c.msgs[from][to].m); n > 0 && from != to {
				c.net.transfer(from, to, float64(n)*msgBytes, alive)
			}
		}
	}
}

func (c *Cluster) aliveMask() []bool {
	alive := make([]bool, len(c.ms))
	for i, m := range c.ms {
		alive[i] = m.ok()
	}
	return alive
}

// commitRound publishes the round: replication traffic to standby
// replicas, the round's simulated time (slowest machine + the network
// phase + the cluster barrier), ledger folds, and the state swap.
func (c *Cluster) commitRound(alg Algo, round int) {
	// Replicate committed per-shard deltas to every standby replica so a
	// failover can resume from the last committed round without a bulk
	// transfer. PR rewrites whole shards; traversals ship improved
	// vertices only.
	alive := c.aliveMask()
	changed := 0
	for si, sh := range c.shards {
		var dirty int
		if alg == PR {
			dirty = sh.rng.Len()
		} else {
			for v := sh.rng.Lo; v < sh.rng.Hi; v++ {
				if c.nextActive[v] != 0 {
					dirty++
				}
			}
		}
		changed += dirtyIf(alg != PR, dirty)
		if dirty == 0 {
			continue
		}
		from := c.owner[si]
		for _, mi := range sh.replicas {
			if mi != from && c.ms[mi].ok() {
				c.net.transfer(from, mi, float64(dirty)*repBytes, alive)
			}
		}
	}
	if alg != PR {
		c.changed = changed
	}

	compute := 0.0
	for _, m := range c.ms {
		if !m.ok() {
			continue
		}
		if t := m.round.Time(); t > compute {
			compute = t
		}
		m.cum.Add(m.round)
	}
	netSecs := c.net.roundSeconds()
	if len(c.ms) > 1 {
		// The BSP barrier crosses the wire twice (reduce + broadcast).
		netSecs += 2 * c.cfg.Net.LatencySec
	}
	simStart := c.sim
	c.sim += compute + netSecs
	c.rounds++

	// Fold the round's traffic into the extended machine × hop matrix
	// before the link ledger commits (the wire is the last level).
	wire := c.traffic.Levels - 1
	for _, m := range c.ms {
		if !m.ok() {
			continue
		}
		m.round.Traffic(&c.tmScratch)
		for node := 0; node < c.tmScratch.Nodes; node++ {
			for lvl := 0; lvl < c.tmScratch.Levels; lvl++ {
				c.traffic.Accumulate(m.id, lvl, numa.Seq, c.tmScratch.At(node, lvl, numa.Seq))
				c.traffic.Accumulate(m.id, lvl, numa.Rand, c.tmScratch.At(node, lvl, numa.Rand))
			}
		}
	}
	for from := range c.ms {
		if b := c.net.roundBytesFrom(from); b > 0 {
			c.traffic.Accumulate(from, wire, numa.Seq, b)
		}
	}
	if tr := c.cfg.Tracer; tr != nil {
		tr.Superstep("cluster", round, simStart, c.sim-simStart, c.traffic.Clone())
	}
	c.net.commitRound()

	c.curr, c.next = c.next, c.curr
	if alg != PR {
		c.active, c.nextActive = c.nextActive, c.active
	}
}

func dirtyIf(cond bool, v int) int {
	if cond {
		return v
	}
	return 0
}

// doneAfter reports whether the committed round was the last.
func (c *Cluster) doneAfter(alg Algo, round int) bool {
	if alg == PR {
		return round == prIters-1
	}
	return c.changed == 0
}

// finish assembles the Result.
func (c *Cluster) finish(alg Algo) *Result {
	n := c.g.NumVertices()
	out := make([]float64, n)
	copy(out, c.curr)
	if alg == BFS {
		// Internal sentinel is +Inf; the oracle convention is -1.
		for v := range out {
			if math.IsInf(out[v], 1) {
				out[v] = -1
			}
		}
	}
	res := &Result{
		Out:        out,
		Checksum:   checksum(alg, out),
		SimSeconds: c.sim,
		Supersteps: c.rounds,
		Failovers:  c.failovers,
		Links:      c.net.cumLinks(),
		Traffic:    c.traffic.Clone(),
		Protocol:   append([]string(nil), c.protocol...),
	}
	for _, row := range res.Links {
		for _, b := range row {
			res.NetBytes += b
		}
	}
	first := true
	for _, m := range c.ms {
		if first {
			res.Stats = m.cum.Stats()
			first = false
		} else {
			res.Stats.Merge(m.cum.Stats())
		}
		res.Machines = append(res.Machines, MachineHealth{
			ID: m.id, State: m.health.String(), Shards: c.ownedShards(m.id),
		})
	}
	return res
}

// checksum follows the bench conventions: plain sum for PR (and BFS,
// whose -1 sentinels are part of the answer), finite sum for SSSP.
func checksum(alg Algo, out []float64) float64 {
	var s float64
	for _, x := range out {
		if alg == SSSP && math.IsInf(x, 0) {
			continue
		}
		s += x
	}
	return s
}

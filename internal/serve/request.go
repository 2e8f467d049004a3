// Request decoding and validation for polymerd. Everything a client can
// send is checked here, before any simulated resource is touched: unknown
// engines/algorithms/datasets, absurd budgets, malformed fault specs and
// oversized bodies all yield a 4xx error — never a panic and never an
// admission-queue slot.

package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"polymer/internal/bench"
	"polymer/internal/cluster"
	"polymer/internal/fault"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/mem"
	"polymer/internal/numa"
	"polymer/internal/plan"
)

// MaxBodyBytes bounds a /run request body; larger bodies are rejected
// before JSON decoding starts.
const MaxBodyBytes = 1 << 16

// MaxBudget bounds the per-request wall-clock budget a client may ask
// for; anything above is an absurd budget and a 400.
const MaxBudget = 10 * time.Minute

// Request is the wire form of one analytics request.
type Request struct {
	// Algo is the algorithm: pr, spmv, bp, bfs or sssp.
	Algo string `json:"algo"`
	// System is the engine: polymer, ligra, xstream or galois. Empty or
	// "auto" asks the cost-model planner to choose.
	System string `json:"system"`
	// Placement is the NUMA data placement: colocated, interleaved or
	// centralized (polymer only — the baselines are interleaved-native).
	// "auto" asks the planner; empty keeps the engine's native default
	// unless the engine is also auto, in which case the planner chooses.
	Placement string `json:"placement"`
	// Graph is the dataset name (twitter, rmat24, rmat27, powerlaw,
	// roadUS).
	Graph string `json:"graph"`
	// Scale is the dataset scale: tiny, small, default or huge.
	Scale string `json:"scale"`
	// Machine is the simulated topology: intel or amd.
	Machine string `json:"machine"`
	// Sockets and Cores bound the simulated machine (0 = topology max).
	Sockets int `json:"sockets"`
	Cores   int `json:"cores"`
	// Src is the traversal source for bfs and sssp.
	Src uint32 `json:"src"`
	// BudgetMs is the request's wall-clock budget in milliseconds; the
	// deadline starts at admission and is propagated as a context through
	// every engine superstep. 0 means the server default.
	BudgetMs int64 `json:"budget_ms"`
	// Fault is an optional fault.ParseSpec schedule injected into the run
	// (chaos testing); FaultSeed generates a deterministic schedule
	// instead. Fault wins when both are set.
	Fault     string `json:"fault"`
	FaultSeed uint64 `json:"fault_seed"`
	// Retries caps server-level whole-run retries (backoff + jitter) on
	// top of the fault session's per-step replays. -1 (and an absent
	// field) means the server default; 0 disables retries.
	Retries int `json:"retries"`
	// SessionRetries caps per-superstep replays inside the fault session.
	// -1 (absent) keeps the session default of 3; 0 fails a step on its
	// first faulted attempt — chaos requests use it to make injected
	// faults unrecoverable so the circuit breaker's failure path is
	// exercisable end to end.
	SessionRetries int `json:"session_retries"`
	// Restarts caps whole-run restarts for setup-time faults within one
	// execution attempt. -1 (absent) means the server default.
	Restarts int `json:"restarts"`
	// DramBytes > 0 arms tiered memory on the simulated machine: each
	// node gets that many bytes of DRAM and spills the rest of its
	// footprint to the slow tier under the Tier policy ("hot" or
	// "interleave"). PromoteEvery sets the phases between promotion
	// passes for the hot policy (0 = the substrate default). Tiering is
	// single-machine only.
	DramBytes    int64  `json:"dram_bytes"`
	Tier         string `json:"tier"`
	PromoteEvery int    `json:"promote_every"`
	// Machines > 0 runs the request on the replicated sharded cluster
	// substrate (polymer engine; pr, bfs or sssp) instead of a single
	// simulated machine. Replicas sets the shard replication factor
	// (0 = the cluster default). For cluster runs fault_seed selects a
	// deterministic chaos schedule (crash/partition/slow-link); the
	// single-machine fault spec grammar does not apply.
	Machines int `json:"machines"`
	Replicas int `json:"replicas"`
}

// BadRequest is a client error: the request never reached the admission
// queue. Handlers map it to 400.
type BadRequest struct{ msg string }

func (e *BadRequest) Error() string { return e.msg }

func badReq(format string, args ...any) error {
	return &BadRequest{msg: fmt.Sprintf(format, args...)}
}

// resolved is a validated request bound to concrete bench/gen types.
type resolved struct {
	req    Request
	sys    bench.System
	alg    bench.Algo
	data   gen.Dataset
	scale  gen.Scale
	topo   *numa.Topology
	mach   string // normalized machine name ("intel" or "amd")
	nodes  int
	cores  int
	src    graph.Vertex
	budget time.Duration // 0 = server default
	events []*fault.Event
	// machines/replicas place the request on the cluster substrate
	// (0 machines = single-machine execution). hedge is not wire state:
	// the hedged-read path sets it on the secondary leg so the cluster
	// serves from standby replicas while the primary leg runs home shards.
	machines int
	replicas int
	hedge    bool
	// tier is the validated tiered-memory config; the zero value means
	// untiered. Every machine the execution path builds is armed with it
	// before the engine charges an epoch.
	tier numa.TierConfig
	// ver is the dataset's result-cache version, sampled when the request
	// enters the reuse path; results computed by this request are cached
	// under it, so an invalidation racing the run can never resurrect a
	// pre-invalidation result under the new version.
	ver uint64
	// autoEngine/autoPlace record which knobs the client left to the
	// planner; layout/layoutSet carry an explicit (or planner-chosen)
	// polymer placement override. planned holds the planner's decision
	// once planFor has resolved the request — it is provenance, and the
	// learner's handle for observing the run.
	autoEngine bool
	autoPlace  bool
	layout     mem.Placement
	layoutSet  bool
	planned    *plan.Decision
}

var systems = map[string]bench.System{
	"polymer": bench.Polymer, "ligra": bench.Ligra,
	"xstream": bench.XStream, "x-stream": bench.XStream, "galois": bench.Galois,
}

var algos = map[string]bench.Algo{
	"pr": bench.PR, "spmv": bench.SpMV, "bp": bench.BP, "bfs": bench.BFS,
	"sssp": bench.SSSP,
}

var scales = map[string]gen.Scale{
	"": gen.Tiny, "tiny": gen.Tiny, "small": gen.Small, "default": gen.Default,
	"huge": gen.Huge,
}

// MaxMachines bounds the simulated cluster size a request may ask for.
const MaxMachines = 16

// DecodeRequest reads and validates one request body. Every error it
// returns is a *BadRequest; it never panics on hostile input.
func DecodeRequest(r io.Reader) (*resolved, error) {
	dec := json.NewDecoder(io.LimitReader(r, MaxBodyBytes+1))
	dec.DisallowUnknownFields()
	// Absent knobs mean "server default", not zero.
	req := Request{Retries: -1, SessionRetries: -1, Restarts: -1}
	if err := dec.Decode(&req); err != nil {
		return nil, badReq("bad JSON: %v", err)
	}
	// A second document (or trailing garbage) is malformed too.
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return nil, badReq("trailing data after request object")
	}
	return resolve(req)
}

func resolve(req Request) (*resolved, error) {
	v := &resolved{req: req}
	var ok bool
	if v.alg, ok = algos[strings.ToLower(req.Algo)]; !ok {
		return nil, badReq("unknown algorithm %q (want pr, spmv, bp, bfs or sssp)", req.Algo)
	}
	switch sysName := strings.ToLower(strings.TrimSpace(req.System)); sysName {
	case "", "auto":
		// Engine selection is the planner's job; v.sys stays empty until
		// planFor resolves it.
		v.autoEngine = true
	default:
		if v.sys, ok = systems[sysName]; !ok {
			return nil, badReq("unknown system %q (want polymer, ligra, xstream, galois or auto)", req.System)
		}
		if !bench.SessionCapable(v.sys, v.alg) {
			return nil, badReq("%s is not served on %s (PR runs everywhere; spmv/bp/bfs/sssp need polymer or ligra)", v.alg, v.sys)
		}
	}
	if v.scale, ok = scales[strings.ToLower(req.Scale)]; !ok {
		return nil, badReq("unknown scale %q (want tiny, small, default or huge)", req.Scale)
	}
	v.data = gen.Dataset(strings.TrimSpace(req.Graph))
	found := false
	for _, d := range gen.Datasets() {
		if d == v.data {
			found = true
			break
		}
	}
	if !found {
		return nil, badReq("unknown dataset %q", req.Graph)
	}
	switch strings.ToLower(req.Machine) {
	case "", "intel":
		v.topo, v.mach = numa.IntelXeon80(), "intel"
	case "amd":
		v.topo, v.mach = numa.AMDOpteron64(), "amd"
	default:
		return nil, badReq("unknown machine %q (want intel or amd)", req.Machine)
	}
	if req.Sockets < 0 || req.Sockets > v.topo.Sockets {
		return nil, badReq("sockets %d out of range [0,%d]", req.Sockets, v.topo.Sockets)
	}
	if req.Cores < 0 || req.Cores > v.topo.CoresPerSocket {
		return nil, badReq("cores %d out of range [0,%d]", req.Cores, v.topo.CoresPerSocket)
	}
	v.nodes, v.cores = req.Sockets, req.Cores
	if v.nodes == 0 {
		v.nodes = v.topo.Sockets
	}
	if v.cores == 0 {
		v.cores = v.topo.CoresPerSocket
	}
	if req.BudgetMs < 0 {
		return nil, badReq("budget_ms %d is negative", req.BudgetMs)
	}
	// Compare in milliseconds: converting first would overflow Duration
	// for absurd values and slip past the check as a negative budget.
	if req.BudgetMs > MaxBudget.Milliseconds() {
		return nil, badReq("budget_ms %d exceeds the %v maximum", req.BudgetMs, MaxBudget)
	}
	v.budget = time.Duration(req.BudgetMs) * time.Millisecond
	if req.Retries < -1 || req.Retries > 10 {
		return nil, badReq("retries %d out of range [-1,10]", req.Retries)
	}
	if req.SessionRetries < -1 || req.SessionRetries > 10 {
		return nil, badReq("session_retries %d out of range [-1,10]", req.SessionRetries)
	}
	if req.Restarts < -1 || req.Restarts > 10 {
		return nil, badReq("restarts %d out of range [-1,10]", req.Restarts)
	}
	v.src = graph.Vertex(req.Src)
	if !v.batchable() {
		// src is dead weight for pr/spmv/bp: normalize it to 0 here so the
		// reuse key, execute's source bounds check and the cached result
		// all see the same request no matter what the client sent. Without
		// this, an out-of-range src on a pr request would 400 on a direct
		// run but could 200 via a cache or coalesce hit (and vice versa).
		v.src = 0
	}
	if req.Fault != "" {
		evs, err := fault.ParseSpec(req.Fault)
		if err != nil {
			return nil, badReq("bad fault spec: %v", err)
		}
		v.events = evs
	}
	if req.Machines < 0 || req.Machines > MaxMachines {
		return nil, badReq("machines %d out of range [0,%d]", req.Machines, MaxMachines)
	}
	if req.Machines == 0 && req.Replicas != 0 {
		return nil, badReq("replicas requires machines > 0")
	}
	if req.Machines > 0 {
		if v.autoEngine {
			// The cluster substrate is polymer-only, so auto resolves
			// trivially and no planning is needed.
			v.sys, v.autoEngine = bench.Polymer, false
		}
		if v.sys != bench.Polymer {
			return nil, badReq("cluster runs are polymer-only (got %s)", v.sys)
		}
		if _, ok := clusterAlgos[v.alg]; !ok {
			return nil, badReq("%s is not served on the cluster substrate (want pr, bfs or sssp)", v.alg)
		}
		if req.Fault != "" {
			return nil, badReq("fault specs don't apply to cluster runs; use fault_seed for cluster chaos")
		}
		if req.Replicas < 0 || req.Replicas > req.Machines {
			return nil, badReq("replicas %d out of range [0,%d]", req.Replicas, req.Machines)
		}
		v.machines, v.replicas = req.Machines, req.Replicas
		if v.replicas == 0 {
			// Normalize the cluster default here so identical requests
			// collide on one reuse key regardless of spelling.
			v.replicas = 2
			if v.replicas > v.machines {
				v.replicas = v.machines
			}
		}
	}
	if req.DramBytes < 0 {
		return nil, badReq("dram_bytes %d is negative", req.DramBytes)
	}
	if req.PromoteEvery < 0 {
		return nil, badReq("promote_every %d is negative", req.PromoteEvery)
	}
	pol, err := numa.ParseTierPolicy(req.Tier)
	if err != nil {
		return nil, badReq("unknown tier %q (want hot or interleave)", req.Tier)
	}
	if req.DramBytes > 0 {
		if pol == numa.TierNone {
			return nil, badReq("dram_bytes needs a tier policy: set tier to hot or interleave")
		}
		if v.clustered() {
			return nil, badReq("tiering applies to single-machine runs only (machines > 0)")
		}
		if len(v.topo.SlowSeqBW) == 0 {
			return nil, badReq("machine %q has no slow-tier cost tables", v.mach)
		}
		every := req.PromoteEvery
		if every == 0 && pol == numa.TierHot {
			every = 1
		}
		v.tier = numa.TierConfig{DRAMPerNode: req.DramBytes, Policy: pol, PromoteEvery: every}
	} else if pol != numa.TierNone || req.PromoteEvery > 0 {
		return nil, badReq("tier and promote_every need dram_bytes > 0")
	}
	if v.clustered() {
		if strings.TrimSpace(req.Placement) != "" {
			return nil, badReq("placement does not apply to cluster runs (shards are co-located per machine)")
		}
	} else {
		switch pl := strings.ToLower(strings.TrimSpace(req.Placement)); pl {
		case "":
			// An unspecified placement follows the engine: explicit engines
			// keep their native layout, an auto engine frees the planner to
			// choose the placement too.
			v.autoPlace = v.autoEngine
		case "auto":
			v.autoPlace = true
		default:
			p, err := mem.ParsePlacement(pl)
			if err != nil {
				return nil, badReq("unknown placement %q (want colocated, interleaved, centralized or auto)", req.Placement)
			}
			if !v.autoEngine && v.sys != bench.Polymer && p != mem.Interleaved {
				return nil, badReq("placement %s needs polymer; %s is interleaved-native", p, v.sys)
			}
			v.layout, v.layoutSet = p, true
		}
	}
	return v, nil
}

// clusterAlgos maps the bench algorithms the cluster substrate serves to
// its kernel names.
var clusterAlgos = map[bench.Algo]cluster.Algo{
	bench.PR: cluster.PR, bench.BFS: cluster.BFS, bench.SSSP: cluster.SSSP,
}

// clustered reports whether the request runs on the cluster substrate.
func (v *resolved) clustered() bool { return v.machines > 0 }

// effPlacement is the data placement the execution will actually use:
// the explicit (or planner-chosen) layout when one was set, else the
// engine's native default. Keys use it so an auto-planned run and an
// explicitly-configured identical run collide on one result-cache entry.
func (v *resolved) effPlacement() mem.Placement {
	if v.sys == bench.Polymer {
		if v.layoutSet {
			return v.layout
		}
		return mem.CoLocated
	}
	return mem.Interleaved
}

// key is the canonical execution identity of a request: engine,
// algorithm, dataset, scale, placement and machine shape, plus the
// traversal source for point queries. resolve already normalized aliases
// ("x-stream", mixed case), default-filled scale/machine/sockets/cores
// and zeroed src for non-traversals, and planFor resolved auto
// engine/placement to concrete picks, so semantically identical requests
// collide on one key no matter how they were spelled. QoS knobs (budget,
// retries, restarts) don't affect the computed result and stay out of
// the key; fault-carrying requests are never keyed (see reusable).
func (v *resolved) key() string { return v.keyFor(v.src) }

// keyFor is key with an explicit source: execute caches each source's
// result of a multi-source run under the key the equivalent
// single-source request would look up.
func (v *resolved) keyFor(src graph.Vertex) string {
	k := fmt.Sprintf("%s|%s|%s|%d|%s|%s|%dx%d|%d",
		v.sys, v.alg, v.data, v.scale, v.effPlacement(), v.mach, v.nodes, v.cores, src)
	if v.tier.Tiered() {
		// Appended only when armed, so every untiered key (the entire
		// pre-tiering key population) is byte-identical to before.
		k += fmt.Sprintf("|t:%s:%d:%d", v.tier.Policy, v.tier.DRAMPerNode, v.tier.PromoteEvery)
	}
	if v.clustered() {
		// The committed output is bit-identical for any cluster shape, but
		// SimSeconds/NetBytes are not: cluster requests key separately per
		// shape so cached timings stay honest.
		k += fmt.Sprintf("|c%d|r%d", v.machines, v.replicas)
	}
	return k
}

// groupKey is key with the source slot wildcarded: requests that agree on
// it differ only in src and can share one multi-source sweep.
func (v *resolved) groupKey() string {
	return fmt.Sprintf("%s|%s|%s|%d|%s|%s|%dx%d|*",
		v.sys, v.alg, v.data, v.scale, v.effPlacement(), v.mach, v.nodes, v.cores)
}

// reusable reports whether the request's result is a pure function of
// its key: fault-injected (chaos) runs are intentionally nondeterministic
// in accounting and must never be coalesced, batched or cached.
func (v *resolved) reusable() bool {
	return v.req.Fault == "" && v.req.FaultSeed == 0
}

// batchable reports whether the request is a traversal point query that
// a multi-source sweep can absorb. Cluster runs never batch: the sweep
// engines are single-machine. Non-native placements don't batch either —
// the fused sweep always runs the engine's native layout, and caching
// its timings under a different placement's key would lie.
func (v *resolved) batchable() bool {
	if v.alg != bench.BFS && v.alg != bench.SSSP || v.clustered() {
		return false
	}
	// Tiered runs stay solo: the fused sweep's machines are untiered, so
	// caching its timings under a tiered key would lie about slow-tier
	// stalls.
	if v.tier.Tiered() {
		return false
	}
	if v.layoutSet {
		native := mem.Interleaved
		if v.sys == bench.Polymer {
			native = mem.CoLocated
		}
		return v.layout == native
	}
	return true
}

// armTier applies the request's tiered-memory config to a freshly built
// machine and returns it. resolve validated the policy and the
// topology's slow-tier tables, and the machines the execution path
// builds have no epochs yet, so a failure here is an invariant
// violation, not a client error.
func (v *resolved) armTier(m *numa.Machine) *numa.Machine {
	if v.tier.Tiered() {
		if err := m.SetTierConfig(v.tier); err != nil {
			panic(fmt.Sprintf("serve: arming validated tier config: %v", err))
		}
	}
	return m
}

// injector builds a fresh injector for one execution attempt. Event state
// (fired/repaired) is per-run, so each attempt needs its own schedule.
func (v *resolved) injector() *fault.Injector {
	switch {
	case v.req.Fault != "":
		evs, err := fault.ParseSpec(v.req.Fault) // validated in resolve
		if err != nil {
			return fault.NewInjector(nil)
		}
		return fault.NewInjector(evs)
	case v.req.FaultSeed != 0:
		threads := v.nodes * v.cores
		return fault.NewInjector(fault.Schedule(v.req.FaultSeed, 5, threads, v.nodes))
	default:
		return fault.NewInjector(nil)
	}
}

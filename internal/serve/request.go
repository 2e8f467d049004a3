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
	"slices"
	"strings"
	"time"

	"polymer/internal/bench"
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
	// Scale is the dataset scale: tiny, small or default.
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
	// SessionRetries caps per-superstep replays inside the fault session,
	// which only a request with Fault or FaultSeed gets; on any other it
	// has no effect. -1 (absent) keeps the session default of 3; 0 fails
	// a step on its first faulted attempt — chaos requests use it to make
	// injected faults unrecoverable so the circuit breaker's failure path
	// is exercisable end to end.
	SessionRetries int `json:"session_retries"`
	// Restarts caps whole-run restarts for setup-time faults and steps
	// that spent their replay budget; like SessionRetries it acts only
	// with Fault or FaultSeed. -1 (absent) means the server default.
	Restarts int `json:"restarts"`
	// DramBytes > 0 arms tiered memory on the simulated machine: each
	// node gets that many bytes of DRAM and spills the rest of its
	// footprint to the slow tier under the Tier policy ("hot" or
	// "interleave"). PromoteEvery sets the phases between promotion
	// passes for the hot policy (0 = the substrate default).
	DramBytes    int64  `json:"dram_bytes"`
	Tier         string `json:"tier"`
	PromoteEvery int    `json:"promote_every"`
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

// DecodeRequest reads and validates one request body. Every error it
// returns is a *BadRequest; it never panics on hostile input.
func DecodeRequest(r io.Reader) (*resolved, error) {
	dec := json.NewDecoder(io.LimitReader(r, MaxBodyBytes+1))
	dec.DisallowUnknownFields()
	// Absent knobs mean "server default", not zero.
	req := Request{SessionRetries: -1, Restarts: -1}
	if err := dec.Decode(&req); err != nil {
		return nil, badReq("bad JSON: %v", err)
	}
	// A second document (or trailing garbage) is malformed too.
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return nil, badReq("trailing data after request object")
	}
	return resolve(req)
}

// resolveTarget checks what /run and /mutatez both address: the dataset,
// its scale (empty means tiny) and budget_ms (0 means the server default).
func resolveTarget(name, scale string, budgetMs int64) (gen.Dataset, gen.Scale, time.Duration, error) {
	data := gen.Dataset(strings.TrimSpace(name))
	if !slices.Contains(gen.Datasets(), data) {
		return "", 0, 0, badReq("unknown dataset %q", name)
	}
	if scale == "" {
		scale = "tiny"
	}
	sc, err := gen.ParseScale(scale)
	if err != nil {
		return "", 0, 0, badReq("%v", err)
	}
	if budgetMs < 0 {
		return "", 0, 0, badReq("budget_ms %d is negative", budgetMs)
	}
	// Compare in milliseconds: converting first would overflow Duration
	// for absurd values and slip past the check as a negative budget.
	if budgetMs > MaxBudget.Milliseconds() {
		return "", 0, 0, badReq("budget_ms %d exceeds the %v maximum", budgetMs, MaxBudget)
	}
	return data, sc, time.Duration(budgetMs) * time.Millisecond, nil
}

func resolve(req Request) (*resolved, error) {
	v := &resolved{req: req}
	var err error
	// polymerd serves cells with a resilient driver, and CC has none.
	if v.alg, err = bench.ParseAlgo(req.Algo); err != nil || v.alg == bench.CC {
		return nil, badReq("unknown algorithm %q (want pr, spmv, bp, bfs or sssp)", req.Algo)
	}
	switch sysName := strings.ToLower(strings.TrimSpace(req.System)); sysName {
	case "", "auto":
		// Engine selection is the planner's job; v.sys stays empty until
		// planFor resolves it.
		v.autoEngine = true
	default:
		if v.sys, err = bench.ParseSystem(sysName); err != nil {
			return nil, badReq("unknown system %q (want polymer, ligra, xstream, galois or auto)", req.System)
		}
		if !bench.SessionCapable(v.sys, v.alg) {
			return nil, badReq("%s is not served on %s (PR runs everywhere; spmv/bp/bfs/sssp need polymer or ligra)", v.alg, v.sys)
		}
	}
	if v.data, v.scale, v.budget, err = resolveTarget(req.Graph, req.Scale, req.BudgetMs); err != nil {
		return nil, err
	}
	if v.mach = strings.ToLower(strings.TrimSpace(req.Machine)); v.mach == "" {
		v.mach = "intel"
	}
	if v.topo, err = numa.TopologyByName(v.mach); err != nil {
		return nil, badReq("%v", err)
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
	if req.SessionRetries < -1 || req.SessionRetries > 10 {
		return nil, badReq("session_retries %d out of range [-1,10]", req.SessionRetries)
	}
	if req.Restarts < -1 || req.Restarts > 10 {
		return nil, badReq("restarts %d out of range [-1,10]", req.Restarts)
	}
	v.src = graph.Vertex(req.Src)
	if !v.batchable() {
		// src is dead weight for pr/spmv/bp: normalize it to 0 here so the
		// run identity, execute's source bounds check and the cached result
		// all see the same request no matter what the client sent. Without
		// this, an out-of-range src on a pr request would 400 on a direct
		// run but could 200 via a cache or coalesce hit (and vice versa).
		v.src = 0
	}
	if req.Fault != "" {
		if _, err := fault.ParseSpec(req.Fault); err != nil {
			return nil, badReq("bad fault spec: %v", err)
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
	return v, nil
}

// runID is the canonical identity of a run: engine, algorithm, dataset,
// scale, effective placement, machine and its nodes x cores and tier
// config, plus the traversal source for point queries. resolve already
// normalized aliases ("x-stream", mixed case), default-filled
// scale/machine/sockets/cores and zeroed src for non-traversals, and
// planFor resolved auto engine/placement to concrete picks, so
// semantically identical requests share one identity no matter how they
// were spelled. The zero tier config is untiered. QoS knobs (budget,
// session_retries, restarts) don't affect the computed result and stay
// out of it; fault-carrying requests are never keyed (see reusable).
type runID struct {
	sys          bench.System
	alg          bench.Algo
	data         gen.Dataset
	scale        gen.Scale
	place        mem.Placement
	mach         string
	nodes, cores int
	tier         numa.TierConfig
	src          graph.Vertex
	// group marks a run group's identity: src is wildcarded, and the
	// requests that share it differ only in their source, so one
	// multi-source sweep can answer them all.
	group bool
}

// id is the identity of the request's run from src. The placement is
// the one the execution will actually use — the explicit (or
// planner-chosen) layout when one was set, else the engine's native
// default — so an auto-planned run and an explicitly configured
// identical run share one result-cache entry. execute caches each
// source of a multi-source run under the identity the equivalent
// single-source request looks up.
func (v *resolved) id(src graph.Vertex) runID {
	place := mem.Interleaved
	if v.sys == bench.Polymer {
		place = mem.CoLocated
		if v.layoutSet {
			place = v.layout
		}
	}
	return runID{
		sys: v.sys, alg: v.alg, data: v.data, scale: v.scale, place: place,
		mach: v.mach, nodes: v.nodes, cores: v.cores, tier: v.tier, src: src,
	}
}

// groupID is the request's identity with the source wildcarded.
func (v *resolved) groupID() runID {
	id := v.id(0)
	id.group = true
	return id
}

// reusable reports whether the request's result is a pure function of
// its identity: fault-injected (chaos) runs are intentionally
// nondeterministic in accounting and must never be coalesced, batched or
// cached.
func (v *resolved) reusable() bool {
	return v.req.Fault == "" && v.req.FaultSeed == 0
}

// batchable reports whether the request is a traversal point query that
// a multi-source sweep can absorb. A fused sweep is the same run as a
// solo one, with the same tiered machines and layout, so tier and
// placement only split groups (they are part of the group identity).
func (v *resolved) batchable() bool {
	return v.alg == bench.BFS || v.alg == bench.SSSP
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

// injector builds a fresh injector for one execution attempt, or returns
// nil for a fault-free request, whose run then has no fault session.
// Event state (fired/repaired) is per-run, so each attempt needs its own
// schedule.
func (v *resolved) injector() *fault.Injector {
	switch {
	case v.req.Fault != "":
		evs, _ := fault.ParseSpec(v.req.Fault) // validated in resolve
		return fault.NewInjector(evs)
	case v.req.FaultSeed != 0:
		threads := v.nodes * v.cores
		return fault.NewInjector(fault.Schedule(v.req.FaultSeed, 5, threads, v.nodes))
	}
	return nil
}

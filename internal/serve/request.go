// Request decoding and validation for polymerd. Everything a client can
// send is checked here, before any simulated resource is touched: unknown
// engines/algorithms/datasets, absurd budgets, malformed fault specs and
// oversized bodies all yield a 4xx error — never a panic and never an
// admission-queue slot.

package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"polymer/internal/bench"
	"polymer/internal/fault"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/mem"
	"polymer/internal/numa"
	"polymer/internal/plan"
)

// MaxBodyBytes bounds a /run request body; a longer body is a 400 that
// names the limit, and none of it is decoded.
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
	// injected faults unrecoverable, so the failure path (a 500) is
	// exercisable end to end.
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
	v := new(resolved)
	if err := v.decode(r); err != nil {
		return nil, err
	}
	return v, nil
}

// decode is DecodeRequest into v, which the caller may keep in its
// frame: handleRun's stays there when the request is a cache hit.
//
// The body is read once, into a pooled buffer. A flat object of exact
// field names, escape-free ASCII strings and plain integers — what
// clients send — is decoded by decodeFlat; any other body by
// encoding/json over the same bytes, which gives every non-canonical
// body its accepted Request and its error text.
func (v *resolved) decode(r io.Reader) error {
	buf, err := readBody(r, MaxBodyBytes)
	if err != nil {
		return err
	}
	defer bodyBufs.Put(buf)
	// Absent knobs mean "server default", not zero.
	req := Request{SessionRetries: -1, Restarts: -1}
	if !decodeFlat(*buf, &req) {
		// A separate Request, so that only this path's escapes to the heap.
		ref := &Request{SessionRetries: -1, Restarts: -1}
		if err := decodeJSON(*buf, ref, "request"); err != nil {
			return err
		}
		req = *ref
	}
	return v.bind(req)
}

// bodyBufs pools the buffers request bodies are read into.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// readBody reads all of r into a buffer from bodyBufs, which the caller
// puts back once it has decoded the body: nothing decoded points into
// it. A body longer than limit is a 400 naming the limit; it is read no
// further than its first byte past the limit.
func readBody(r io.Reader, limit int) (*[]byte, error) {
	buf := bodyBufs.Get().(*[]byte)
	b := (*buf)[:0]
	if cap(b) == 0 {
		b = make([]byte, 0, 512)
	}
	var err error
	for len(b) <= limit && err == nil {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		var n int
		n, err = r.Read(b[len(b):min(cap(b), limit+1)])
		b = b[:len(b)+n]
	}
	*buf = b
	switch {
	case len(b) > limit:
		err = badReq("body exceeds the %d-byte limit", limit)
	case err == io.EOF:
		return buf, nil
	default:
		err = badReq("bad JSON: %v", err)
	}
	bodyBufs.Put(buf)
	return nil, err
}

// decodeJSON is the reference decoder: one JSON object of known fields
// into v, then nothing but whitespace.
func decodeJSON(b []byte, v any, what string) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badReq("bad JSON: %v", err)
	}
	// A second document (or trailing garbage) is malformed too.
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return badReq("trailing data after %s object", what)
	}
	return nil
}

// decodeFlat decodes b into req and reports true when b is one flat
// object whose every key is a Request field's exact JSON name, every
// string value printable ASCII with no escape, and every number an
// in-range integer with no sign on an unsigned field, no fraction, no
// exponent, no leading zero and no "-0", followed by whitespace only.
// encoding/json decodes such a body to the same Request. On any other
// body it reports false and leaves req partly written.
func decodeFlat(b []byte, req *Request) bool {
	s := flatScanner{b: b}
	if !s.take('{') {
		return false
	}
	if s.take('}') {
		return s.end()
	}
	for {
		key, ok := s.str()
		if !ok || !s.take(':') {
			return false
		}
		switch string(key) {
		case "algo":
			ok = s.word(&req.Algo)
		case "system":
			ok = s.word(&req.System)
		case "placement":
			ok = s.word(&req.Placement)
		case "graph":
			ok = s.word(&req.Graph)
		case "scale":
			ok = s.word(&req.Scale)
		case "machine":
			ok = s.word(&req.Machine)
		case "fault":
			ok = s.word(&req.Fault)
		case "tier":
			ok = s.word(&req.Tier)
		case "sockets":
			ok = flatInt(&s, &req.Sockets, math.MaxInt)
		case "cores":
			ok = flatInt(&s, &req.Cores, math.MaxInt)
		case "session_retries":
			ok = flatInt(&s, &req.SessionRetries, math.MaxInt)
		case "restarts":
			ok = flatInt(&s, &req.Restarts, math.MaxInt)
		case "promote_every":
			ok = flatInt(&s, &req.PromoteEvery, math.MaxInt)
		case "budget_ms":
			ok = flatInt(&s, &req.BudgetMs, math.MaxInt64)
		case "dram_bytes":
			ok = flatInt(&s, &req.DramBytes, math.MaxInt64)
		case "src":
			ok = flatUint(&s, &req.Src, math.MaxUint32)
		case "fault_seed":
			ok = flatUint(&s, &req.FaultSeed, math.MaxUint64)
		default:
			return false
		}
		if !ok {
			return false
		}
		if s.take('}') {
			return s.end()
		}
		if !s.take(',') {
			return false
		}
	}
}

// flatScanner walks a body for decodeFlat; i is the next unread byte.
type flatScanner struct {
	b []byte
	i int
}

// skip passes JSON whitespace.
func (s *flatScanner) skip() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
}

// take consumes c, after whitespace, if it is next.
func (s *flatScanner) take(c byte) bool {
	s.skip()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *flatScanner) end() bool {
	s.skip()
	return s.i == len(s.b)
}

// str consumes a string of printable ASCII with no escape and returns
// its contents, which alias the body.
func (s *flatScanner) str() ([]byte, bool) {
	if !s.take('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := s.b[s.i:j]
			s.i = j + 1
			return v, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// word consumes a string value into *dst: a vocabulary word as its
// constant, anything else as a copy of its bytes.
func (s *flatScanner) word(dst *string) bool {
	v, ok := s.str()
	if !ok {
		return false
	}
	if w, known := vocabulary[string(v)]; known {
		*dst = w
	} else {
		*dst = string(v)
	}
	return true
}

// digits consumes a magnitude with no leading zero that fits in uint64.
func (s *flatScanner) digits() (uint64, bool) {
	start := s.i
	var n uint64
	for ; s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9'; s.i++ {
		d := uint64(s.b[s.i] - '0')
		if n > (math.MaxUint64-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	// A leading zero is valid only alone: "0", not "01".
	return n, s.i > start && (s.b[start] != '0' || s.i == start+1)
}

// flatUint consumes an unsigned integer no greater than hi.
func flatUint[T uint32 | uint64](s *flatScanner, dst *T, hi uint64) bool {
	s.skip()
	n, ok := s.digits()
	if !ok || n > hi {
		return false
	}
	*dst = T(n)
	return true
}

// flatInt consumes a signed integer in [-hi-1, hi]; "-0" is refused.
func flatInt[T int | int64](s *flatScanner, dst *T, hi int64) bool {
	s.skip()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	n, ok := s.digits()
	switch {
	case !ok:
		return false
	case neg && n != 0 && n-1 <= uint64(hi):
		*dst = T(-int64(n-1) - 1)
	case !neg && n <= uint64(hi):
		*dst = T(n)
	default:
		return false
	}
	return true
}

// vocabulary maps each name a well-formed request spells to one constant
// string, so that decodeFlat allocates nothing for it.
var vocabulary = func() map[string]string {
	words := []string{"auto", "tiny", "small", "default", "intel", "amd",
		"colocated", "interleaved", "centralized", "hot", "interleave"}
	for _, a := range bench.Algos() {
		words = append(words, strings.ToLower(string(a)))
	}
	for _, s := range bench.Systems() {
		name := strings.ToLower(string(s))
		words = append(words, name, strings.ReplaceAll(name, "-", ""))
	}
	for _, d := range gen.Datasets() {
		words = append(words, string(d))
	}
	m := make(map[string]string, len(words))
	for _, w := range words {
		m[w] = w
	}
	return m
}()

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

// bind validates req and sets v to it bound to concrete types.
func (v *resolved) bind(req Request) error {
	*v = resolved{req: req}
	var err error
	// polymerd serves cells with a resilient driver, and CC has none.
	if v.alg, err = bench.ParseAlgo(req.Algo); err != nil || v.alg == bench.CC {
		return badReq("unknown algorithm %q (want pr, spmv, bp, bfs or sssp)", req.Algo)
	}
	switch sysName := strings.ToLower(strings.TrimSpace(req.System)); sysName {
	case "", "auto":
		// Engine selection is the planner's job; v.sys stays empty until
		// planFor resolves it.
		v.autoEngine = true
	default:
		if v.sys, err = bench.ParseSystem(sysName); err != nil {
			return badReq("unknown system %q (want polymer, ligra, xstream, galois or auto)", req.System)
		}
		if !bench.SessionCapable(v.sys, v.alg) {
			return badReq("%s is not served on %s (PR runs everywhere; spmv/bp/bfs/sssp need polymer or ligra)", v.alg, v.sys)
		}
	}
	if v.data, v.scale, v.budget, err = resolveTarget(req.Graph, req.Scale, req.BudgetMs); err != nil {
		return err
	}
	if v.mach = strings.ToLower(strings.TrimSpace(req.Machine)); v.mach == "" {
		v.mach = "intel"
	}
	if v.topo, err = numa.TopologyByName(v.mach); err != nil {
		return badReq("%v", err)
	}
	if req.Sockets < 0 || req.Sockets > v.topo.Sockets {
		return badReq("sockets %d out of range [0,%d]", req.Sockets, v.topo.Sockets)
	}
	if req.Cores < 0 || req.Cores > v.topo.CoresPerSocket {
		return badReq("cores %d out of range [0,%d]", req.Cores, v.topo.CoresPerSocket)
	}
	v.nodes, v.cores = req.Sockets, req.Cores
	if v.nodes == 0 {
		v.nodes = v.topo.Sockets
	}
	if v.cores == 0 {
		v.cores = v.topo.CoresPerSocket
	}
	if req.SessionRetries < -1 || req.SessionRetries > 10 {
		return badReq("session_retries %d out of range [-1,10]", req.SessionRetries)
	}
	if req.Restarts < -1 || req.Restarts > 10 {
		return badReq("restarts %d out of range [-1,10]", req.Restarts)
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
			return badReq("bad fault spec: %v", err)
		}
	}
	if req.DramBytes < 0 {
		return badReq("dram_bytes %d is negative", req.DramBytes)
	}
	if req.PromoteEvery < 0 {
		return badReq("promote_every %d is negative", req.PromoteEvery)
	}
	pol, err := numa.ParseTierPolicy(req.Tier)
	if err != nil {
		return badReq("unknown tier %q (want hot or interleave)", req.Tier)
	}
	if req.DramBytes > 0 {
		if pol == numa.TierNone {
			return badReq("dram_bytes needs a tier policy: set tier to hot or interleave")
		}
		if len(v.topo.SlowSeqBW) == 0 {
			return badReq("machine %q has no slow-tier cost tables", v.mach)
		}
		every := req.PromoteEvery
		if every == 0 && pol == numa.TierHot {
			every = 1
		}
		v.tier = numa.TierConfig{DRAMPerNode: req.DramBytes, Policy: pol, PromoteEvery: every}
	} else if pol != numa.TierNone || req.PromoteEvery > 0 {
		return badReq("tier and promote_every need dram_bytes > 0")
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
			return badReq("unknown placement %q (want colocated, interleaved, centralized or auto)", req.Placement)
		}
		if !v.autoEngine && v.sys != bench.Polymer && p != mem.Interleaved {
			return badReq("placement %s needs polymer; %s is interleaved-native", p, v.sys)
		}
		v.layout, v.layoutSet = p, true
	}
	return nil
}

// runID is the canonical identity of a run: engine, algorithm, dataset,
// scale, effective placement, machine and its nodes x cores and tier
// config, plus the traversal source for point queries. bind already
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
// machine and returns it. bind validated the policy and the
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
		evs, _ := fault.ParseSpec(v.req.Fault) // validated in bind
		return fault.NewInjector(evs)
	case v.req.FaultSeed != 0:
		threads := v.nodes * v.cores
		return fault.NewInjector(fault.Schedule(v.req.FaultSeed, 5, threads, v.nodes))
	}
	return nil
}

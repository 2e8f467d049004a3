// Package par provides the minimal phase-execution machinery the engines
// share: a pool that runs the machine's simulated hardware threads one
// after another on the calling goroutine, and the deterministic strided
// chunk schedule that stands in for intra-node dynamic load balancing
// (the paper's "each worker thread dynamically fetches a portion of tasks
// after finishing its previous tasks").
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"polymer/internal/obs"
)

// Pool runs phases of nodes×coresPerNode simulated threads. Simulated
// threads are not goroutines: the simulated clock is a function of charged
// counts, and those counts must not depend on the host, so Run and RunCtx
// execute every thread body on the calling goroutine in ascending thread
// id at any GOMAXPROCS. A phase is a plain loop: thread bodies need no
// synchronisation among themselves, and a run is a deterministic function
// of its input. The return from Run is the phase barrier. Host
// parallelism belongs above the pool (one engine per request, machine or
// goroutine); only RunConcurrent starts goroutines, for its one caller,
// the Figure 10(a) barrier study (bench.measureBarrier).
type Pool struct {
	nodes, cpn int
	wg         sync.WaitGroup // RunConcurrent's join

	// hook, when set, runs before every simulated thread's body; a
	// non-nil return aborts that thread's share of the phase (the fault
	// injector uses it to take simulated nodes offline, panic or stall
	// individual threads).
	hook atomic.Pointer[func(th int) error]

	// trace, when set, times each Run dispatch on the host clock and
	// emits a span in the obs host lane. Loaded once per Run: the
	// disabled path costs one atomic load.
	trace atomic.Pointer[obs.Tracer]

	errMu  sync.Mutex // RunConcurrent's threads report failures concurrently
	runErr error
}

// PanicError is a simulated thread's panic recovered by Run, carrying the
// thread id and stack.
type PanicError struct {
	Thread int
	Value  any
	Stack  []byte
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("par: worker %d panicked: %v", p.Thread, p.Value)
}

// Unwrap exposes a panicked error value for errors.Is/As.
func (p *PanicError) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// NewPool builds a pool from a bare thread count: one simulated node of
// threads cores. It returns an error for a non-positive count instead of
// panicking, so callers constructing pools from user-supplied
// configuration can fail gracefully.
func NewPool(threads int) (*Pool, error) { return NewNodePool(1, threads) }

// NewNodePool builds a pool for a simulated machine of nodes NUMA nodes
// with coresPerNode threads each; thread th belongs to node
// th/coresPerNode.
func NewNodePool(nodes, coresPerNode int) (*Pool, error) {
	if nodes < 1 || coresPerNode < 1 {
		return nil, fmt.Errorf("par: need at least one thread, got %d nodes of %d", nodes, coresPerNode)
	}
	return &Pool{nodes: nodes, cpn: coresPerNode}, nil
}

// MustNewPool is NewPool panicking on error, for statically valid
// configurations (tests, benchmarks).
func MustNewPool(threads int) *Pool {
	p, err := NewPool(threads)
	if err != nil {
		panic(err)
	}
	return p
}

// Threads returns the simulated thread count.
func (p *Pool) Threads() int { return p.nodes * p.cpn }

// SetHook installs (or, with nil, removes) the per-dispatch fault hook.
// The hook runs before each simulated thread's body: returning an error
// makes that thread skip its share of the phase and Run report the error;
// a panic inside the hook is recovered like any thread panic. A hook that
// sleeps delays the threads after it.
func (p *Pool) SetHook(h func(th int) error) {
	if h == nil {
		p.hook.Store(nil)
		return
	}
	p.hook.Store(&h)
}

// SetTracer installs (or, with nil, removes) the pool's tracer. When set,
// every Run emits a host-lane "pool.run" span covering the phase.
func (p *Pool) SetTracer(tr *obs.Tracer) {
	if tr == nil {
		p.trace.Store(nil)
		return
	}
	p.trace.Store(tr)
}

func (p *Pool) setErr(err error) {
	p.errMu.Lock()
	if p.runErr == nil {
		p.runErr = err
	}
	p.errMu.Unlock()
}

// Run executes fn(th) for every simulated thread, in ascending thread id
// on the calling goroutine, and returns when the last has finished. A
// panic in one thread's body is recovered into a *PanicError (first
// failure wins) so one crashing thread cannot take down the process;
// every thread after it still runs. Thread bodies must not wait on each
// other: a body that waits for a later thread never returns (see
// RunConcurrent). fn does not escape: a phase closure the caller builds
// stays on the caller's stack.
func (p *Pool) Run(fn func(th int)) error {
	hook, tr, dispatched := p.begin()
	for th := 0; th < p.Threads(); th++ {
		p.runThread(th, hook, fn)
	}
	return p.end(tr, dispatched)
}

// RunCtx is Run honouring context cancellation: a context already
// cancelled skips the phase entirely, and a cancellation that arrives
// during the phase is reported after the last thread (thread bodies are
// cooperative; they are never preempted mid-phase).
func (p *Pool) RunCtx(ctx context.Context, fn func(th int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return ctxErr(ctx, p.Run(fn))
}

// RunConcurrent is RunCtx with one goroutine per simulated thread, spawned
// for this phase only and joined before it returns. It is the entry point
// for bodies that wait on each other mid-phase, which must then
// synchronise whatever they share; bench.measureBarrier, a real
// barrier.Wait per thread, is the only one. It has its own loop so that
// only its fn, which the goroutines capture, escapes to the heap.
func (p *Pool) RunConcurrent(ctx context.Context, fn func(th int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	hook, tr, dispatched := p.begin()
	p.wg.Add(p.Threads() - 1)
	for th := 1; th < p.Threads(); th++ {
		go func(th int) {
			defer p.wg.Done()
			p.runThread(th, hook, fn)
		}(th)
	}
	p.runThread(0, hook, fn)
	p.wg.Wait()
	return ctxErr(ctx, p.end(tr, dispatched))
}

// ctxErr is a finished phase's error: its own failure, else the context's
// cancellation.
func ctxErr(ctx context.Context, runErr error) error {
	if err := ctx.Err(); err != nil && runErr == nil {
		return err
	}
	return runErr
}

// begin starts a phase: it clears the phase's error and loads the hook
// and the tracer, with the host time of the dispatch when tracing.
func (p *Pool) begin() (hook *func(th int) error, tr *obs.Tracer, dispatched float64) {
	p.runErr = nil
	hook, tr = p.hook.Load(), p.trace.Load()
	if tr != nil {
		dispatched = obs.NowMicros()
	}
	return hook, tr, dispatched
}

// end finishes a phase whose threads have all returned and reports its
// first failure.
func (p *Pool) end(tr *obs.Tracer, dispatched float64) error {
	// The end of a phase is a scheduling point: without it a run of
	// phases is one unbroken loop, and on a single P the GC's fractional
	// mark worker waits for the 10 ms preemption tick while the mutator
	// allocates past the heap goal.
	runtime.Gosched()
	if tr != nil {
		tr.Span("par", "pool.run", obs.PidHost, dispatched, obs.NowMicros()-dispatched,
			-1, int64(p.Threads()), "")
	}
	return p.runErr
}

func (p *Pool) runThread(th int, hook *func(th int) error, fn func(th int)) {
	defer func() {
		if r := recover(); r != nil {
			p.setErr(&PanicError{Thread: th, Value: r, Stack: debug.Stack()})
		}
	}()
	if hook != nil {
		if err := (*hook)(th); err != nil {
			p.setErr(err)
			return
		}
	}
	fn(th)
}

// Close is a no-op: the pool holds no goroutines between phases.
func (p *Pool) Close() {}

// Strided deterministically assigns chunks of [0, n) to threads in
// round-robin order: thread th processes chunks th, th+threads,
// th+2*threads, ...
//
// Engines use this instead of dynamic chunk grabbing: simulated threads
// run one after another, so the first would drain the queue and
// concentrate the simulated charge on itself. Striding reproduces the
// balanced distribution that dynamic scheduling achieves on real hardware.
type Strided struct {
	n, chunk int64
	threads  int
}

// MakeStrided covers [0, n) in chunks of the given size (minimum 1) across
// threads workers. The schedule is a three-word value: phase hot paths
// build one per phase without allocating, and layouts embed cached
// schedules directly.
func MakeStrided(n, chunk int64, threads int) Strided {
	if chunk < 1 {
		chunk = 1
	}
	if threads < 1 {
		threads = 1
	}
	return Strided{n: n, chunk: chunk, threads: threads}
}

// Do invokes fn for every chunk assigned to thread th, in order.
func (s Strided) Do(th int, fn func(lo, hi int64)) {
	for lo := int64(th) * s.chunk; lo < s.n; lo += s.chunk * int64(s.threads) {
		hi := lo + s.chunk
		if hi > s.n {
			hi = s.n
		}
		fn(lo, hi)
	}
}

// MaxChunk returns the length of the schedule's longest chunk.
func (s Strided) MaxChunk() int64 { return min(s.chunk, s.n) }

// Len returns how many elements of [0, n) thread th is assigned; thread 0,
// which takes the first chunk, is assigned the most.
func (s Strided) Len(th int) int64 {
	var total int64
	s.Do(th, func(lo, hi int64) { total += hi - lo })
	return total
}

// ChunkSize picks the engines' shared phase chunk granularity: about 8
// chunks per thread over [0, n), floored at 64 so tiny ranges do not
// shred into per-element dispatches.
func ChunkSize(n int64, threads int) int64 {
	c := n / int64(threads*8)
	if c < 64 {
		c = 64
	}
	return c
}

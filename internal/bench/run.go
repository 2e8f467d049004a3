// Package bench regenerates every table and figure of the paper's
// evaluation (Section 6): the NUMA microbenchmarks (Figures 3(b) and 4),
// the scalability studies (Figures 5, 7, 8, 9), the overall runtimes
// (Table 3), the access statistics (Table 4), memory consumption
// (Table 5), the barrier study (Figure 10), and the optimization
// ablations (Table 6, Figure 11). Each experiment returns a structured
// result plus a formatter that prints the same rows/series the paper
// reports.
package bench

import (
	"context"
	"errors"
	"fmt"

	"polymer/internal/core"
	"polymer/internal/fault"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/mem"
	"polymer/internal/numa"
	"polymer/internal/obs"
)

// System names one of the four evaluated systems.
type System string

// The four systems of the paper's Table 3.
const (
	Polymer System = "Polymer"
	Ligra   System = "Ligra"
	XStream System = "X-Stream"
	Galois  System = "Galois"
)

// Systems lists all four in the paper's column order.
func Systems() []System { return []System{Polymer, Ligra, XStream, Galois} }

// Algo names one of the evaluation algorithms.
type Algo string

// The six algorithms of Section 6.1, plus the convergence-driven
// PageRankDelta the conformance harness also runs.
const (
	PR      Algo = "PR"
	SpMV    Algo = "SpMV"
	BP      Algo = "BP"
	BFS     Algo = "BFS"
	CC      Algo = "CC"
	SSSP    Algo = "SSSP"
	PRDelta Algo = "PRDelta"
)

// Algos lists the paper's six in its Table 3 row order.
func Algos() []Algo { return []Algo{PR, SpMV, BP, BFS, CC, SSSP} }

// Weighted reports whether the algorithm needs edge weights (the paper
// adds random weights in (0,100] for SpMV and SSSP; our BP also consumes
// them).
func (a Algo) Weighted() bool { return a == SpMV || a == SSSP || a == BP }

// iterated reports whether the paper measures a fixed number of
// iterations ("the first five iterations for PageRank, SpMV and BP").
func (a Algo) iterated() bool { return a == PR || a == SpMV || a == BP }

// Output is one run's typed per-vertex answer: exactly one of F64, I64, V
// and PerSource is set.
type Output struct {
	F64 []float64      // ranks, products, beliefs, distances (+Inf unreachable)
	I64 []int64        // BFS levels (-1 unreachable)
	V   []graph.Vertex // CC labels
	// Iters is PageRankDelta's convergence iteration count.
	Iters int
	// PerSource holds a multi-source sweep's demultiplexed answers,
	// index-aligned with the sources.
	PerSource []Output
}

// Checksum is the result fingerprint used to confirm engines computed the
// same answer: the sum of the finite entries.
func (o Output) Checksum() float64 {
	var s float64
	for _, x := range o.F64 {
		if x < 1e300 {
			s += x
		}
	}
	for _, x := range o.I64 {
		s += float64(x)
	}
	for _, x := range o.V {
		s += float64(x)
	}
	return s
}

// Widen returns the answer as one float64 per vertex (levels and labels
// widened), the form the conformance policies compare.
func (o Output) Widen() []float64 {
	if o.I64 == nil && o.V == nil {
		return o.F64
	}
	out := make([]float64, len(o.I64)+len(o.V))
	for i, x := range o.I64 {
		out[i] = float64(x)
	}
	for i, x := range o.V {
		out[i] = float64(x)
	}
	return out
}

// RunResult captures one system x algorithm x graph execution.
type RunResult struct {
	System     System
	Algo       Algo
	SimSeconds float64
	Stats      numa.Stats
	// PeakBytes is the peak simulated allocation during the run.
	PeakBytes int64
	// AgentBytes is Polymer's replica overhead (zero for baselines).
	AgentBytes int64
	// Out is the typed per-vertex output; Checksum is derived from it.
	Out      Output
	Checksum float64
	// Phases is Polymer's per-phase execution trace (Options.Phases).
	Phases []core.PhaseRecord
}

// Options are the knobs every run path shares.
type Options struct {
	// Src is the traversal source for BFS and SSSP.
	Src graph.Vertex
	// Tracer, when non-nil, is installed on the engine (of every attempt,
	// so the flight recorder sees checkpoints, rollbacks and replays too).
	// A traced run's simulated output is bit-identical to an untraced one.
	Tracer *obs.Tracer
	// Layout, when LayoutSet, overrides the vertex-state placement. Only
	// Polymer exposes a placement knob; for the baselines anything but
	// mem.Interleaved, their native layout, is a configuration error.
	Layout    mem.Placement
	LayoutSet bool
	// Phases records Polymer's per-phase execution trace in
	// RunResult.Phases.
	Phases bool
}

// ErrUnsupported marks a run the dispatch table has no cell for: an
// unknown system or algorithm, a fault session or a multi-source sweep on
// a cell whose driver has none, a placement the engine cannot execute.
// It is a static configuration error, never retried or restarted.
var ErrUnsupported = errors.New("unsupported")

// spec is everything that defines one run. Every entry point builds one
// with newSpec, which resolves the dispatch-table cell before any machine
// exists.
type spec struct {
	sys System
	alg Algo
	g   *graph.Graph
	opt Options

	iters int       // fixed-iteration count (PR, SpMV, BP)
	init  []float64 // PageRank warm start (the degraded path's segment 2)
	multi bool      // one multi-source sweep over srcs instead of opt.Src
	srcs  []graph.Vertex

	// inj non-nil attaches a fault.Session — the one bit that separates
	// the resilient path from the plain one.
	inj     *fault.Injector
	retries int
	ctx     context.Context // nil: phases never observe cancellation

	system system
	cell   cell
}

func newSpec(sys System, alg Algo, g *graph.Graph, opt Options) (*spec, error) {
	s := &spec{sys: sys, alg: alg, g: g, opt: opt, iters: defaultIters, retries: -1}
	var ok bool
	if s.system, ok = systems[sys]; !ok {
		return nil, fmt.Errorf("bench: unknown system %q: %w", sys, ErrUnsupported)
	}
	if s.cell = cells[alg][s.system.family]; s.cell.drive == nil {
		return nil, fmt.Errorf("bench: unknown algorithm %q: %w", alg, ErrUnsupported)
	}
	if opt.LayoutSet && sys != Polymer && opt.Layout != mem.Interleaved {
		return nil, fmt.Errorf("bench: %s only supports interleaved placement (got %s): %w", sys, opt.Layout, ErrUnsupported)
	}
	if alg == CC {
		s.g = g.Symmetrized()
	}
	return s, nil
}

// withSession attaches the injector; it fails on cells whose driver
// cannot roll a superstep back.
func (s *spec) withSession(ctx context.Context, inj *fault.Injector, retries int) error {
	if !s.cell.session {
		return fmt.Errorf("bench: resilient %s on %s: %w", s.alg, s.sys, ErrUnsupported)
	}
	s.ctx, s.inj, s.retries = ctx, inj, retries
	return nil
}

// run is the one place a run is defined: build the engine the table names
// on m, wire tracer, context and (when an injector is attached) a fault
// session, call the cell's driver, and read the accounting back. It
// returns the session's rollback count beside the result. Panics —
// including a setup allocation failure surfacing inside NewData — are
// contained and reported as the error.
func run(s *spec, m *numa.Machine) (RunResult, int, error) {
	r := RunResult{System: s.sys, Algo: s.alg}
	rollbacks := 0
	err := fault.Catch(func() error {
		e, err := s.system.build(s, m)
		if err != nil {
			return err
		}
		defer e.Close()
		e.SetTracer(s.opt.Tracer)
		if s.ctx != nil {
			e.SetContext(s.ctx)
		}
		var sess *fault.Session
		if s.inj != nil {
			sess = fault.NewSession(e, s.inj)
			if s.retries >= 0 {
				sess.SetMaxRetries(s.retries)
			}
		}
		if s.multi {
			r.Out.PerSource, err = s.cell.multi(e, s.srcs)
		} else {
			r.Out, err = s.cell.drive(e, s, sess)
		}
		if err == nil {
			// A driver with no error to return leaves its failure on the
			// engine, and its output half-written.
			err = e.Err()
		}
		if err != nil {
			return err
		}
		if sess != nil {
			rollbacks = sess.Rollbacks()
		}
		r.Checksum = r.Out.Checksum()
		r.SimSeconds = e.SimSeconds()
		r.Stats = e.RunStats()
		r.PeakBytes = m.Alloc().Peak()
		r.AgentBytes = m.Alloc().Label("polymer/agents")
		if ce, ok := e.(*core.Engine); ok {
			r.Phases = ce.Trace()
		}
		return nil
	})
	return r, rollbacks, err
}

// RunWith executes one cell of the evaluation matrix on m — any of the 28
// table cells — under the shared options. The graph must carry weights if
// the algorithm needs them; CC is symmetrized internally.
func RunWith(sys System, alg Algo, g *graph.Graph, m *numa.Machine, opt Options) (RunResult, error) {
	s, err := newSpec(sys, alg, g, opt)
	if err != nil {
		return RunResult{}, err
	}
	r, _, err := run(s, m)
	return r, err
}

// RunFrom is RunWith with only a traversal source, panicking on error:
// for statically valid cells (experiments, benchmarks, examples).
func RunFrom(sys System, alg Algo, g *graph.Graph, m *numa.Machine, src graph.Vertex) RunResult {
	r, err := RunWith(sys, alg, g, m, Options{Src: src})
	if err != nil {
		panic(err)
	}
	return r
}

// LoadDataset fetches a named dataset weighted appropriately for alg.
func LoadDataset(d gen.Dataset, sc gen.Scale, alg Algo) (*graph.Graph, error) {
	return gen.Load(d, sc, alg.Weighted())
}

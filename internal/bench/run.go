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
	"strings"

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

// ParseSystem resolves a system name case-insensitively; X-Stream is
// also spelled xstream.
func ParseSystem(name string) (System, error) {
	name = strings.TrimSpace(name)
	for _, s := range Systems() {
		if strings.EqualFold(name, string(s)) || strings.EqualFold(name, strings.ReplaceAll(string(s), "-", "")) {
			return s, nil
		}
	}
	return "", fmt.Errorf("unknown system %q (want polymer, ligra, xstream or galois)", name)
}

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

// ParseAlgo resolves one of the paper's six algorithm names
// case-insensitively.
func ParseAlgo(name string) (Algo, error) {
	for _, a := range Algos() {
		if strings.EqualFold(strings.TrimSpace(name), string(a)) {
			return a, nil
		}
	}
	return "", fmt.Errorf("unknown algorithm %q (want pr, spmv, bp, bfs, cc or sssp)", name)
}

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

// Recycle hands the answer's arrays, every source's of a sweep included,
// to mem's spare list, where the next driver run of their length takes
// its answer storage (mem.Spare). Only the answer's sole holder may call
// it, and nothing may read the arrays afterwards: a run's caller owns its
// answer, and a caller that hands the answer on (a cache, a prior) hands
// the duty to recycle it along with it.
func (o Output) Recycle() {
	mem.Recycle(o.F64)
	mem.Recycle(o.I64)
	mem.Recycle(o.V)
	for _, p := range o.PerSource {
		p.Recycle()
	}
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
	// Bounds is Polymer's partition, nodes+1 vertex offsets, and BoundsSeq
	// the mutation sequence number of the snapshot it was balanced on (an
	// earlier one when the run's snapshot inherited it; partition.Sticky).
	// Both are zero for the baselines.
	Bounds    []int
	BoundsSeq uint64
	// Lineage is what Polymer's engine patched, built, inherited or
	// balanced afresh (core.Lineage); zero for the baselines.
	Lineage core.Lineage
}

// Options are the knobs every run path shares.
type Options struct {
	// Src is the traversal source for BFS and SSSP.
	Src graph.Vertex
	// Sources, when non-empty, replaces Src with one multi-source BFS or
	// SSSP sweep on a scatter-gather engine: Out.PerSource holds one answer
	// per source, each bit-identical to that source's own run, and the
	// accounting is the sweep's.
	Sources []graph.Vertex
	// Warm, when non-nil, answers Src's BFS or SSSP on Polymer or Ligra by
	// repairing an earlier answer instead of traversing from scratch: the
	// output is bit-identical to a cold run's, and the accounting is the
	// repair's own. A graph with a negative or NaN weight cannot be
	// repaired (algorithms.Repairable). A warm BFS reads the graph's
	// unweighted view, as its levels count edges.
	Warm *Warm
	// Tracer, when non-nil, is installed on the engine (of every attempt,
	// so the flight recorder sees checkpoints, rollbacks and replays too).
	// A traced run's simulated output is bit-identical to an untraced one.
	Tracer *obs.Tracer
	// Layout, when LayoutSet, overrides the vertex-state placement. Only
	// Polymer exposes a placement knob; for the baselines anything but
	// mem.Interleaved, their native layout, is a configuration error.
	Layout    mem.Placement
	LayoutSet bool
}

// ErrUnsupported marks a run the dispatch table has no cell for: an
// unknown system or algorithm, a fault session, a multi-source sweep or a
// warm repair on a cell whose driver has none (or any two of them at
// once), a placement the engine cannot execute. It is a static
// configuration error, never retried or restarted.
var ErrUnsupported = errors.New("unsupported")

// spec is everything that defines one run. Every entry point builds one
// with newSpec, which resolves the dispatch-table cell before any machine
// exists.
type spec struct {
	sys System
	alg Algo
	g   *graph.Graph
	opt Options

	iters int // fixed-iteration count (PR, SpMV, BP)

	// inj non-nil attaches a fault.Session — the one bit that separates
	// the resilient path from the plain one.
	inj     *fault.Injector
	retries int
	ctx     context.Context // nil: phases never observe cancellation

	system system
	cell   cell
}

// newSpec resolves the cell of one run and refuses, before any machine
// exists, what the cell cannot run: a warm repair or a multi-source sweep
// it has no driver for, both at once, or either under injected faults.
func newSpec(sys System, alg Algo, g *graph.Graph, opt Options, inj *fault.Injector) (*spec, error) {
	s := &spec{sys: sys, alg: alg, g: g, opt: opt, iters: DefaultIters, inj: inj}
	var ok bool
	if s.system, ok = systems[sys]; !ok {
		return nil, fmt.Errorf("bench: unknown system %q: %w", sys, ErrUnsupported)
	}
	if s.cell = cells[alg][s.system.family]; s.cell.drive == nil {
		return nil, fmt.Errorf("bench: unknown algorithm %q: %w", alg, ErrUnsupported)
	}
	multi, warm := len(opt.Sources) > 0, opt.Warm != nil
	switch {
	case multi && s.cell.multi == nil:
		return nil, fmt.Errorf("bench: multi-source %s on %s: %w", alg, sys, ErrUnsupported)
	case warm && s.cell.warm == nil:
		return nil, fmt.Errorf("bench: warm %s on %s: %w", alg, sys, ErrUnsupported)
	case multi && warm:
		return nil, fmt.Errorf("bench: warm multi-source %s: %w", alg, ErrUnsupported)
	case (multi || warm) && inj != nil:
		return nil, fmt.Errorf("bench: injected faults on a warm or multi-source %s: %w", alg, ErrUnsupported)
	}
	if opt.LayoutSet && sys != Polymer && opt.Layout != mem.Interleaved {
		return nil, fmt.Errorf("bench: %s only supports interleaved placement (got %s): %w", sys, opt.Layout, ErrUnsupported)
	}
	switch {
	case alg == CC:
		s.g = g.Symmetrized()
	case alg == BFS && warm:
		s.g = g.Unweighted()
	}
	return s, nil
}

// run is the one place a run is defined: build the engine the table names
// on m, wire tracer, context and (when an injector is attached) a fault
// session, call the cell's driver — its multi-source sweep or warm repair
// when the options ask for one — and read the accounting back. It
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
		e.SetContext(s.ctx)
		var sess *fault.Session
		if s.inj != nil {
			sess = fault.NewSession(e, s.inj)
			if s.retries >= 0 {
				sess.SetMaxRetries(s.retries)
			}
		}
		switch {
		case len(s.opt.Sources) > 0:
			r.Out.PerSource, err = s.cell.multi(e, s.opt.Sources)
		case s.opt.Warm != nil:
			r.Out, err = s.cell.warm(e, s)
		default:
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
			r.Bounds, r.BoundsSeq, r.Lineage = ce.Bounds(), ce.BoundsSeq(), ce.Lineage()
		}
		return nil
	})
	return r, rollbacks, err
}

// RunWith executes one cell of the evaluation matrix on m — any of the 28
// table cells — under the shared options. The graph must carry weights if
// the algorithm needs them; CC is symmetrized internally.
func RunWith(sys System, alg Algo, g *graph.Graph, m *numa.Machine, opt Options) (RunResult, error) {
	s, err := newSpec(sys, alg, g, opt, nil)
	if err != nil {
		return RunResult{}, err
	}
	r, _, err := run(s, m)
	return r, err
}

// Warm is what a warm run repairs: an earlier answer of the same cell from
// the same source (Output's I64 for BFS, F64 for SSSP), computed on a
// snapshot that deleting the pairs of Deleted and then appending the edges
// of Appended turns into the run's graph (mutate.Store.Edits).
type Warm struct {
	Prior             Output
	Deleted, Appended []graph.Edge
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

package bench

import (
	"polymer/internal/algorithms"
	"polymer/internal/core"
	"polymer/internal/engines/galois"
	"polymer/internal/engines/ligra"
	"polymer/internal/engines/xstream"
	"polymer/internal/fault"
	"polymer/internal/graph"
	"polymer/internal/numa"
	"polymer/internal/obs"
	"polymer/internal/sg"
)

// This file is the one (system x algorithm) dispatch table of the
// repository: how each system's engine is built for an algorithm, which
// driver runs each cell, whether that cell's replay under a fault session
// is certified, and what typed output it returns. run (run.go) is its only
// interpreter; the conformance harness, the serving layer and the planner
// all reach the engines through it.

// DefaultIters is the fixed iteration count of PR, SpMV and BP: the paper
// measures "the first five iterations". The planner prices that many
// supersteps.
const DefaultIters = 5

const (
	defaultDamping = 0.85
	// PageRankDelta's convergence floor and iteration cap.
	prDeltaEps     = 1e-10
	prDeltaMaxIter = 250
)

// engine is what run needs of any of the four engines; all of it is
// sg.Base's.
type engine interface {
	fault.Engine
	SetTracer(*obs.Tracer)
	SimSeconds() float64
	RunStats() numa.Stats
	Close()
}

// system is one row of the engine table.
type system struct {
	// family selects the column of cells the system's drivers live in.
	family int
	build  func(s *spec, m *numa.Machine) (engine, error)
}

// The driver families: Polymer and Ligra share the scatter-gather
// drivers, X-Stream runs the same float kernels through its own step, and
// Galois has its own algorithms.
const (
	famSG = iota
	famXS
	famGalois
)

var systems = map[System]system{
	Polymer: {famSG, func(s *spec, m *numa.Machine) (engine, error) {
		opt := core.DefaultOptions()
		if s.alg.iterated() {
			opt.Mode = core.Push
		}
		if s.opt.LayoutSet {
			opt.Layout = s.opt.Layout
		}
		return core.New(s.g, m, opt)
	}},
	Ligra: {famSG, func(s *spec, m *numa.Machine) (engine, error) {
		return ligra.New(s.g, m, ligra.DefaultOptions())
	}},
	XStream: {famXS, func(s *spec, m *numa.Machine) (engine, error) {
		h := sg.Hints{DataBytes: 8, Weighted: s.alg.Weighted()}
		if s.alg == BP {
			h.DataBytes = 16 // beliefs are wider than ranks
		}
		return xstream.New(s.g, m, xstream.DefaultOptions(), h)
	}},
	Galois: {famGalois, func(s *spec, m *numa.Machine) (engine, error) {
		return galois.New(s.g, m, galois.DefaultOptions())
	}},
}

// cell is one (driver family, algorithm) entry.
type cell struct {
	drive func(e engine, s *spec, sess *fault.Session) (Output, error)
	// session reports that the cell may run under an injected fault
	// schedule: drive runs every superstep as a fault.Step and the
	// conformance suite holds its replay bit-identical to a clean run.
	// Other drivers that take a session are handed nil.
	session bool
	// multi, when non-nil, answers several sources in one sweep.
	multi func(e engine, srcs []graph.Vertex) ([]Output, error)
	// warm, when non-nil, repairs an earlier answer (Options.Warm).
	warm func(e engine, s *spec) (Output, error)
}

// stepped adapts a driver on engine type E that takes a session.
func stepped[E any](certified bool, f func(e E, s *spec, sess *fault.Session) (Output, error)) cell {
	return cell{session: certified, drive: func(e engine, s *spec, sess *fault.Session) (Output, error) {
		return f(e.(E), s, sess)
	}}
}

// plain adapts a driver that cannot roll a superstep back and reports a
// failure only on its engine, where run looks for it.
func plain[E any](f func(e E, s *spec) Output) cell {
	return cell{drive: func(e engine, s *spec, _ *fault.Session) (Output, error) {
		return f(e.(E), s), nil
	}}
}

func f64(xs []float64, err error) (Output, error) { return Output{F64: xs}, err }
func i64(xs []int64, err error) (Output, error)   { return Output{I64: xs}, err }
func prDelta(xs []float64, iters int) Output      { return Output{F64: xs, Iters: iters} }

// withMulti attaches a scatter-gather multi-source sweep to a cell.
func withMulti[T any](c cell, sweep func(sg.Engine, []graph.Vertex) ([][]T, error), wrap func([]T) Output) cell {
	c.multi = func(e engine, srcs []graph.Vertex) ([]Output, error) {
		per, err := sweep(e.(sg.Engine), srcs)
		if err != nil {
			return nil, err
		}
		outs := make([]Output, len(per))
		for i := range per {
			outs[i] = wrap(per[i])
		}
		return outs, nil
	}
	return c
}

// withWarm attaches a scatter-gather warm run to a cell.
func withWarm(c cell, repair func(e sg.Engine, s *spec, w *Warm) (Output, error)) cell {
	c.warm = func(e engine, s *spec) (Output, error) { return repair(e.(sg.Engine), s, s.opt.Warm) }
	return c
}

// cells is the matrix: per algorithm, one cell per driver family (famSG,
// famXS, famGalois). PageRank is certified everywhere; SpMV, BP, BFS and
// SSSP on the scatter-gather systems.
var cells = map[Algo][3]cell{
	PR: {
		stepped(true, func(e sg.Engine, s *spec, sess *fault.Session) (Output, error) {
			return f64(algorithms.PageRankE(e, s.iters, defaultDamping, sess))
		}),
		stepped(true, func(e *xstream.Engine, s *spec, sess *fault.Session) (Output, error) {
			return f64(algorithms.XSPageRankE(e, s.iters, defaultDamping, sess))
		}),
		stepped(true, func(e *galois.Engine, s *spec, sess *fault.Session) (Output, error) {
			return f64(e.PageRankE(s.iters, defaultDamping, sess))
		}),
	},
	PRDelta: {
		plain(func(e sg.Engine, _ *spec) Output {
			return prDelta(algorithms.PageRankDelta(e, prDeltaEps, prDeltaMaxIter))
		}),
		plain(func(e *xstream.Engine, _ *spec) Output {
			return prDelta(algorithms.XSPageRankDelta(e, prDeltaEps, prDeltaMaxIter))
		}),
		plain(func(e *galois.Engine, _ *spec) Output {
			return prDelta(e.PageRankDelta(prDeltaEps, prDeltaMaxIter))
		}),
	},
	SpMV: {
		stepped(true, func(e sg.Engine, s *spec, sess *fault.Session) (Output, error) {
			return f64(algorithms.SpMV(e, s.iters, ones(s.g.NumVertices()), sess))
		}),
		stepped(false, func(e *xstream.Engine, s *spec, sess *fault.Session) (Output, error) {
			return f64(algorithms.XSSpMV(e, s.iters, ones(s.g.NumVertices()), sess))
		}),
		stepped(false, func(e *galois.Engine, s *spec, sess *fault.Session) (Output, error) {
			return f64(e.SpMV(s.iters, ones(s.g.NumVertices()), sess))
		}),
	},
	BP: {
		stepped(true, func(e sg.Engine, s *spec, sess *fault.Session) (Output, error) {
			return f64(algorithms.BP(e, s.iters, sess))
		}),
		stepped(false, func(e *xstream.Engine, s *spec, sess *fault.Session) (Output, error) {
			return f64(algorithms.XSBP(e, s.iters, sess))
		}),
		stepped(false, func(e *galois.Engine, s *spec, sess *fault.Session) (Output, error) {
			return f64(e.BP(s.iters, sess))
		}),
	},
	BFS: {
		withWarm(withMulti(stepped(true, func(e sg.Engine, s *spec, sess *fault.Session) (Output, error) {
			return i64(algorithms.BFSE(e, s.opt.Src, sess))
		}), algorithms.MultiBFS, func(l []int64) Output { return Output{I64: l} }),
			func(e sg.Engine, s *spec, w *Warm) (Output, error) {
				return i64(algorithms.RepairBFS(e, s.opt.Src, w.Prior.I64, w.Deleted, w.Appended))
			}),
		plain(func(e *xstream.Engine, s *spec) Output { return Output{I64: algorithms.XSBFS(e, s.opt.Src)} }),
		plain(func(e *galois.Engine, s *spec) Output { return Output{I64: e.BFS(s.opt.Src)} }),
	},
	CC: {
		stepped(false, func(e sg.Engine, _ *spec, sess *fault.Session) (Output, error) {
			labels, err := algorithms.CC(e, sess)
			return Output{V: labels}, err
		}),
		plain(func(e *xstream.Engine, _ *spec) Output { return Output{V: algorithms.XSCC(e)} }),
		plain(func(e *galois.Engine, _ *spec) Output { return Output{V: e.CC()} }),
	},
	SSSP: {
		withWarm(withMulti(stepped(true, func(e sg.Engine, s *spec, sess *fault.Session) (Output, error) {
			return f64(algorithms.SSSP(e, s.opt.Src, sess))
		}), algorithms.MultiSSSP, func(d []float64) Output { return Output{F64: d} }),
			func(e sg.Engine, s *spec, w *Warm) (Output, error) {
				return f64(algorithms.RepairSSSP(e, s.opt.Src, w.Prior.F64, w.Deleted, w.Appended))
			}),
		plain(func(e *xstream.Engine, s *spec) Output { return Output{F64: algorithms.XSSSSP(e, s.opt.Src)} }),
		plain(func(e *galois.Engine, s *spec) Output { return Output{F64: e.SSSP(s.opt.Src)} }),
	},
}

// SessionCapable reports whether the cell's driver runs under a
// fault.Session, i.e. whether the resilient path (RunResilientCtx, and
// with it the serving layer and the planner's candidate set) covers it.
func SessionCapable(sys System, alg Algo) bool {
	sy, ok := systems[sys]
	return ok && cells[alg][sy.family].session
}

// driveSG runs alg's scatter-gather driver on an engine the caller built
// with its own options (the ablation studies).
func driveSG(e *core.Engine, alg Algo) {
	s := &spec{alg: alg, g: e.Graph(), iters: DefaultIters}
	if _, err := cells[alg][famSG].drive(e, s, nil); err != nil {
		panic(err)
	}
}

func ones(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	return x
}

package bench

import (
	"fmt"
	"strings"

	"polymer/internal/core"
	"polymer/internal/gen"
	"polymer/internal/numa"
	"polymer/internal/partition"
)

// ScalePoint is one (x, seconds) point of a scalability series.
type ScalePoint struct {
	X       int // cores or sockets
	Seconds float64
}

// ScaleSeries is one system's scalability curve.
type ScaleSeries struct {
	System System
	Points []ScalePoint
}

// Speedup returns the curve normalised to its first point.
func (s ScaleSeries) Speedup() []float64 {
	out := make([]float64, len(s.Points))
	if len(s.Points) == 0 || s.Points[0].Seconds == 0 {
		return out
	}
	base := s.Points[0].Seconds
	for i, p := range s.Points {
		out[i] = base / p.Seconds
	}
	return out
}

// CoreScaling reproduces Figure 5(a): the speedup of the given systems
// with an increasing number of cores within one socket (PR on twitter).
func CoreScaling(t *numa.Topology, sc gen.Scale, systems []System) ([]ScaleSeries, error) {
	g, err := LoadDataset(gen.Twitter, sc, PR)
	if err != nil {
		return nil, err
	}
	var out []ScaleSeries
	for _, sys := range systems {
		s := ScaleSeries{System: sys}
		for cores := 1; cores <= t.CoresPerSocket; cores++ {
			m := numa.NewMachine(t, 1, cores)
			r := RunFrom(sys, PR, g, m, 0)
			s.Points = append(s.Points, ScalePoint{X: cores, Seconds: r.SimSeconds})
		}
		out = append(out, s)
	}
	return out, nil
}

// SocketScaling reproduces Figures 5(b-d), 7, 8 and 9: execution time and
// speedup with an increasing number of sockets at full cores per socket.
func SocketScaling(t *numa.Topology, sc gen.Scale, alg Algo, systems []System) ([]ScaleSeries, error) {
	g, err := LoadDataset(gen.Twitter, sc, alg)
	if err != nil {
		return nil, err
	}
	var out []ScaleSeries
	for _, sys := range systems {
		s := ScaleSeries{System: sys}
		for sockets := 1; sockets <= t.Sockets; sockets++ {
			m := numa.NewMachine(t, sockets, t.CoresPerSocket)
			r := RunFrom(sys, alg, g, m, 0)
			s.Points = append(s.Points, ScalePoint{X: sockets, Seconds: r.SimSeconds})
		}
		out = append(out, s)
	}
	return out, nil
}

// FormatScaling renders a scalability study as the paper's paired
// time/speedup panels.
func FormatScaling(title, xlabel string, series []ScaleSeries) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-9s", xlabel)
	for _, s := range series {
		fmt.Fprintf(&b, "%22s", s.System)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-9s", "")
	for range series {
		fmt.Fprintf(&b, "%14s%8s", "time(s)", "spd")
	}
	b.WriteString("\n")
	if len(series) == 0 || len(series[0].Points) == 0 {
		return b.String()
	}
	for i := range series[0].Points {
		fmt.Fprintf(&b, "%-9d", series[0].Points[i].X)
		for _, s := range series {
			fmt.Fprintf(&b, "%14.4f%7.2fx", s.Points[i].Seconds, s.Speedup()[i])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig11Result carries both panels of Figure 11: the per-partition edge
// imbalance with and without balanced partitioning, and the per-socket
// execution time of PageRank in both configurations.
type Fig11Result struct {
	// NormDiff per partition (panel a).
	VertexBalanced []float64
	EdgeBalanced   []float64
	// Per-socket busy seconds for PR on twitter (panel b).
	SocketTimeVB []float64
	SocketTimeEB []float64
	// Whole-run times in both configurations.
	TotalVB, TotalEB float64
}

// Figure11 reproduces the partition-balance study on the twitter graph.
func Figure11(t *numa.Topology, sc gen.Scale) (*Fig11Result, error) {
	g, err := LoadDataset(gen.Twitter, sc, PR)
	if err != nil {
		return nil, err
	}
	res := &Fig11Result{}

	vb := partition.VertexBalanced(g.NumVertices(), t.Sockets)
	eb := partition.EdgeBalanced(g, t.Sockets, partition.In)
	res.VertexBalanced = partition.Measure(g, vb, partition.In).NormDiff
	res.EdgeBalanced = partition.Measure(g, eb, partition.In).NormDiff

	for _, balanced := range []bool{false, true} {
		m := numa.NewMachine(t, t.Sockets, t.CoresPerSocket)
		opt := core.DefaultOptions()
		opt.Mode = core.Push
		opt.EdgeBalanced = balanced
		e := core.MustNew(g, m, opt)
		driveSG(e, PR)
		perThread := e.ThreadSeconds()
		perSocket := make([]float64, t.Sockets)
		for th, s := range perThread {
			if sock := m.NodeOfThread(th); s > perSocket[sock] {
				perSocket[sock] = s
			}
		}
		if balanced {
			res.SocketTimeEB = perSocket
			res.TotalEB = e.SimSeconds()
		} else {
			res.SocketTimeVB = perSocket
			res.TotalVB = e.SimSeconds()
		}
		e.Close()
	}
	return res, nil
}

// FormatFigure11 renders both panels.
func FormatFigure11(r *Fig11Result) string {
	var b strings.Builder
	b.WriteString("Figure 11(a): normalized edge-count difference per partition (twitter)\n")
	fmt.Fprintf(&b, "%-9s%16s%16s\n", "Socket", "w/o opt", "w/ opt")
	for i := range r.VertexBalanced {
		fmt.Fprintf(&b, "%-9d%15.1f%%%15.2f%%\n", i, r.VertexBalanced[i]*100, r.EdgeBalanced[i]*100)
	}
	b.WriteString("\nFigure 11(b): per-socket busy time for PageRank (seconds)\n")
	fmt.Fprintf(&b, "%-9s%16s%16s\n", "Socket", "w/o opt", "w/ opt")
	for i := range r.SocketTimeVB {
		fmt.Fprintf(&b, "%-9d%16.4f%16.4f\n", i, r.SocketTimeVB[i], r.SocketTimeEB[i])
	}
	fmt.Fprintf(&b, "whole run: w/o %.4fs   w/ %.4fs\n", r.TotalVB, r.TotalEB)
	return b.String()
}

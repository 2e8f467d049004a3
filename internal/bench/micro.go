package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"polymer/internal/barrier"
	"polymer/internal/numa"
	"polymer/internal/par"
)

// LatencyRow is one row of the paper's Figure 3(b): access latency in
// cycles by hop distance, measured with a simulated pointer chase.
type LatencyRow struct {
	Inst   string // "Load" or "Store"
	Cycles []float64
}

// LatencyTable reproduces Figure 3(b) for a topology by running a
// latency-bound microbenchmark on the simulated machine (one dependent
// access at a time, the ccbench methodology).
func LatencyTable(t *numa.Topology) []LatencyRow {
	m := numa.NewMachine(t, t.Sockets, 1)
	levels := t.MaxLevel() + 1
	rows := []LatencyRow{{Inst: "Load"}, {Inst: "Store"}}
	for lvl := 0; lvl < levels; lvl++ {
		// Find a node at this level from node 0.
		target := -1
		for n := 0; n < m.Nodes; n++ {
			if m.Level(0, n) == lvl {
				target = n
				break
			}
		}
		if target < 0 {
			rows[0].Cycles = append(rows[0].Cycles, 0)
			rows[1].Cycles = append(rows[1].Cycles, 0)
			continue
		}
		const ops = 1 << 20
		for i, op := range []numa.Op{numa.Load, numa.Store} {
			ep := m.NewEpoch()
			ep.LatencyBound(0, op, target, ops)
			cycles := ep.Time() * t.ClockGHz * 1e9 / ops
			rows[i].Cycles = append(rows[i].Cycles, cycles)
		}
	}
	return rows
}

// FormatLatencyTable renders the Figure 3(b) rows.
func FormatLatencyTable(t *numa.Topology, rows []LatencyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3(b): access latency (cycles) by distance — %s\n", t.Name)
	fmt.Fprintf(&b, "%-8s", "Inst.")
	for l := 0; l <= t.MaxLevel(); l++ {
		fmt.Fprintf(&b, "%12s", levelName(t, l))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s", r.Inst)
		for _, c := range r.Cycles {
			fmt.Fprintf(&b, "%12.0f", c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// BandwidthRow is one row of the paper's Figure 4: MB/s by distance plus
// the interleaved case.
type BandwidthRow struct {
	Access      string // "Sequential" or "Random"
	MBps        []float64
	Interleaved float64
}

// BandwidthTable reproduces Figure 4 by streaming a fixed volume through
// the simulated machine at each distance.
func BandwidthTable(t *numa.Topology) []BandwidthRow {
	m := numa.NewMachine(t, t.Sockets, 1)
	const bytes = 64 << 20
	rows := []BandwidthRow{{Access: "Sequential"}, {Access: "Random"}}
	for lvl := 0; lvl <= t.MaxLevel(); lvl++ {
		target := -1
		for n := 0; n < m.Nodes; n++ {
			if m.Level(0, n) == lvl {
				target = n
				break
			}
		}
		for i, pat := range []numa.Pattern{numa.Seq, numa.Rand} {
			if target < 0 {
				rows[i].MBps = append(rows[i].MBps, 0)
				continue
			}
			ep := m.NewEpoch()
			// Uncacheable working set: the paper's numademo streams far
			// beyond the LLC.
			ep.Access(0, pat, numa.Load, target, bytes/8, 8, 1<<40)
			rows[i].MBps = append(rows[i].MBps, bytes/ep.Time()/1e6)
		}
	}
	for i, pat := range []numa.Pattern{numa.Seq, numa.Rand} {
		ep := m.NewEpoch()
		ep.AccessInterleaved(0, pat, numa.Load, bytes/8, 8, 1<<40)
		rows[i].Interleaved = bytes / ep.Time() / 1e6
	}
	return rows
}

// FormatBandwidthTable renders the Figure 4 rows.
func FormatBandwidthTable(t *numa.Topology, rows []BandwidthRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: memory bandwidth (MB/s) by distance — %s\n", t.Name)
	fmt.Fprintf(&b, "%-12s", "Access")
	for l := 0; l <= t.MaxLevel(); l++ {
		fmt.Fprintf(&b, "%12s", levelName(t, l))
	}
	fmt.Fprintf(&b, "%14s\n", "Interleaved")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s", r.Access)
		for _, v := range r.MBps {
			fmt.Fprintf(&b, "%12.0f", v)
		}
		fmt.Fprintf(&b, "%14.0f\n", r.Interleaved)
	}
	return b.String()
}

func levelName(t *numa.Topology, lvl int) string {
	if t.MaxLevel() == 3 {
		// AMD: 0-hop, two 1-hop flavours, 2-hop.
		return [...]string{"0-hop", "1-hop(in)", "1-hop(out)", "2-hop"}[lvl]
	}
	return fmt.Sprintf("%d-hop", lvl)
}

// BarrierPoint is one point of Figure 10(a): the synchronization cost of
// the three barriers at a socket count. Model is the calibrated cost the
// engines charge; Measured is the wall-clock time of the real Go
// implementation on this host (shape check only).
type BarrierPoint struct {
	Sockets  int
	Model    map[barrier.Kind]float64
	Measured map[barrier.Kind]float64
}

// BarrierStudy reproduces Figure 10(a) for 1..maxSockets sockets with
// coresPerSocket threads each.
func BarrierStudy(maxSockets, coresPerSocket, rounds int) []BarrierPoint {
	var out []BarrierPoint
	for s := 1; s <= maxSockets; s++ {
		p := BarrierPoint{
			Sockets:  s,
			Model:    make(map[barrier.Kind]float64),
			Measured: make(map[barrier.Kind]float64),
		}
		for _, k := range []barrier.Kind{barrier.P, barrier.H, barrier.N} {
			p.Model[k] = barrier.SyncCost(k, s)
			p.Measured[k] = measureBarrier(k, s, coresPerSocket, rounds)
		}
		out = append(out, p)
	}
	return out
}

func measureBarrier(k barrier.Kind, sockets, cpn, rounds int) float64 {
	b := barrier.New(k, sockets, cpn)
	pool := par.MustNewPool(sockets * cpn)
	start := time.Now()
	// A real barrier inside the phase: one goroutine per thread.
	err := pool.RunConcurrent(context.Background(), func(th int) {
		for r := 0; r < rounds; r++ {
			b.Wait(th)
		}
	})
	if err != nil {
		panic(err) // only a barrier bug can get here
	}
	return time.Since(start).Seconds() / float64(rounds)
}

// FormatBarrierStudy renders Figure 10(a).
func FormatBarrierStudy(points []BarrierPoint) string {
	var b strings.Builder
	b.WriteString("Figure 10(a): barrier synchronization cost (model usec / measured usec)\n")
	fmt.Fprintf(&b, "%-9s%24s%24s%24s\n", "Sockets", "P-Barrier", "H-Barrier", "N-Barrier")
	for _, p := range points {
		fmt.Fprintf(&b, "%-9d", p.Sockets)
		for _, k := range []barrier.Kind{barrier.P, barrier.H, barrier.N} {
			fmt.Fprintf(&b, "%14.1f /%7.1f", p.Model[k]*1e6, p.Measured[k]*1e6)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

package bench

import (
	"polymer/internal/numa"
	"polymer/internal/obs"
)

// TraceMicro replays the Figure 4 bandwidth sweep through the obs event
// schema: one superstep event per access-class cell (pattern × hop level,
// plus the interleaved cases), each carrying its traffic matrix, so
// experiments -exp fig4 -trace exercises exactly the same sinks —
// breakdown tables and Chrome export — as the engines do. Events ride the simulated
// clock, so the emitted trace is deterministic.
func TraceMicro(t *numa.Topology, tr *obs.Tracer) {
	m := numa.NewMachine(t, t.Sockets, 1)
	const bytes = 64 << 20
	var clock float64
	step := 0
	emit := func(ep *numa.Epoch) {
		dur := ep.Time()
		tm := &numa.TrafficMatrix{}
		ep.Traffic(tm)
		tr.Superstep("micro", step, clock, dur, tm)
		clock += dur
		step++
	}
	for _, pat := range []numa.Pattern{numa.Seq, numa.Rand} {
		for lvl := 0; lvl <= t.MaxLevel(); lvl++ {
			target := -1
			for n := 0; n < m.Nodes; n++ {
				if m.Level(0, n) == lvl {
					target = n
					break
				}
			}
			if target < 0 {
				continue
			}
			ep := m.NewEpoch()
			ep.Access(0, pat, numa.Load, target, bytes/8, 8, 1<<40)
			emit(ep)
		}
		ep := m.NewEpoch()
		ep.AccessInterleaved(0, pat, numa.Load, bytes/8, 8, 1<<40)
		emit(ep)
	}
}

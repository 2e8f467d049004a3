package obs

import "polymer/internal/numa"

// SimSource is the capability an engine exposes for superstep tracing.
// Every engine has it (sg.Base); BeginStep discovers it by type assertion,
// so neither sg.Engine nor fault.Engine grows a mandatory method. Every
// engine's superstep loops live in the algorithms layer except Galois's,
// but only Polymer's and Ligra's are spanned there: X-Stream's Iterate and
// Galois's rounds emit their own superstep events, and a driver that also
// spanned them would number every superstep twice.
type SimSource interface {
	// Tracer returns the engine's tracer (nil when disabled).
	Tracer() *Tracer
	// TraceCat is the engine's event category ("polymer", "ligra", ...).
	TraceCat() string
	// SimSeconds is the engine's simulated clock.
	SimSeconds() float64
	// TrafficSnapshot copies the cumulative run traffic into dst.
	TrafficSnapshot(dst *numa.TrafficMatrix)
}

// StepSpan measures one superstep between BeginStep and End. The zero
// value (returned when tracing is off or the source lacks the capability)
// makes End a no-op, so drivers call the pair unconditionally.
type StepSpan struct {
	src      SimSource
	step     int
	simStart float64
	start    numa.TrafficMatrix
}

// BeginStep opens a superstep span on src if it is a SimSource with an
// enabled tracer. It returns by value and allocates nothing when tracing
// is disabled.
func BeginStep(src any, step int) StepSpan {
	s, ok := src.(SimSource)
	if !ok || s.Tracer() == nil {
		return StepSpan{}
	}
	sp := StepSpan{src: s, step: step, simStart: s.SimSeconds()}
	s.TrafficSnapshot(&sp.start)
	return sp
}

// End emits the superstep event with the simulated duration and traffic
// delta since BeginStep. Call it only after the step committed: a rolled
// back and replayed step should End once, with the clean replay's charge.
func (sp *StepSpan) End() {
	if sp.src == nil {
		return
	}
	end := sp.src.SimSeconds()
	delta := &numa.TrafficMatrix{}
	sp.src.TrafficSnapshot(delta)
	delta.Sub(&sp.start)
	sp.src.Tracer().Superstep(sp.src.TraceCat(), sp.step, sp.simStart, end-sp.simStart, delta)
}

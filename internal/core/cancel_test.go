package core

import (
	"context"
	"errors"
	"testing"

	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/sg"
	"polymer/internal/state"
)

// cancelKernel cancels the engine's context from inside the phase, then
// keeps applying edges — modelling a deadline that fires mid-superstep.
type cancelKernel struct {
	cancel context.CancelFunc
	next   []float64
}

func (k *cancelKernel) Update(s, d graph.Vertex, w float32) bool {
	k.cancel()
	k.next[d]++
	return true
}
func (k *cancelKernel) Cond(graph.Vertex) bool { return true }

func TestCancelledContextSkipsPhaseEntirely(t *testing.T) {
	n, edges := gen.Powerlaw(600, 6, 2.0, 11)
	g := graph.FromEdges(n, edges, false)
	e := MustNew(g, testMachine(2, 2), DefaultOptions())
	defer e.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e.SetContext(ctx)

	k := newAddKernel(n)
	e.EdgeMap(state.NewAll(e.Bounds()), k, sg.Hints{})
	if !errors.Is(e.Err(), context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", e.Err())
	}
	if got := e.SimSeconds(); got != 0 {
		t.Fatalf("cancelled-before-dispatch EdgeMap charged %v sim seconds", got)
	}
	if len(k.seen) != 0 {
		t.Fatalf("cancelled EdgeMap applied %d edges", len(k.seen))
	}
}

// TestCancelMidSuperstepChargesNothing is the sim-clock-snapshot check
// behind the serving layer's deadline guarantee: a context cancelled while
// a phase is in flight stops all simulated charging at the superstep
// boundary — the clock reads exactly what it read before the phase.
func TestCancelMidSuperstepChargesNothing(t *testing.T) {
	n, edges := gen.Powerlaw(600, 6, 2.0, 11)
	g := graph.FromEdges(n, edges, false)
	e := MustNew(g, testMachine(2, 2), DefaultOptions())
	defer e.Close()

	// Warm superstep: a nonzero baseline proves the later comparison is
	// not trivially 0 == 0.
	warm := newAddKernel(n)
	e.EdgeMap(state.NewAll(e.Bounds()), warm, sg.Hints{})
	if e.Err() != nil {
		t.Fatalf("warm EdgeMap failed: %v", e.Err())
	}
	before := e.SimSeconds()
	if before == 0 {
		t.Fatal("warm EdgeMap charged nothing")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.SetContext(ctx)
	ck := &cancelKernel{cancel: cancel, next: make([]float64, n)}
	e.EdgeMap(state.NewAll(e.Bounds()), ck, sg.Hints{})
	if !errors.Is(e.Err(), context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", e.Err())
	}
	if got := e.SimSeconds(); got != before {
		t.Fatalf("post-cancel clock %v != pre-phase snapshot %v: the cancelled superstep charged the sim", got, before)
	}

	// After the resilience layer clears the failure and lifts the context,
	// the engine keeps working and charging normally.
	e.ClearErr()
	e.SetContext(context.Background())
	again := newAddKernel(n)
	e.EdgeMap(state.NewAll(e.Bounds()), again, sg.Hints{})
	if e.Err() != nil {
		t.Fatalf("EdgeMap after recovery failed: %v", e.Err())
	}
	if got := e.SimSeconds(); got <= before {
		t.Fatalf("recovered EdgeMap charged nothing: clock %v <= %v", got, before)
	}
}

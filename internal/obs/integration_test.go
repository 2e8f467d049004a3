// Integration tests at the obs boundary: tracing must never change
// simulated results, and every engine must actually emit supersteps.
// These live in package obs_test so they can drive the full bench stack.

package obs_test

import (
	"context"
	"math"
	"testing"

	"polymer/internal/bench"
	"polymer/internal/fault"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/numa"
	"polymer/internal/obs"
)

func loadTiny(t *testing.T, alg bench.Algo) *graph.Graph {
	t.Helper()
	g, err := bench.LoadDataset("powerlaw", gen.Tiny, alg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newMachine() *numa.Machine {
	return numa.NewMachine(numa.IntelXeon80(), 4, 2)
}

// TestTracingIsBitIdentical runs every engine with tracing off and on and
// requires bit-identical simulated output — the core invariant that lets
// production runs leave tracing enabled.
func TestTracingIsBitIdentical(t *testing.T) {
	cases := []struct {
		sys bench.System
		alg bench.Algo
	}{
		{bench.Polymer, bench.PR},
		{bench.Polymer, bench.BFS},
		{bench.Polymer, bench.SSSP},
		{bench.Ligra, bench.PR},
		{bench.Ligra, bench.CC},
		{bench.XStream, bench.PR},
		{bench.XStream, bench.SpMV},
		{bench.XStream, bench.BP},
		{bench.XStream, bench.BFS},
		{bench.Galois, bench.PR},
		{bench.Galois, bench.BFS},
	}
	for _, tc := range cases {
		t.Run(string(tc.sys)+"/"+string(tc.alg), func(t *testing.T) {
			g := loadTiny(t, tc.alg)
			plain := bench.RunFrom(tc.sys, tc.alg, g, newMachine(), 0)

			chrome := obs.NewChrome()
			bd := obs.NewBreakdown()
			tr := obs.New(obs.Multi{chrome, bd})
			traced, err := bench.RunWith(tc.sys, tc.alg, g, newMachine(), bench.Options{Tracer: tr})
			if err != nil {
				t.Fatal(err)
			}

			if math.Float64bits(plain.SimSeconds) != math.Float64bits(traced.SimSeconds) {
				t.Errorf("SimSeconds diverged: %v (plain) vs %v (traced)", plain.SimSeconds, traced.SimSeconds)
			}
			if math.Float64bits(plain.Checksum) != math.Float64bits(traced.Checksum) {
				t.Errorf("Checksum diverged: %v (plain) vs %v (traced)", plain.Checksum, traced.Checksum)
			}
			if plain.Stats != traced.Stats {
				t.Errorf("Stats diverged: %+v vs %+v", plain.Stats, traced.Stats)
			}
			if chrome.Len() == 0 {
				t.Error("traced run emitted no events")
			}
			rows := bd.Rows()
			if len(rows) == 0 {
				t.Fatal("traced run emitted no supersteps")
			}
			for i, r := range rows {
				if r.Traffic == nil || r.Traffic.Total() < 0 {
					t.Fatalf("superstep %d has bad traffic: %+v", i, r)
				}
				if r.Step != i {
					t.Errorf("superstep %d numbered %d", i, r.Step)
				}
				if r.SimSecs < 0 {
					t.Errorf("superstep %d has negative duration %g", i, r.SimSecs)
				}
			}
		})
	}
}

// TestTracedRecoveryIsBitIdentical layers tracing over the fault session:
// a traced run that rolls back and replays an injected fault must still
// commit the fault-free result, and the trace must show the recovery.
func TestTracedRecoveryIsBitIdentical(t *testing.T) {
	g := loadTiny(t, bench.PR)
	plain := bench.RunFrom(bench.Polymer, bench.PR, g, newMachine(), 0)

	evs, err := fault.ParseSpec("panic@2:t3")
	if err != nil {
		t.Fatal(err)
	}
	chrome := obs.NewChrome()
	events := &eventLog{}
	opt := bench.ResilientOptions{MaxRestarts: 1, SessionRetries: -1, Options: bench.Options{Tracer: obs.New(obs.Multi{chrome, events})}}
	r, rep, err := bench.RunResilientCtx(context.Background(), bench.Polymer, bench.PR, g,
		newMachine, fault.NewInjector(evs), opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rollbacks == 0 {
		t.Fatal("fault was not injected")
	}
	if math.Float64bits(plain.SimSeconds) != math.Float64bits(r.SimSeconds) {
		t.Errorf("recovered SimSeconds %v != fault-free %v", r.SimSeconds, plain.SimSeconds)
	}
	if math.Float64bits(plain.Checksum) != math.Float64bits(r.Checksum) {
		t.Errorf("recovered Checksum %v != fault-free %v", r.Checksum, plain.Checksum)
	}
	if events.count("rollback") == 0 {
		t.Error("trace shows no rollback instant")
	}
	if events.count("replay") == 0 {
		t.Error("trace shows no replay instant")
	}
	if events.count("checkpoint") == 0 {
		t.Error("trace shows no checkpoint instants")
	}
	if events.count("superstep") != 5 {
		t.Errorf("trace has %d supersteps, want 5 (one per committed iteration)", events.count("superstep"))
	}
}

// eventLog counts events by name.
type eventLog struct {
	names []string
}

func (l *eventLog) Emit(ev obs.Event) { l.names = append(l.names, ev.Name) }

func (l *eventLog) count(name string) int {
	n := 0
	for _, x := range l.names {
		if x == name {
			n++
		}
	}
	return n
}

package serve

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"polymer/internal/bench"
)

// autoBody builds a /run body with no system field: the planner chooses.
func autoBody(extra string) string {
	b := `{"algo":"pr","graph":"powerlaw","scale":"tiny","sockets":2,"cores":2`
	if extra != "" {
		b += "," + extra
	}
	return b + "}"
}

// An auto request must carry planner provenance, and rerunning its pick
// as an explicit request must produce a bit-identical result.
func TestPlannedRunBitIdenticalToExplicit(t *testing.T) {
	// Reuse machinery off: both requests must actually execute.
	srv := NewServer(Config{Workers: 2, QueueDepth: 8,
		ResultCacheBytes: -1, DisableSharing: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	st, auto, _ := postRun(t, ts.URL, autoBody(""))
	if st != 200 {
		t.Fatalf("auto run status %d (%s)", st, auto.Error)
	}
	if auto.Plan == nil {
		t.Fatal("auto run carries no plan provenance")
	}
	if !auto.Plan.AutoEngine || !auto.Plan.AutoPlacement {
		t.Fatalf("auto knobs not recorded: %+v", auto.Plan)
	}
	if auto.Plan.Engine == "" || auto.Plan.Nodes < 1 || auto.Plan.Predicted <= 0 {
		t.Fatalf("incomplete plan provenance: %+v", auto.Plan)
	}
	if auto.System != auto.Plan.Engine {
		t.Fatalf("response engine %q disagrees with plan %q", auto.System, auto.Plan.Engine)
	}

	explicit := fmt.Sprintf(
		`{"algo":"pr","system":%q,"placement":%q,"graph":"powerlaw","scale":"tiny","sockets":%d,"cores":2}`,
		auto.Plan.Engine, auto.Plan.Placement, auto.Plan.Nodes)
	st, exp, _ := postRun(t, ts.URL, explicit)
	if st != 200 {
		t.Fatalf("explicit rerun status %d (%s)", st, exp.Error)
	}
	if exp.Plan != nil {
		t.Fatalf("explicit run grew plan provenance: %+v", exp.Plan)
	}
	if exp.Checksum != auto.Checksum || exp.SimSeconds != auto.SimSeconds {
		t.Fatalf("planned run not bit-identical to explicit: (%v,%v) vs (%v,%v)",
			auto.Checksum, auto.SimSeconds, exp.Checksum, exp.SimSeconds)
	}
}

// An engine whose circuit is open must never be chosen by engine=auto,
// whatever the cost model prefers — the open-breaker veto regression.
func TestOpenBreakerNeverPlanned(t *testing.T) {
	srv := NewServer(Config{Workers: 2, QueueDepth: 8, BreakerCooldown: 1 << 40})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	for _, sys := range bench.Systems() {
		br := srv.Breaker(sys)
		for i := 0; i < 3; i++ {
			br.Failure()
		}
		if br.State() != BreakerOpen {
			t.Fatalf("%s breaker not open after threshold failures", sys)
		}
		st, resp, _ := postRun(t, ts.URL, autoBody(""))
		if st != 200 {
			t.Fatalf("auto run with %s open: status %d (%s)", sys, st, resp.Error)
		}
		if resp.Plan == nil {
			t.Fatal("auto run carries no plan provenance")
		}
		if resp.Plan.Engine == string(sys) {
			t.Fatalf("planner chose %s while its circuit was open", sys)
		}
		br.Success() // close again for the next round
	}
}

// Result-cache hits re-stamp plan provenance per request: a planned
// request sees its decision, an explicit request spelling out the same
// run sees none — even though they share one cached entry.
func TestCacheHitRestampsPlan(t *testing.T) {
	srv := NewServer(Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	st, first, _ := postRun(t, ts.URL, autoBody(""))
	if st != 200 || first.Plan == nil {
		t.Fatalf("auto run: status %d plan %+v (%s)", st, first.Plan, first.Error)
	}
	st, hit, _ := postRun(t, ts.URL, autoBody(""))
	if st != 200 || !hit.Cached {
		t.Fatalf("repeat auto run not cached: status %d cached=%t", st, hit.Cached)
	}
	if hit.Plan == nil || hit.Plan.Engine != first.Plan.Engine {
		t.Fatalf("cache hit lost plan provenance: %+v", hit.Plan)
	}
	explicit := fmt.Sprintf(
		`{"algo":"pr","system":%q,"placement":%q,"graph":"powerlaw","scale":"tiny","sockets":%d,"cores":2}`,
		first.Plan.Engine, first.Plan.Placement, first.Plan.Nodes)
	st, exp, _ := postRun(t, ts.URL, explicit)
	if st != 200 {
		t.Fatalf("explicit twin status %d (%s)", st, exp.Error)
	}
	if !exp.Cached {
		t.Fatal("explicit twin missed the cache entry its planned twin filled")
	}
	if exp.Plan != nil {
		t.Fatalf("explicit cache hit stamped with a plan: %+v", exp.Plan)
	}
	if exp.Checksum != first.Checksum {
		t.Fatalf("cached payload diverged: %v vs %v", exp.Checksum, first.Checksum)
	}
}

// The acceptance contract: once the profile and decision caches are
// warm, resolving engine=auto allocates nothing on the serve hot path.
func TestPlanForZeroAllocOnProfileHit(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 4, noWorkers: true})
	v, err := DecodeRequest(strings.NewReader(autoBody("")))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.planFor(v); err != nil { // warm the profile + decision caches
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := srv.planFor(v); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("planFor on warm caches allocates %.1f times per call", avg)
	}
}

// When the scheduler must co-locate tenants, the response says so and
// charges honestly; the shared run must not poison the result cache.
func TestSharedLeaseChargedAndUncached(t *testing.T) {
	for _, tc := range []struct{ name, body string }{
		{"pr", strings.Replace(autoBody(""), `"sockets":2`, `"sockets":8`, 1)},
		// A planned point query rides a traversal run: it must report and
		// charge the co-tenancy exactly as a planned PR does.
		{"bfs", `{"algo":"bfs","src":3,"graph":"powerlaw","scale":"tiny","sockets":8,"cores":2}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewServer(Config{Workers: 2, QueueDepth: 8})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			defer srv.Shutdown(context.Background())

			v, err := DecodeRequest(strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			// Occupy every socket so the planned run below has to share.
			squatter := srv.plannerFor(v).Scheduler().Acquire(8)

			st, shared, _ := postRun(t, ts.URL, tc.body)
			if st != 200 {
				t.Fatalf("shared run status %d (%s)", st, shared.Error)
			}
			if shared.Plan == nil || shared.Plan.SharedTenants < 2 {
				t.Fatalf("co-located run does not report sharing: %+v", shared.Plan)
			}
			want := shared.SimSeconds * float64(shared.Plan.SharedTenants)
			if shared.Plan.ChargedSimSeconds != want {
				t.Fatalf("charged %v, want sim x tenants = %v", shared.Plan.ChargedSimSeconds, want)
			}
			squatter.Release()

			// The shared run must not have fed the cache: the rerun executes
			// on the now-idle machine and is the one that gets cached.
			st, clean, _ := postRun(t, ts.URL, tc.body)
			if st != 200 {
				t.Fatalf("clean rerun status %d (%s)", st, clean.Error)
			}
			if clean.Cached {
				t.Fatal("rerun was served from a cache entry the shared run should not have written")
			}
			if clean.Plan == nil || clean.Plan.SharedTenants != 0 {
				t.Fatalf("isolated rerun reports sharing: %+v", clean.Plan)
			}
			if clean.Checksum != shared.Checksum {
				t.Fatalf("sharing changed the payload: %v vs %v", shared.Checksum, clean.Checksum)
			}
		})
	}
}

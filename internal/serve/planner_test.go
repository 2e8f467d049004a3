package serve

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
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

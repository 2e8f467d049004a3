package serve

import (
	"context"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"polymer/internal/numa"
)

func TestDecodeRequestTiered(t *testing.T) {
	v, err := DecodeRequest(strings.NewReader(
		`{"algo":"pr","system":"polymer","graph":"powerlaw","scale":"tiny","dram_bytes":20000,"tier":"hot"}`))
	if err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	want := numa.TierConfig{DRAMPerNode: 20000, Policy: numa.TierHot, PromoteEvery: 1}
	if v.tier != want {
		t.Fatalf("tier = %+v, want %+v (hot defaults promote_every to 1)", v.tier, want)
	}
	plain, err := DecodeRequest(strings.NewReader(
		`{"algo":"pr","system":"polymer","graph":"powerlaw","scale":"tiny"}`))
	if err != nil {
		t.Fatal(err)
	}
	if ownID(v) == ownID(plain) || v.groupID() == plain.groupID() {
		t.Fatal("tiered and untiered requests share an identity")
	}
	if ownID(v).tier != want {
		t.Fatalf("tiered identity %+v lacks the tier config", ownID(v))
	}
	if ownID(plain).tier != (numa.TierConfig{}) {
		t.Fatalf("untiered identity %+v carries a tier config", ownID(plain))
	}

	// Interleave has no promotion passes unless asked.
	v, err = DecodeRequest(strings.NewReader(
		`{"algo":"bfs","system":"polymer","graph":"powerlaw","scale":"tiny","dram_bytes":1000,"tier":"interleave"}`))
	if err != nil {
		t.Fatal(err)
	}
	if v.tier.PromoteEvery != 0 {
		t.Fatalf("interleave promote_every = %d, want 0", v.tier.PromoteEvery)
	}
	// A fused sweep runs on the same tiered machines as a solo run, and
	// the group identity carries the tier: tiered traversals batch.
	if !v.batchable() {
		t.Fatal("tiered traversal kept off the multi-source batch path")
	}
}

// TestTieredTraversalsBatch: two tiered BFS reads of one shape from
// different sources join one fused sweep on tiered machines, and each
// gets the payload its solo tiered run computes; an untiered read of the
// same shape opens a run of its own.
func TestTieredTraversalsBatch(t *testing.T) {
	srv := NewServer(Config{noWorkers: true})
	const shape = `"algo":"bfs","system":"polymer","graph":"powerlaw","scale":"tiny"`
	tiered := func(src string) string {
		return `{` + shape + `,"src":` + src + `,"dram_bytes":20000,"tier":"hot"}`
	}
	type res struct {
		name string
		out  outcome
	}
	outs := make(chan res, 3)
	read := func(name, body string) {
		go func() {
			out, err := share(srv, mustResolve(t, body), context.Background())
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
			outs <- res{name, out}
		}()
	}
	read("a", tiered("3"))
	fused := dequeue(t, srv)
	waitFor(t, "tiered run open", func() bool { return openRuns(srv) == 1 })
	read("b", tiered("5"))
	waitFor(t, "second source joined", func() bool { return srv.Counters().Batched.Load() == 1 })
	read("plain", `{`+shape+`,"src":7}`)
	plain := dequeue(t, srv)
	if n, b := openRuns(srv), srv.Counters().Batched.Load(); n != 2 || b != 1 {
		t.Fatalf("untiered read: %d open runs, %d batched; want its own run", n, b)
	}
	srv.execute(fused)
	srv.execute(plain)
	got := map[string]Response{}
	for i := 0; i < 3; i++ {
		r := <-outs
		if r.out.status != 200 {
			t.Fatalf("%s: status %d (%s)", r.name, r.out.status, r.out.resp.Error)
		}
		got[r.name] = r.out.resp
	}
	if got["plain"].BatchSize != 0 || got["plain"].Tier != "" {
		t.Fatalf("untiered read rode a tiered run: %+v", got["plain"])
	}
	for name, src := range map[string]string{"a": "3", "b": "5"} {
		if got[name].BatchSize != 2 || got[name].Tier != "hot" || got[name].SlowRate <= 0 {
			t.Fatalf("%s: batch %d tier %q slow rate %v, want a fused tiered sweep of 2",
				name, got[name].BatchSize, got[name].Tier, got[name].SlowRate)
		}
		v := mustResolve(t, tiered(src))
		r, _, err := srv.submit(v, runKey{}, context.Background())
		if err != nil {
			t.Fatal(err)
		}
		srv.execute(dequeue(t, srv))
		solo := srv.wait(r, 0, v, nil)
		if solo.status != 200 || math.Float64bits(solo.resp.Checksum) != math.Float64bits(got[name].Checksum) {
			t.Fatalf("%s: fused checksum %x, solo tiered run %x (status %d)",
				name, got[name].Checksum, solo.resp.Checksum, solo.status)
		}
	}
}

func TestDecodeRequestTieredRejections(t *testing.T) {
	cases := []struct {
		name, body, wantSub string
	}{
		{"dram-without-tier", `{"algo":"pr","system":"polymer","graph":"powerlaw","dram_bytes":1000}`, "needs a tier policy"},
		{"tier-without-dram", `{"algo":"pr","system":"polymer","graph":"powerlaw","tier":"hot"}`, "need dram_bytes"},
		{"promote-without-dram", `{"algo":"pr","system":"polymer","graph":"powerlaw","promote_every":2}`, "need dram_bytes"},
		{"negative-dram", `{"algo":"pr","system":"polymer","graph":"powerlaw","dram_bytes":-1}`, "negative"},
		{"negative-promote", `{"algo":"pr","system":"polymer","graph":"powerlaw","dram_bytes":1000,"tier":"hot","promote_every":-1}`, "negative"},
		{"unknown-tier", `{"algo":"pr","system":"polymer","graph":"powerlaw","dram_bytes":1000,"tier":"cold"}`, "unknown tier"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeRequest(strings.NewReader(tc.body))
			if err == nil {
				t.Fatal("request accepted")
			}
			if _, ok := err.(*BadRequest); !ok {
				t.Fatalf("error %T is not a *BadRequest", err)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q missing %q", err, tc.wantSub)
			}
		})
	}
}

// TestServeTieredRun: a DRAM-constrained request reports tier provenance
// (policy, budget, slow-tier rate), costs more simulated time than the
// unconstrained run, computes the identical payload, and caches under
// its own key.
func TestServeTieredRun(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	st, plain, _ := postRun(t, ts.URL, body("polymer", ""))
	if st != 200 {
		t.Fatalf("untiered run status %d (%s)", st, plain.Error)
	}
	if plain.Tier != "" || plain.DramBytes != 0 || plain.SlowRate != 0 {
		t.Fatalf("untiered response carries tier provenance: %+v", plain)
	}
	st, tiered, _ := postRun(t, ts.URL, body("polymer", `"dram_bytes":20000,"tier":"interleave"`))
	if st != 200 {
		t.Fatalf("tiered run status %d (%s)", st, tiered.Error)
	}
	if tiered.Tier != "interleave" || tiered.DramBytes != 20000 {
		t.Fatalf("tier provenance (%q,%d), want (interleave,20000)", tiered.Tier, tiered.DramBytes)
	}
	if tiered.SlowRate <= 0 {
		t.Fatal("constrained run reported no slow-tier traffic")
	}
	if tiered.Cached {
		t.Fatal("tiered run was served from the untiered cache entry")
	}
	if tiered.Checksum != plain.Checksum {
		t.Fatalf("tiering changed the payload: %v vs %v", tiered.Checksum, plain.Checksum)
	}
	if tiered.SimSeconds <= plain.SimSeconds {
		t.Fatalf("tiered clock %v did not exceed untiered %v", tiered.SimSeconds, plain.SimSeconds)
	}
	// An identical tiered request replays from the cache, provenance
	// intact.
	st, again, _ := postRun(t, ts.URL, body("polymer", `"dram_bytes":20000,"tier":"interleave"`))
	if st != 200 || !again.Cached {
		t.Fatalf("repeat tiered run status %d cached=%v, want a cache hit", st, again.Cached)
	}
	if again.SlowRate != tiered.SlowRate || again.Tier != tiered.Tier {
		t.Fatalf("cached replay lost tier provenance: %+v vs %+v", again, tiered)
	}
}

// TestServeTieredPlanned: the auto planner serves tiered requests — the
// decision is made under the DRAM-constrained cost model and the run is
// armed with the tier config.
func TestServeTieredPlanned(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	st, resp, _ := postRun(t, ts.URL, body("auto", `"dram_bytes":4000,"tier":"hot"`))
	if st != 200 {
		t.Fatalf("planned tiered run status %d (%s)", st, resp.Error)
	}
	if resp.Plan == nil {
		t.Fatal("auto request returned no plan provenance")
	}
	if resp.Tier != "hot" || resp.SlowRate <= 0 {
		t.Fatalf("planned tiered run provenance (%q, slow %v)", resp.Tier, resp.SlowRate)
	}
}

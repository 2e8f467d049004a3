// Tests for the streaming-mutation surface: commit-driven generation
// bumps end to end over HTTP (stale cached results unreachable after a
// commit), concurrent reads sharing one snapshot's layouts, a commit
// racing an in-flight coalesced read, validation, serve-level crash
// recovery verified against a clean-apply oracle server, readiness gating
// during WAL recovery, and the shutdown-with-hung-request regression for
// the mutation store.

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"polymer/internal/fault"
	"polymer/internal/mutate"
	"polymer/internal/partition"
)

func openStore(t *testing.T, dir string, opt mutate.Options) *mutate.Store {
	t.Helper()
	st, err := mutate.Open(dir, opt)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	return st
}

// postJSON posts a body and decodes the Response.
func postJSON(t *testing.T, ts *httptest.Server, path, body string) (int, Response) {
	t.Helper()
	httpResp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer httpResp.Body.Close()
	var resp Response
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatalf("decode %s: %v", path, err)
	}
	return httpResp.StatusCode, resp
}

func shutdown(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if pins := srv.cache.pinnedRefs(); pins != 0 {
		t.Fatalf("%d graph pins leaked", pins)
	}
}

// TestMutateEndToEnd is the acceptance path: commits drive generation
// bumps, so a cached pre-commit result is unreachable the moment the
// mutation response arrives — no manual /invalidatez involved.
func TestMutateEndToEnd(t *testing.T) {
	store := openStore(t, t.TempDir(), mutate.Options{})
	defer store.Close()
	srv := NewServer(Config{Workers: 2, QueueDepth: 8, Mutations: store})
	defer shutdown(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const query = `{"algo":"sssp","system":"polymer","graph":"roadUS","src":0}`
	st1, r1 := postJSON(t, ts, "/run", query)
	if st1 != 200 || r1.Cached {
		t.Fatalf("cold run: status %d cached=%t (%s)", st1, r1.Cached, r1.Error)
	}
	st2, r2 := postJSON(t, ts, "/run", query)
	if st2 != 200 || !r2.Cached || r2.Checksum != r1.Checksum {
		t.Fatalf("warm run: status %d cached=%t checksum %v vs %v", st2, r2.Cached, r2.Checksum, r1.Checksum)
	}

	// Commit: a shortcut edge to the far corner of the tiny road grid.
	const mutation = `{"graph":"roadUS","scale":"tiny","ops":[{"op":"insert","src":0,"dst":575,"wt":0.01}]}`
	ms, mr := postJSON(t, ts, "/mutatez", mutation)
	if ms != 200 {
		t.Fatalf("mutate: status %d (%s)", ms, mr.Error)
	}
	if mr.Seq != 1 || mr.Generation != 1 || mr.Algo != "mutate" {
		t.Fatalf("mutate response %+v, want seq=1 generation=1", mr)
	}

	// The commit retired the cached result: the next query recomputes
	// against the new snapshot and must see the shortcut.
	st3, r3 := postJSON(t, ts, "/run", query)
	if st3 != 200 || r3.Cached {
		t.Fatalf("post-commit run: status %d cached=%t (stale result served?)", st3, r3.Cached)
	}
	if r3.Checksum == r1.Checksum {
		t.Fatalf("post-commit checksum unchanged (%v): snapshot not republished", r3.Checksum)
	}
	st4, r4 := postJSON(t, ts, "/run", query)
	if st4 != 200 || !r4.Cached || r4.Checksum != r3.Checksum {
		t.Fatalf("post-commit warm run: status %d cached=%t checksum %v vs %v",
			st4, r4.Cached, r4.Checksum, r3.Checksum)
	}

	// A second commit reverting the shortcut restores the original
	// topology — and the original checksum, bit for bit.
	const revert = `{"graph":"roadUS","scale":"tiny","ops":[{"op":"delete","src":0,"dst":575}]}`
	ms2, mr2 := postJSON(t, ts, "/mutatez", revert)
	if ms2 != 200 || mr2.Seq != 2 || mr2.Generation != 2 {
		t.Fatalf("revert: status %d %+v", ms2, mr2)
	}
	st5, r5 := postJSON(t, ts, "/run", query)
	if st5 != 200 || r5.Cached || r5.Checksum != r1.Checksum {
		t.Fatalf("reverted run: status %d cached=%t checksum %v, want %v",
			st5, r5.Cached, r5.Checksum, r1.Checksum)
	}

	if got := srv.Counters().Mutations.Load(); got != 2 {
		t.Fatalf("Mutations = %d, want 2", got)
	}
	// Mutation requests resolve inside the standard counter identity.
	snap := srv.Counters().Snapshot()
	entered := snap.Admitted + snap.Coalesced + snap.Batched + snap.ResultHits
	resolvedN := snap.Completed + snap.Failed + snap.Expired + snap.Cancelled
	if entered != resolvedN {
		t.Fatalf("entered %d != resolved %d (%+v)", entered, resolvedN, snap)
	}

	// /metricsz exposes the store.
	httpResp, err := ts.Client().Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	var mb metricsBody
	if err := json.NewDecoder(httpResp.Body).Decode(&mb); err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if mb.Mutations == nil || mb.Mutations.Committed != 2 {
		t.Fatalf("metrics mutations = %+v, want committed=2", mb.Mutations)
	}
	// A read after every commit: the first snapshot is folded over the
	// base, each later one patched from its predecessor.
	if mb.Mutations.Folded != 1 || mb.Mutations.Patched != mb.Mutations.Committed-1 {
		t.Fatalf("snapshots folded %d patched %d, want 1 and %d",
			mb.Mutations.Folded, mb.Mutations.Patched, mb.Mutations.Committed-1)
	}
}

// commit sends one batch down the full commit path — admission, WAL
// append, publish, generation bump — on a server without workers.
func commit(t *testing.T, srv *Server, graph, scale string, ops []MutationOp) {
	t.Helper()
	m, err := resolveMutation(MutationRequest{Graph: graph, Scale: scale, Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	mt, _, err := srv.submitMutation(m, context.Background())
	if err != nil {
		t.Fatal(err)
	}
	<-srv.queue
	srv.executeMutate(mt)
	if out := srv.wait(mt.run, 0, nil, nil); out.status != 200 {
		t.Fatalf("commit: status %d (%s)", out.status, out.resp.Error)
	}
}

// TestCommitsRetireProfilesAndDecisions: commits whose ops stay within
// partition.Epsilon of the edge count keep the lineage's one profile and
// with it the planner's cached decision, so the planned read after each
// commit allocates nothing (counted as testing.AllocsPerRun counts, over
// the first call after the commit). A batch that crosses Epsilon
// re-profiles, and the superseded profile's decisions are retired: one
// profile stays, and the decision cache holds what it held after the first.
func TestCommitsRetireProfilesAndDecisions(t *testing.T) {
	store := openStore(t, t.TempDir(), mutate.Options{})
	defer store.Close()
	srv := NewServer(Config{noWorkers: true, Mutations: store, DisableLearning: true})
	v, err := DecodeRequest(strings.NewReader(`{"algo":"bfs","graph":"roadUS","scale":"tiny","src":0}`))
	if err != nil {
		t.Fatal(err)
	}
	state := func() (profiles, cached int, computed, inherited int64) {
		for _, st := range srv.plannerStats() {
			cached += st.Cached
		}
		srv.profMu.RLock()
		defer srv.profMu.RUnlock()
		return len(srv.profiles), cached, srv.lineage.profilesComputed.Load(), srv.lineage.profilesInherited.Load()
	}
	if err := srv.planFor(v); err != nil {
		t.Fatal(err)
	}
	_, first, _, _ := state()
	edges := srv.profiles[profileKey{v.data, v.scale, false}].f.Edges
	for i := 1; i <= 8; i++ {
		commit(t, srv, "roadUS", "tiny", []MutationOp{{Op: "insert", Src: uint32(i), Dst: 575, Wt: 1}})
		if allocs := allocsOf(func() {
			if err := srv.planFor(v); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("commit %d: the planned read after it allocates %d times", i, allocs)
		}
		if profiles, cached, computed, inherited := state(); profiles != 1 || cached != first || computed != 1 || inherited != int64(i) {
			t.Fatalf("after %d commits: %d profiles (%d computed, %d inherited), %d cached decisions; want 1 (1, %d) and %d",
				i, profiles, computed, inherited, cached, i, first)
		}
	}
	// One batch past Epsilon: the read re-profiles.
	big := make([]MutationOp, int(partition.Epsilon*float64(edges))+1)
	for i := range big {
		big[i] = MutationOp{Op: "insert", Src: uint32(i % 576), Dst: uint32(i * 7 % 576), Wt: 1}
	}
	commit(t, srv, "roadUS", "tiny", big)
	if err := srv.planFor(v); err != nil {
		t.Fatal(err)
	}
	if profiles, cached, computed, _ := state(); profiles != 1 || cached != first || computed != 2 {
		t.Fatalf("past Epsilon: %d profiles (%d computed), %d cached decisions; want 1 (2) and %d", profiles, computed, cached, first)
	}
	if p := srv.profiles[profileKey{v.data, v.scale, false}]; p.seq != 9 || p.f.Edges == edges {
		t.Fatalf("past Epsilon the profile is of seq %d with %d edges, want seq 9's", p.seq, p.f.Edges)
	}
}

// allocsOf counts the heap allocations of one call of f, as
// testing.AllocsPerRun does, but without a warm-up call first.
func allocsOf(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestLineageCountersOnMetricsz: over 8 commit + read cycles on one
// dataset, /metricsz's lineage block shows the first snapshot, which
// starts the lineage, balancing its partition, building its layouts and
// profiling; each later one inherits its predecessor's partition and
// profile and patches its layouts.
func TestLineageCountersOnMetricsz(t *testing.T) {
	store := openStore(t, t.TempDir(), mutate.Options{})
	defer store.Close()
	srv := NewServer(Config{Workers: 2, QueueDepth: 8, Mutations: store, DisableLearning: true})
	defer shutdown(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	lineage := func() LineageStats {
		httpResp, err := ts.Client().Get(ts.URL + "/metricsz")
		if err != nil {
			t.Fatal(err)
		}
		defer httpResp.Body.Close()
		var mb metricsBody
		if err := json.NewDecoder(httpResp.Body).Decode(&mb); err != nil {
			t.Fatal(err)
		}
		if mb.Lineage == nil {
			t.Fatal("/metricsz has no lineage block beside mutations")
		}
		return *mb.Lineage
	}
	prev := lineage()
	for i := 1; i <= 8; i++ {
		mut := fmt.Sprintf(`{"graph":"powerlaw","scale":"tiny","ops":[{"op":"insert","src":%d,"dst":%d,"wt":2}]}`, i, 3*i)
		if st, r := postJSON(t, ts, "/mutatez", mut); st != 200 {
			t.Fatalf("commit %d: status %d (%s)", i, st, r.Error)
		}
		for _, q := range []string{
			`{"algo":"bfs","system":"polymer","graph":"powerlaw","src":1}`,
			`{"algo":"pr","graph":"powerlaw"}`,
		} {
			st, r := postJSON(t, ts, "/run", q)
			if st != 200 || r.Cached {
				t.Fatalf("read %d %s: status %d cached %t (%s)", i, q, st, r.Cached, r.Error)
			}
			if r.System == "Polymer" && r.BoundsSeq != 1 {
				t.Fatalf("read %d %s: ran on the partition of seq %d, want the lineage's first", i, q, r.BoundsSeq)
			}
		}
		cur := lineage()
		d := LineageStats{
			LayoutsPatched: cur.LayoutsPatched - prev.LayoutsPatched, LayoutsBuilt: cur.LayoutsBuilt - prev.LayoutsBuilt,
			PartitionsInherited:  cur.PartitionsInherited - prev.PartitionsInherited,
			PartitionsRebalanced: cur.PartitionsRebalanced - prev.PartitionsRebalanced,
			ProfilesInherited:    cur.ProfilesInherited - prev.ProfilesInherited, ProfilesComputed: cur.ProfilesComputed - prev.ProfilesComputed,
		}
		prev = cur
		fresh := i == 1
		if fresh != (d.LayoutsPatched == 0 && d.LayoutsBuilt > 0 && d.PartitionsInherited == 0 && d.PartitionsRebalanced > 0) ||
			!fresh != (d.LayoutsPatched > 0 && d.LayoutsBuilt == 0 && d.PartitionsInherited > 0 && d.PartitionsRebalanced == 0) ||
			d.ProfilesComputed+d.ProfilesInherited != 1 || (d.ProfilesComputed == 1) != fresh {
			t.Fatalf("cycle %d: lineage counters moved by %+v", i, d)
		}
	}
}

// TestCommitRetiresSnapshotsNotTheBase: a dataset and scale is one base
// graph, whose view the unweighted read is at sequence 0 too. A commit
// supersedes snapshots; the base no mutation can change stays resident
// and undoomed, pinned or not, so across three commits with a read per
// weight class it is loaded once, and both weight classes of a generation
// read one topology. Another scale's base stays too. POST /invalidatez,
// the operator's dataset refresh, still purges every base.
func TestCommitRetiresSnapshotsNotTheBase(t *testing.T) {
	store := openStore(t, t.TempDir(), mutate.Options{})
	defer store.Close()
	srv := NewServer(Config{Workers: 1, QueueDepth: 4, Mutations: store})
	defer shutdown(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	unweighted := mustResolve(t, `{"algo":"pr","system":"polymer","graph":"powerlaw"}`)
	weighted := mustResolve(t, `{"algo":"sssp","system":"polymer","graph":"powerlaw"}`)
	otherScale := mustResolve(t, `{"algo":"pr","system":"polymer","graph":"powerlaw","scale":"small"}`)
	resident := func(id graphID) (ok, doomed bool) {
		srv.cache.mu.Lock()
		defer srv.cache.mu.Unlock()
		e, ok := srv.cache.entries[id]
		return ok, ok && e.doomed
	}

	// At sequence 0 one base holds the dataset and scale, and the
	// unweighted read is its view. It stays pinned across the first commit.
	gu, releaseBase, err := srv.graphFor(unweighted)
	if err != nil {
		t.Fatal(err)
	}
	gw, releaseW, err := srv.graphFor(weighted)
	if err != nil {
		t.Fatal(err)
	}
	releaseW()
	if gu.Weighted() || !gw.Weighted() || gu != gw.Unweighted() {
		t.Fatalf("sequence 0: unweighted read %v is not the view of the weighted base %v", gu, gw)
	}
	if cs := srv.cache.stats(); cs.Entries != 1 || cs.Misses != 1 {
		t.Fatalf("graph cache %+v at sequence 0, want one entry for the dataset and scale", cs)
	}
	_, releaseOther, err := srv.graphFor(otherScale)
	if err != nil {
		t.Fatal(err)
	}
	releaseOther()
	base := graphID{data: unweighted.data, scale: unweighted.scale}

	const commits = 3
	for i := 1; i <= commits; i++ {
		st, mr := postJSON(t, ts, "/mutatez",
			`{"graph":"powerlaw","scale":"tiny","ops":[{"op":"insert","src":1,"dst":2,"wt":3},{"op":"delete","src":2,"dst":1}]}`)
		if st != 200 || mr.Seq != uint64(i) {
			t.Fatalf("commit %d: status %d %+v", i, st, mr)
		}
		if ok, doomed := resident(base); !ok || doomed {
			t.Fatalf("the base after commit %d: resident %t doomed %t, want resident and undoomed", i, ok, doomed)
		}
		if i == 1 {
			releaseBase()
		}
		gu, releaseU, err := srv.graphFor(unweighted)
		if err != nil {
			t.Fatal(err)
		}
		gw, releaseW, err := srv.graphFor(weighted)
		if err != nil {
			t.Fatal(err)
		}
		if gu.Weighted() || !gw.Weighted() || gu != gw.Unweighted() {
			t.Fatalf("generation %d: unweighted read %v is not the view of the weighted snapshot %v", i, gu, gw)
		}
		if gu.TopologyBytes() >= gw.TopologyBytes() {
			t.Fatalf("generation %d: the view reports the weighted byte count", i)
		}
		releaseU()
		releaseW()
	}
	// One load of each scale's base, one snapshot per commit; the other
	// reads hit.
	if cs := srv.cache.stats(); cs.Misses != 2+commits || cs.Hits != 1+2*commits || cs.Entries != 3 {
		t.Fatalf("graph cache %+v, want %d misses (each scale's base once, a snapshot per commit), %d hits, "+
			"base + newest snapshot + the other scale's base resident", cs, 2+commits, 1+2*commits)
	}
	if ok, _ := resident(graphID{data: otherScale.data, scale: otherScale.scale}); !ok {
		t.Fatal("a commit at one scale retired another scale's base")
	}
	if ms := store.Stats(); ms.Folded != 1 || ms.Patched != commits-1 {
		t.Fatalf("snapshots folded %d patched %d, want 1 and %d", ms.Folded, ms.Patched, commits-1)
	}

	httpResp, err := ts.Client().Post(ts.URL+"/invalidatez?graph=powerlaw", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var inv struct{ Purged int }
	if err := json.NewDecoder(httpResp.Body).Decode(&inv); err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if cs := srv.cache.stats(); inv.Purged != 3 || cs.Entries != 0 {
		t.Fatalf("/invalidatez purged %d and left %+v, want both bases and the snapshot gone", inv.Purged, cs)
	}
}

func TestMutateValidation(t *testing.T) {
	store := openStore(t, t.TempDir(), mutate.Options{})
	defer store.Close()
	srv := NewServer(Config{Workers: 1, QueueDepth: 4, Mutations: store})
	defer shutdown(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"unknown-dataset": `{"graph":"nope","scale":"tiny","ops":[{"op":"insert","src":0,"dst":1}]}`,
		"unknown-scale":   `{"graph":"roadUS","scale":"galactic","ops":[{"op":"insert","src":0,"dst":1}]}`,
		"empty-ops":       `{"graph":"roadUS","scale":"tiny","ops":[]}`,
		"bad-kind":        `{"graph":"roadUS","scale":"tiny","ops":[{"op":"upsert","src":0,"dst":1}]}`,
		"oob-src":         `{"graph":"roadUS","scale":"tiny","ops":[{"op":"insert","src":576,"dst":1}]}`,
		"oob-dst":         `{"graph":"roadUS","scale":"tiny","ops":[{"op":"delete","src":0,"dst":99999}]}`,
		"bad-json":        `{"graph":`,
		"trailing":        `{"graph":"roadUS","scale":"tiny","ops":[{"op":"insert","src":0,"dst":1}]}{}`,
		"unknown-field":   `{"graph":"roadUS","scale":"tiny","ops":[{"op":"insert","src":0,"dst":1}],"zap":1}`,
		"negative-wt":     `{"graph":"roadUS","scale":"tiny","ops":[{"op":"insert","src":0,"dst":1,"wt":2},{"op":"insert","src":1,"dst":0,"wt":-5}]}`,
		"overflow-wt":     `{"graph":"roadUS","scale":"tiny","ops":[{"op":"insert","src":0,"dst":1,"wt":1e39}]}`,
	} {
		if st, _ := postJSON(t, ts, "/mutatez", body); st != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, st)
		}
	}
	// A weight JSON cannot spell is refused all the same, naming its op;
	// a zero weight is unit and a delete's weight is ignored.
	for _, wt := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), -1} {
		ops := []MutationOp{{Op: "delete", Src: 2, Dst: 3, Wt: wt}, {Op: "insert", Src: 0, Dst: 1}, {Op: "insert", Src: 1, Dst: 0, Wt: wt}}
		if _, err := resolveMutation(MutationRequest{Graph: "roadUS", Scale: "tiny", Ops: ops}); err == nil || !strings.Contains(err.Error(), "op 2:") {
			t.Errorf("weight %v: error %v, want op 2 refused", wt, err)
		}
	}
	if _, err := resolveMutation(MutationRequest{Graph: "roadUS", Scale: "tiny", Ops: []MutationOp{{Op: "insert", Src: 0, Dst: 1}}}); err != nil {
		t.Errorf("unit weight refused: %v", err)
	}
	// Nothing invalid reached the store or the queue.
	if s := store.Stats(); s.Committed != 0 {
		t.Fatalf("invalid mutations committed: %+v", s)
	}
	if got := srv.Counters().Admitted.Load(); got != 0 {
		t.Fatalf("invalid mutations admitted: %d", got)
	}
}

// TestDecodeMutationOversizedBody: a /mutatez body longer than
// MaxMutationBodyBytes is a 400 naming the limit, also when the excess is
// whitespace after a valid batch; at the limit exactly it is decoded.
func TestDecodeMutationOversizedBody(t *testing.T) {
	valid := `{"graph":"roadUS","scale":"tiny","ops":[{"op":"insert","src":0,"dst":1}]}`
	_, err := DecodeMutation(strings.NewReader(valid + strings.Repeat(" ", 2*MaxMutationBodyBytes)))
	wantLimitError(t, err, MaxMutationBodyBytes)
	long := `{"graph":"roadUS","scale":"tiny","ops":[` +
		strings.Repeat(`{"op":"insert","src":0,"dst":1},`, MaxMutationBodyBytes/32) + `{"op":"insert","src":0,"dst":1}]}`
	_, err = DecodeMutation(strings.NewReader(long))
	wantLimitError(t, err, MaxMutationBodyBytes)
	if _, err := DecodeMutation(strings.NewReader(valid + strings.Repeat(" ", MaxMutationBodyBytes-len(valid)))); err != nil {
		t.Fatalf("a body of exactly MaxMutationBodyBytes: %v", err)
	}
}

func TestMutateDisabledWithoutStore(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 4})
	defer shutdown(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	st, r := postJSON(t, ts, "/mutatez",
		`{"graph":"roadUS","scale":"tiny","ops":[{"op":"insert","src":0,"dst":1}]}`)
	if st != http.StatusServiceUnavailable || !strings.Contains(r.Error, "disabled") {
		t.Fatalf("status %d error %q, want 503 disabled", st, r.Error)
	}
}

// TestConcurrentReadsShareSnapshotLayouts: Polymer BFS and SSSP reads of
// one mutated snapshot, run at once, build its per-node layouts once
// (graph.Derived) through the weighted snapshot and its Unweighted view;
// after a second commit, the same reads at once on the fresh successor
// patch each layout from the first snapshot's once and build none. Every
// answer is what the same reads answer one after another on a second
// server. Under -race (scripts/check.sh) this is the proof that the
// build-once and patch-once paths and the read-only sharing are race-free.
func TestConcurrentReadsShareSnapshotLayouts(t *testing.T) {
	commits := []string{
		`{"graph":"powerlaw","scale":"tiny","ops":[{"op":"insert","src":1,"dst":2,"wt":3},{"op":"delete","src":2,"dst":1}]}`,
		`{"graph":"powerlaw","scale":"tiny","ops":[{"op":"insert","src":7,"dst":9,"wt":4},{"op":"insert","src":9,"dst":1,"wt":5}]}`,
	}
	var queries []string
	for src := 0; src < 4; src++ {
		for _, algo := range []string{"bfs", "sssp"} {
			queries = append(queries, fmt.Sprintf(`{"algo":%q,"system":"polymer","graph":"powerlaw","src":%d}`, algo, src))
		}
	}
	// read commits each batch and reads every query after it; it returns
	// the answers and how many layouts the successor patched and built.
	read := func(concurrent bool) (out []Response, patched, built int64) {
		store := openStore(t, t.TempDir(), mutate.Options{})
		defer store.Close()
		srv := NewServer(Config{Workers: 4, QueueDepth: 16, Mutations: store, DisableSharing: true})
		defer shutdown(t, srv)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		for i, commit := range commits {
			if st, mr := postJSON(t, ts, "/mutatez", commit); st != 200 {
				t.Fatalf("commit: status %d (%s)", st, mr.Error)
			}
			before := srv.lineage.stats()
			gen := make([]Response, len(queries))
			if !concurrent {
				for i, q := range queries {
					_, gen[i] = postJSON(t, ts, "/run", q)
				}
			} else {
				var wg sync.WaitGroup
				errs := make([]error, len(queries))
				for i, q := range queries {
					wg.Add(1)
					go func() {
						defer wg.Done()
						httpResp, err := ts.Client().Post(ts.URL+"/run", "application/json", strings.NewReader(q))
						if err != nil {
							errs[i] = err
							return
						}
						defer httpResp.Body.Close()
						errs[i] = json.NewDecoder(httpResp.Body).Decode(&gen[i])
					}()
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			if after := srv.lineage.stats(); i > 0 {
				patched, built = after.LayoutsPatched-before.LayoutsPatched, after.LayoutsBuilt-before.LayoutsBuilt
			}
			out = append(out, gen...)
		}
		return out, patched, built
	}
	want, _, _ := read(false)
	got, patched, built := read(true)
	if built != 0 || patched == 0 || patched > 2 {
		t.Fatalf("concurrent reads of the successor patched %d layouts and built %d, want each layout patched once", patched, built)
	}
	for i, w := range want {
		g, q := got[i], queries[i%len(queries)]
		if w.Error != "" || g.Error != "" || g.Cached {
			t.Fatalf("%s: errors %q / %q, cached=%t", q, w.Error, g.Error, g.Cached)
		}
		if g.Checksum != w.Checksum || g.SimSeconds != w.SimSeconds || g.PeakBytes != w.PeakBytes || g.BoundsSeq != w.BoundsSeq {
			t.Fatalf("%s: concurrent checksum %v sim %v peak %d bounds of seq %d, sequential %v %v %d %d",
				q, g.Checksum, g.SimSeconds, g.PeakBytes, g.BoundsSeq, w.Checksum, w.SimSeconds, w.PeakBytes, w.BoundsSeq)
		}
	}
}

// TestCommitSplitsInFlightCoalescedRead: a mutation commit racing an
// in-flight shared read must not let the reader's result land under the
// new generation, and post-commit readers must not attach to the
// pre-commit run.
func TestCommitSplitsInFlightCoalescedRead(t *testing.T) {
	store := openStore(t, t.TempDir(), mutate.Options{})
	defer store.Close()
	srv := NewServer(Config{noWorkers: true, Mutations: store})
	const body = `{"algo":"pr","system":"polymer","graph":"powerlaw"}`

	// A reader samples generation 0 and opens a shared run; its task
	// sits in the queue — the read is in flight when the commit lands.
	stale := mustResolve(t, body)
	stale.ver = srv.results.version(stale.data)
	staleOut := make(chan outcome, 1)
	go func() {
		out, _ := share(srv, stale, context.Background())
		staleOut <- out
	}()
	readTask := dequeue(t, srv)
	waitFor(t, "stale run published", func() bool { return openRuns(srv) == 1 })

	// The mutation takes the full commit path: admission, WAL append,
	// publish, generation bump.
	m, err := resolveMutation(MutationRequest{
		Graph: "powerlaw", Scale: "tiny",
		Ops: []MutationOp{{Op: "insert", Src: 1, Dst: 2, Wt: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	mt, _, err := srv.submitMutation(m, context.Background())
	if err != nil {
		t.Fatal(err)
	}
	<-srv.queue
	srv.executeMutate(mt)
	mout := srv.wait(mt.run, 0, nil, nil)
	if mout.status != 200 || mout.resp.Seq != 1 || mout.resp.Generation != 1 {
		t.Fatalf("commit outcome %d %+v", mout.status, mout.resp)
	}

	// A post-commit reader samples the new generation and must open its
	// own run rather than ride the stale one.
	fresh := mustResolve(t, body)
	fresh.ver = srv.results.version(fresh.data)
	if fresh.ver != 1 {
		t.Fatalf("fresh generation %d, want 1", fresh.ver)
	}
	freshOut := make(chan outcome, 1)
	go func() {
		out, _ := share(srv, fresh, context.Background())
		freshOut <- out
	}()
	waitFor(t, "fresh run published", func() bool { return openRuns(srv) == 2 })
	if got := srv.Counters().Coalesced.Load(); got != 0 {
		t.Fatalf("post-commit reader coalesced onto the pre-commit run (coalesced=%d)", got)
	}

	// Let the stale read finish now, after the commit. Whatever it
	// computed, its result must not be visible under the new generation.
	srv.execute(readTask)
	if out := <-staleOut; out.status != 200 {
		t.Fatalf("stale read: status %d (%s)", out.status, out.resp.Error)
	}
	if _, ok := srv.results.get(fresh); ok {
		t.Fatal("stale in-flight read published its result under the post-commit generation")
	}

	// Drain the fresh run so nothing leaks, then assert zero pins.
	freshTask := <-srv.queue
	srv.execute(freshTask)
	<-freshOut
	if pins := srv.cache.pinnedRefs(); pins != 0 {
		t.Fatalf("%d graph pins leaked", pins)
	}
}

// TestServeCrashRecoveryEndToEnd: a server whose store dies mid-commit
// loses nothing acknowledged; after restart the recovered server answers
// queries bit-identically to an oracle server that applied the same
// committed batches cleanly.
func TestServeCrashRecoveryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	const (
		query  = `{"algo":"sssp","system":"polymer","graph":"roadUS","src":0}`
		batch1 = `{"graph":"roadUS","scale":"tiny","ops":[{"op":"insert","src":0,"dst":100,"wt":0.5}]}`
		batch2 = `{"graph":"roadUS","scale":"tiny","ops":[{"op":"insert","src":0,"dst":575,"wt":0.01},{"op":"delete","src":0,"dst":100}]}`
	)

	// Phase 1: a store rigged to die after batch 2's fsync but before its
	// in-memory publish — the ack is lost but the bytes are durable.
	store := openStore(t, dir, mutate.Options{
		Crasher: &fault.PlannedCrash{Point: fault.CrashBeforePublish, Seq: 2},
	})
	srv := NewServer(Config{Workers: 2, QueueDepth: 8, Mutations: store})
	ts := httptest.NewServer(srv.Handler())

	if st, r := postJSON(t, ts, "/mutatez", batch1); st != 200 || r.Seq != 1 {
		t.Fatalf("batch1: status %d %+v", st, r)
	}
	st2, r2 := postJSON(t, ts, "/mutatez", batch2)
	if st2 != 500 || !strings.Contains(r2.Error, "simulated process kill") {
		t.Fatalf("batch2: status %d error %q, want the injected kill", st2, r2.Error)
	}
	ts.Close()
	shutdown(t, srv)
	store.Close()

	// Phase 2: restart. Recovery must replay both batches — batch 2 was
	// fsynced before the kill, so it is committed despite the lost ack.
	recovered := openStore(t, dir, mutate.Options{})
	defer recovered.Close()
	if seq, err := recovered.Seq("roadUS", 0); err != nil || seq != 2 {
		t.Fatalf("recovered seq = %d (%v), want 2", seq, err)
	}
	srvB := NewServer(Config{Workers: 2, QueueDepth: 8, Mutations: recovered})
	defer shutdown(t, srvB)
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()
	stB, rB := postJSON(t, tsB, "/run", query)
	if stB != 200 {
		t.Fatalf("recovered query: status %d (%s)", stB, rB.Error)
	}

	// Oracle: a fresh store applies the same two batches cleanly.
	oracle := openStore(t, t.TempDir(), mutate.Options{})
	defer oracle.Close()
	srvO := NewServer(Config{Workers: 2, QueueDepth: 8, Mutations: oracle})
	defer shutdown(t, srvO)
	tsO := httptest.NewServer(srvO.Handler())
	defer tsO.Close()
	if st, r := postJSON(t, tsO, "/mutatez", batch1); st != 200 {
		t.Fatalf("oracle batch1: status %d (%s)", st, r.Error)
	}
	if st, r := postJSON(t, tsO, "/mutatez", batch2); st != 200 {
		t.Fatalf("oracle batch2: status %d (%s)", st, r.Error)
	}
	stO, rO := postJSON(t, tsO, "/run", query)
	if stO != 200 {
		t.Fatalf("oracle query: status %d (%s)", stO, rO.Error)
	}
	if rB.Checksum != rO.Checksum {
		t.Fatalf("recovered checksum %v != clean-apply oracle %v", rB.Checksum, rO.Checksum)
	}
}

// TestDoomedSnapshotDropsOnRelease: a commit during an in-flight read
// dooms the pinned pre-commit snapshot; the last release frees it rather
// than leaving a superseded graph resident forever.
func TestDoomedSnapshotDropsOnRelease(t *testing.T) {
	store := openStore(t, t.TempDir(), mutate.Options{})
	defer store.Close()
	srv := NewServer(Config{noWorkers: true, Mutations: store})
	v := mustResolve(t, `{"algo":"pr","system":"polymer","graph":"powerlaw"}`)

	g, release, err := srv.graphFor(v)
	if err != nil {
		t.Fatal(err)
	}
	if g == nil || srv.cache.pinnedRefs() != 1 {
		t.Fatalf("pin not held: refs=%d", srv.cache.pinnedRefs())
	}
	if _, err := store.Commit("powerlaw", 0, 500, []mutate.Op{{Kind: mutate.OpInsert, Src: 1, Dst: 2, Wt: 1}}); err != nil {
		t.Fatal(err)
	}
	srv.InvalidateGraph("powerlaw")
	// Still resident while pinned (the read keeps its snapshot)...
	if st := srv.cache.stats(); st.Entries != 1 {
		t.Fatalf("pinned snapshot evicted under the reader: %+v", st)
	}
	release()
	// ...and gone the moment the pin drops: no future request can ever
	// ask for the m0 key again.
	if st := srv.cache.stats(); st.Entries != 0 {
		t.Fatalf("doomed snapshot survived its last release: %+v", st)
	}
	// A fresh load sees the mutated snapshot under the new seq key.
	g2, release2, err := srv.graphFor(v)
	if err != nil {
		t.Fatal(err)
	}
	defer release2()
	if g2.NumEdges() != g.NumEdges()+1 {
		t.Fatalf("post-commit snapshot has %d edges, want %d", g2.NumEdges(), g.NumEdges()+1)
	}
}

func TestReadyzGatedDuringWALRecovery(t *testing.T) {
	dir := t.TempDir()
	// Seed the WAL with committed work so recovery has something to replay.
	seedStore, err := mutate.Open(dir, mutate.Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seedStore.Commit("roadUS", 0, 10, []mutate.Op{{Kind: mutate.OpInsert, Src: 0, Dst: 1, Wt: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := seedStore.Close(); err != nil {
		t.Fatal(err)
	}

	entered := make(chan string, 1)
	release := make(chan struct{})
	store, err := mutate.Open(dir, mutate.Options{
		CheckpointEvery: -1,
		RecoverHook: func(key string) {
			entered <- key
			<-release
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := NewServer(Config{Workers: 1, QueueDepth: 4, Mutations: store})
	defer shutdown(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.RecoverInBackground()

	// Recovery is now parked mid-replay: readiness must be 503 with a
	// Retry-After, while liveness stays 200.
	key := <-entered
	if key != "roadUS@0" {
		t.Fatalf("recovering key %q, want roadUS@0", key)
	}
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mid-recovery /readyz = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("mid-recovery /readyz has no Retry-After")
	}
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mid-recovery /healthz = %d, want 200 (liveness is not readiness)", resp.StatusCode)
	}

	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := ts.Client().Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz still %d after recovery released", resp.StatusCode)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The replayed batch is visible without any further recovery work.
	if seq, err := store.Seq("roadUS", 0); err != nil || seq != 1 {
		t.Fatalf("recovered seq = %d (%v), want 1", seq, err)
	}
}

// TestShutdownTimeoutStillClosesStore is the polymerd regression: a hung
// in-flight request makes the graceful drain miss its deadline, and the
// shutdown path must still be able to close the mutation store — with
// the close fencing any commit that lost the race.
func TestShutdownTimeoutStillClosesStore(t *testing.T) {
	store, err := mutate.Open(t.TempDir(), mutate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// No workers: the admitted request below hangs in the queue forever,
	// exactly like an execution wedged past every cancellation point.
	srv := NewServer(Config{QueueDepth: 4, DrainTimeout: 20 * time.Millisecond, Mutations: store, noWorkers: true})
	v, err := resolve(Request{Algo: "pr", System: "polymer", Graph: "powerlaw",
		SessionRetries: -1, Restarts: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.submit(v, runKey{}, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown reported success with a hung in-flight request")
	}
	// polymerd closes the store unconditionally after a failed drain.
	if err := store.Close(); err != nil {
		t.Fatalf("Close after failed drain: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("Close is not idempotent: %v", err)
	}
	if _, err := store.Commit("roadUS", 0, 10, []mutate.Op{{Kind: mutate.OpInsert, Src: 0, Dst: 1}}); !errors.Is(err, mutate.ErrClosed) {
		t.Fatalf("post-close commit error = %v, want ErrClosed", err)
	}
	if _, err := store.Seq("roadUS", 0); !errors.Is(err, mutate.ErrClosed) {
		t.Fatalf("post-close Seq error = %v, want ErrClosed", err)
	}
}

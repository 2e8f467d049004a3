// Tests for the result-cache hit path: the bytes a hit writes, the shared
// topology tables a request resolves against, and what one hit allocates
// end to end.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"polymer/internal/bench"
	"polymer/internal/numa"
)

// hitReplyFor puts payload into a fresh cache and returns its hit as a
// request with stamp's provenance (ID, Plan) receives it.
func hitReplyFor(t *testing.T, payload Response, stamp *Response) *hitReply {
	t.Helper()
	v := mustResolve(t, `{"algo":"bfs","system":"ligra","graph":"powerlaw","src":3}`)
	c := newResultCache(1 << 20)
	c.put(v, ownID(v), payload, bench.Output{}, 0)
	h, ok := c.get(v)
	if !ok {
		t.Fatalf("payload %+v not cached", payload)
	}
	return &hitReply{hit: h, id: stamp.ID, plan: stamp.Plan}
}

// hitResponse is the Response a hit of payload stands for under stamp's
// provenance: put's stripping, Cached set, and stamp's ID and Plan.
func hitResponse(payload Response, stamp *Response) Response {
	resp := payload
	resp.ID, resp.WallMs, resp.Error, resp.Coalesced = stamp.ID, 0, "", false
	resp.Cached, resp.Plan = true, stamp.Plan
	return resp
}

// checkHit holds what writeHit writes for payload's hit under stamp to what
// writeJSON writes for the Response the hit stands for.
func checkHit(t *testing.T, name string, payload Response, stamp *Response) {
	t.Helper()
	got := httptest.NewRecorder()
	writeHit(got, http.StatusOK, hitReplyFor(t, payload, stamp))
	want := httptest.NewRecorder()
	writeJSON(want, http.StatusOK, hitResponse(payload, stamp))
	if got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("%s:\n got %d %v %s\nwant %d %v %s", name, got.Code, got.Header(), got.Body, want.Code, want.Header(), want.Body)
	}
}

// setEveryField sets every field of the struct v to a non-zero value,
// following pointers, strings with characters JSON escapes. It fails on a
// kind it does not know, so a field added to Response is covered (or the
// test stops) as soon as it exists.
func setEveryField(t *testing.T, v reflect.Value) {
	t.Helper()
	for i := range v.NumField() {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.String:
			f.SetString(name + "<\"&>\u2028\\")
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i+1) << 33)
		case reflect.Uint64:
			f.SetUint(uint64(i+1) << 40)
		case reflect.Float64:
			f.SetFloat(1.5e-7 * float64(i+1))
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
			setEveryField(t, f.Elem())
		default:
			t.Fatalf("%s.%s: kind %s not handled", v.Type(), name, f.Kind())
		}
	}
}

// TestHitBytesMatchEncodingJSON: a hit writes the bytes encoding/json
// writes for the same Response, with every payload field set and with
// every one zero, with and without a plan. The payload's own provenance
// (ID, wall time, error, coalesced, plan) never reaches a hit. A plan with no JSON form writes no body, as
// writeJSON writes none.
func TestHitBytesMatchEncodingJSON(t *testing.T) {
	// appendTo splices the ID in first and the plan last: Response's
	// field order must stay so.
	rt := reflect.TypeFor[Response]()
	if rt.Field(0).Name != "ID" || rt.Field(rt.NumField()-1).Name != "Plan" {
		t.Fatalf("Response's first field is %s and last %s, want ID and Plan", rt.Field(0).Name, rt.Field(rt.NumField()-1).Name)
	}
	var full Response
	setEveryField(t, reflect.ValueOf(&full).Elem())
	plan := &PlanInfo{
		Version: 3, Engine: "polymer", Placement: "colocated", Nodes: 8, Predicted: 2.5e-3,
		AutoEngine: true, AutoPlacement: true,
	}
	unencodable := &PlanInfo{Version: 1, Engine: "polymer", Predicted: math.Inf(1)}
	for name, payload := range map[string]Response{"every field set": full, "every field zero": {}} {
		for _, pi := range []*PlanInfo{nil, plan, unencodable} {
			stamp := Response{ID: 1 << 40, Plan: pi}
			checkHit(t, fmt.Sprintf("%s, plan %+v", name, pi), payload, &stamp)
		}
	}
}

// FuzzHitBytes: for any payload encoding/json can write, a hit's bytes
// are encoding/json's.
func FuzzHitBytes(f *testing.F) {
	f.Add("ligra", "bfs", "powerlaw", "tiny", 0.25, 17.5, int64(4096), 1, 0, "", 0, false,
		uint64(0), uint64(0), uint64(0), "", int64(0), 0.0, int64(1), false, 0, 0.0)
	f.Add("polymer", "pr", "<g&\"\\>", "\x00\xff", -1e-9, math.MaxFloat64, int64(-1), -2, 3, "err\n", 9, true,
		uint64(math.MaxUint64), uint64(2), uint64(3), "interleave", int64(1<<30), 0.5, int64(math.MaxInt64),
		true, 7, 1e-7)
	f.Fuzz(func(t *testing.T, system, algo, graph, scale string, sim, checksum float64, peak int64,
		rollbacks, restarts int, errText string, batch int, warm bool,
		seq, generation, boundsSeq uint64, tier string, dram int64, slow float64, id int64,
		planned bool, nodes int, predicted float64) {
		payload := Response{
			System: system, Algo: algo, Graph: graph, Scale: scale, SimSeconds: sim, Checksum: checksum,
			PeakBytes: peak, Rollbacks: rollbacks, Restarts: restarts,
			Error: errText, BatchSize: batch, Warm: warm, Seq: seq, Generation: generation, BoundsSeq: boundsSeq,
			Tier: tier, DramBytes: dram, SlowRate: slow,
		}
		if _, err := json.Marshal(payload); err != nil {
			t.Skip("no JSON form (a NaN or infinite float)")
		}
		stamp := Response{ID: id}
		if planned {
			stamp.Plan = &PlanInfo{Version: 1, Engine: system, Placement: tier, Nodes: nodes, Predicted: predicted}
		}
		checkHit(t, "hit", payload, &stamp)
	})
}

// TestSharedTopologyUnchanged: the machine tables TopologyByName shares
// between requests are read, never written: after planned, tiered, amd
// and explicit requests have run and hit, both still equal fresh builds.
func TestSharedTopologyUnchanged(t *testing.T) {
	srv := NewServer(Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())
	for _, b := range []string{
		`{"algo":"bfs","graph":"powerlaw","src":3}`,
		`{"algo":"pr","system":"polymer","graph":"powerlaw","sockets":2,"cores":2,"dram_bytes":20000,"tier":"hot"}`,
		`{"algo":"pr","system":"polymer","graph":"powerlaw","machine":"amd","sockets":4,"cores":3}`,
		`{"algo":"sssp","system":"ligra","graph":"powerlaw","sockets":3,"cores":5,"src":1}`,
	} {
		for range 2 { // a run, then a hit
			if st, resp, _ := postRun(t, ts.URL, b); st != http.StatusOK {
				t.Fatalf("%s: status %d (%s)", b, st, resp.Error)
			}
		}
	}
	for name, fresh := range map[string]*numa.Topology{"intel": numa.IntelXeon80(), "amd": numa.AMDOpteron64()} {
		if shared, err := numa.TopologyByName(name); err != nil || !reflect.DeepEqual(shared, fresh) {
			t.Errorf("shared %s table changed: %+v (%v)", name, shared, err)
		}
	}
}

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// hitWriter is a reusable ResponseWriter: it keeps its header map and
// buffer across requests, as a benchmark client does.
type hitWriter struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
}

func (w *hitWriter) Header() http.Header         { return w.hdr }
func (w *hitWriter) WriteHeader(status int)      { w.status = status }
func (w *hitWriter) Write(b []byte) (int, error) { return w.buf.Write(b) }

type hitBody struct{ bytes.Reader }

func (*hitBody) Close() error { return nil }

// TestHitRequestAllocs: a body whose answer is cached, posted through
// Handler(), is a decode, a cache lookup and a write of stored bytes: no
// machine table is built and no Response is encoded. The decode reads
// the body into a pooled buffer, takes it by the fast path with every
// string a vocabulary constant, and resolves it into handleRun's frame,
// so it allocates nothing: what a hit allocates is the request copy and
// the body bytes the caller makes and the header value, 3 objects in all
// (under -race, up to two more a run: the race detector's pools drop
// some hit and body buffers). A planned body is held to the same count:
// its plan and the plan's JSON are made once for its decision
// (resolved.hitPlan), not rendered again for every hit.
func TestHitRequestAllocs(t *testing.T) {
	for _, tc := range []struct{ name, body string }{
		{"explicit", `{"algo":"bfs","system":"ligra","graph":"powerlaw","src":3}`},
		{"planned", `{"algo":"bfs","graph":"powerlaw","src":3}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewServer(Config{noWorkers: true})
			defer srv.Shutdown(context.Background())
			v := mustResolve(t, tc.body)
			if err := srv.planFor(v); err != nil { // binds a planned body's pick
				t.Fatal(err)
			}
			if (v.planned != nil) != (tc.name == "planned") {
				t.Fatalf("planned = %v", v.planned)
			}
			payload := Response{System: string(v.sys), Algo: "bfs", Graph: "powerlaw", Scale: "tiny", Checksum: 1}
			srv.results.put(v, ownID(v), payload, bench.Output{}, 0)
			h := srv.Handler()
			tmpl := httptest.NewRequest(http.MethodPost, "/run", nil)
			var rd hitBody
			w := &hitWriter{hdr: make(http.Header)}
			post := func() {
				r := *tmpl
				rd.Reset([]byte(tc.body))
				r.Body = &rd
				clear(w.hdr)
				w.buf.Reset()
				h.ServeHTTP(w, &r)
			}
			post() // fills the server's pools and the decision's plan
			allocs := testing.AllocsPerRun(200, post)
			want := httptest.NewRecorder()
			writeJSON(want, http.StatusOK, hitResponse(payload, &Response{ID: srv.ids.Load(), Plan: v.planInfo()}))
			if w.status != http.StatusOK || !bytes.Equal(w.buf.Bytes(), want.Body.Bytes()) {
				t.Fatalf("not the hit's bytes: status %d %s\nwant %s", w.status, w.buf.Bytes(), want.Body.Bytes())
			}
			t.Logf("a cached /run allocates %.1f objects", allocs)
			bound := 3.0
			if raceEnabled {
				bound += 2 // a dropped hit buffer is allocated again and grown
			}
			if allocs > bound {
				t.Fatalf("a cached /run allocates %.1f objects, want at most %.0f", allocs, bound)
			}
		})
	}
}

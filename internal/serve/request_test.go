package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"polymer/internal/bench"
)

func TestDecodeRequestValid(t *testing.T) {
	v, err := DecodeRequest(strings.NewReader(
		`{"algo":"pr","system":"polymer","graph":"powerlaw","scale":"tiny"}`))
	if err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	if v.sys != bench.Polymer || v.alg != bench.PR {
		t.Fatalf("resolved (%s,%s), want (polymer,pr)", v.sys, v.alg)
	}
	if v.nodes != v.topo.Sockets || v.cores != v.topo.CoresPerSocket {
		t.Fatalf("defaults (%d nodes, %d cores), want topology max (%d,%d)",
			v.nodes, v.cores, v.topo.Sockets, v.topo.CoresPerSocket)
	}
	// Absent knobs must mean "server default", not zero.
	if v.req.SessionRetries != -1 || v.req.Restarts != -1 {
		t.Fatalf("absent knobs decoded to (%d,%d), want (-1,-1)",
			v.req.SessionRetries, v.req.Restarts)
	}
	if v.budget != 0 {
		t.Fatalf("absent budget decoded to %v, want 0 (server default)", v.budget)
	}
}

func TestDecodeRequestBudget(t *testing.T) {
	v, err := DecodeRequest(strings.NewReader(
		`{"algo":"pr","system":"ligra","graph":"powerlaw","budget_ms":250}`))
	if err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	if v.budget != 250*time.Millisecond {
		t.Fatalf("budget = %v, want 250ms", v.budget)
	}
}

func TestDecodeRequestRejections(t *testing.T) {
	cases := []struct {
		name, body, wantSub string
	}{
		{"empty", ``, "bad JSON"},
		{"malformed", `{"algo":`, "bad JSON"},
		{"not-an-object", `[1,2,3]`, "bad JSON"},
		{"unknown-field", `{"algo":"pr","system":"polymer","graph":"powerlaw","bogus":1}`, "bad JSON"},
		{"trailing-data", `{"algo":"pr","system":"polymer","graph":"powerlaw"}{"x":1}`, "trailing data"},
		{"unknown-algo", `{"algo":"cc","system":"polymer","graph":"powerlaw"}`, "unknown algorithm"},
		{"unknown-system", `{"algo":"pr","system":"spark","graph":"powerlaw"}`, "unknown system"},
		{"unsupported-pair", `{"algo":"bfs","system":"xstream","graph":"powerlaw"}`, "not served"},
		{"unknown-graph", `{"algo":"pr","system":"polymer","graph":"friendster"}`, "unknown dataset"},
		{"unknown-scale", `{"algo":"pr","system":"polymer","graph":"powerlaw","scale":"galactic"}`, "unknown scale"},
		{"huge-scale", `{"algo":"pr","system":"polymer","graph":"powerlaw","scale":"huge"}`, "unknown scale"},
		{"unknown-machine", `{"algo":"pr","system":"polymer","graph":"powerlaw","machine":"sparc"}`, "unknown machine"},
		{"sockets-range", `{"algo":"pr","system":"polymer","graph":"powerlaw","sockets":99}`, "sockets 99 out of range"},
		{"cores-range", `{"algo":"pr","system":"polymer","graph":"powerlaw","cores":-1}`, "cores -1 out of range"},
		{"negative-budget", `{"algo":"pr","system":"polymer","graph":"powerlaw","budget_ms":-5}`, "negative"},
		{"absurd-budget", `{"algo":"pr","system":"polymer","graph":"powerlaw","budget_ms":86400000}`, "exceeds"},
		// A request runs once: the whole-run retry knob is gone from the wire.
		{"retries-field", `{"algo":"pr","system":"polymer","graph":"powerlaw","retries":1}`, `unknown field "retries"`},
		{"session-retries-range", `{"algo":"pr","system":"polymer","graph":"powerlaw","session_retries":-2}`, "session_retries -2 out of range"},
		{"restarts-range", `{"algo":"pr","system":"polymer","graph":"powerlaw","restarts":99}`, "restarts 99 out of range"},
		{"bad-fault-spec", `{"algo":"pr","system":"polymer","graph":"powerlaw","fault":"meteor@3"}`, "bad fault spec"},
		// polymerd serves one machine: the cluster shape is gone from the wire.
		{"machines-field", `{"algo":"pr","graph":"powerlaw","machines":2}`, `unknown field "machines"`},
		{"replicas-field", `{"algo":"pr","graph":"powerlaw","replicas":2}`, `unknown field "replicas"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeRequest(strings.NewReader(tc.body))
			if err == nil {
				t.Fatalf("DecodeRequest accepted %q", tc.body)
			}
			if _, ok := err.(*BadRequest); !ok {
				t.Fatalf("error type %T, want *BadRequest (err: %v)", err, err)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err.Error(), tc.wantSub)
			}
		})
	}
}

// TestDecodeRequestOversizedBody: a body longer than MaxBodyBytes is a
// 400 naming the limit, whether the excess is inside the object or is
// whitespace after a valid one, which a decoder reading through a
// truncating reader would never see.
func TestDecodeRequestOversizedBody(t *testing.T) {
	valid := `{"algo":"pr","system":"polymer","graph":"powerlaw"}`
	for name, body := range map[string]string{
		"long-string": `{"algo":"pr","system":"polymer","graph":"powerlaw","fault":"` +
			strings.Repeat("x", MaxBodyBytes) + `"}`,
		"padded":   valid + strings.Repeat(" ", 2*MaxBodyBytes),
		"one-over": valid + strings.Repeat(" ", MaxBodyBytes+1-len(valid)),
	} {
		t.Run(name, func(t *testing.T) {
			_, err := DecodeRequest(strings.NewReader(body))
			wantLimitError(t, err, MaxBodyBytes)
		})
	}
	// At the limit exactly, the body is decoded.
	if _, err := DecodeRequest(strings.NewReader(valid + strings.Repeat(" ", MaxBodyBytes-len(valid)))); err != nil {
		t.Fatalf("a body of exactly MaxBodyBytes: %v", err)
	}
}

// wantLimitError fails unless err is the 400 for a body over limit bytes.
func wantLimitError(t *testing.T, err error, limit int) {
	t.Helper()
	if err == nil {
		t.Fatal("oversized body accepted")
	}
	if _, ok := err.(*BadRequest); !ok {
		t.Fatalf("error type %T, want *BadRequest", err)
	}
	if want := fmt.Sprintf("body exceeds the %d-byte limit", limit); err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
}

// resolve binds req as DecodeRequest does after decoding it.
func resolve(req Request) (*resolved, error) {
	v := new(resolved)
	if err := v.bind(req); err != nil {
		return nil, err
	}
	return v, nil
}

// referenceRequest is the encoding/json decode DecodeRequest must agree
// with on every body of at most MaxBodyBytes: a Request with its absent
// knobs at -1, one object of known fields, then nothing but whitespace.
func referenceRequest(body string) (Request, error) {
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	req := Request{SessionRetries: -1, Restarts: -1}
	if err := dec.Decode(&req); err != nil {
		return req, badReq("bad JSON: %v", err)
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return req, badReq("trailing data after request object")
	}
	return req, nil
}

// FuzzDecodeRequest holds DecodeRequest to its contract on hostile
// input — (*resolved, nil) or (nil, *BadRequest), never a panic — and to
// the encoding/json reference: the same resolved request, or an error
// with the same text. A body the fast path takes must decode under the
// reference to the same Request.
func FuzzDecodeRequest(f *testing.F) {
	seeds := []string{
		`{"algo":"pr","system":"polymer","graph":"powerlaw","scale":"tiny"}`,
		`{"algo":"bfs","system":"ligra","graph":"powerlaw","src":4294967295}`,
		`{"algo":"pr","system":"xstream","graph":"rmat24","scale":"small","machine":"amd"}`,
		`{"algo":"pr","system":"polymer","graph":"powerlaw","budget_ms":9223372036854775807}`,
		`{"algo":"pr","system":"polymer","graph":"powerlaw","budget_ms":-9223372036854775808}`,
		`{"algo":"pr","system":"polymer","graph":"powerlaw","fault":"panic@2:t3,stall@1:t0,offline@1:n1"}`,
		`{"algo":"pr","system":"polymer","graph":"powerlaw","fault":"link@3:n0-n1*0.25,alloc@-1"}`,
		`{"algo":"pr","system":"xstream","graph":"powerlaw","fault":"panic@0:t0","session_retries":0,"restarts":0,"retries":2}`,
		`{"algo":"sssp","system":"polymer","graph":"powerlaw","src":2,"machines":3,"replicas":2}`,
		`{"algo":"pr","system":"polymer","graph":"powerlaw","fault":"` + "\x00\xff" + `"}`,
		`{"algo":"PR","system":"POLYMER","graph":"powerlaw","sockets":8,"cores":10}`,
		`{"algo":"犬","system":"polymer","graph":"powerlaw"}`,
		`{"algo":"pr","system":"polymer","graph":"powerlaw"`,
		`{"algo":"pr","system":"polymer","graph":"powerlaw"}}`,
		`null`,
		`true`,
		`"pr"`,
		`[{"algo":"pr"}]`,
		`{}`,
		``,
		// Bodies only encoding/json decodes. Keys it matches case-insensitively,
		// "ſ" (U+017F) folding to "s" and the Kelvin sign (U+212A) to "k":
		`{"ALGO":"pr","System":"polymer","graph":"powerlaw"}`,
		`{"algo":"pr","graph":"powerlaw","` + "\u017f" + `cale":"small"}`,
		`{"algo":"pr","system":"polymer","graph":"powerlaw","soc` + "\u212a" + `ets":2}`,
		// Escapes, in values and keys.
		`{"algo":"p\u0072","system":"polymer","graph":"powerlaw"}`,
		`{"algo":"bfs","system":"ligra","graph":"power\u006caw","src":3}`,
		`{"algo":"pr","system":"polymer","graph":"powerlaw","fault":"panic@1:t0\n"}`,
		`{"algo":"pr","system":"polymer","graph":"powerlaw","fault":"pa\"nic@1:t0"}`,
		`{"\u0061lgo":"pr","system":"polymer","graph":"powerlaw"}`,
		// null keeps a field's value; duplicate keys keep the last.
		`{"algo":"pr","system":null,"graph":"powerlaw","src":null}`,
		`{"algo":"bfs","algo":"pr","graph":"powerlaw","src":5,"src":7,"budget_ms":9,"budget_ms":3}`,
		// Numbers an integer field refuses, or takes only through encoding/json.
		`{"algo":"bfs","graph":"powerlaw","src":1e2}`,
		`{"algo":"bfs","graph":"powerlaw","src":01}`,
		`{"algo":"bfs","graph":"powerlaw","src":3.0}`,
		`{"algo":"bfs","graph":"powerlaw","src":-0}`,
		`{"algo":"pr","graph":"powerlaw","budget_ms":-0,"sockets":-0}`,
		`{"algo":"pr","graph":"powerlaw","budget_ms":-}`,
		`{"algo":"bfs","graph":"powerlaw","src":"3"}`,
		`{"algo":"bfs","graph":"powerlaw","src":4294967296}`,
		`{"algo":"bfs","graph":"powerlaw","src":-1}`,
		`{"algo":"pr","graph":"powerlaw","budget_ms":9223372036854775808}`,
		`{"algo":"pr","graph":"powerlaw","budget_ms":-9223372036854775809}`,
		`{"algo":"pr","graph":"powerlaw","fault_seed":18446744073709551616}`,
		`{"algo":"pr","graph":"powerlaw","fault_seed":18446744073709551615,"dram_bytes":-9223372036854775808}`,
		// Non-ASCII and control bytes in values.
		`{"algo":"pr","system":"polymer","graph":"powérlaw"}`,
		`{"algo":"pr","system":"polymer","graph":"powerlaw","fault":"` + "\x7f" + `"}`,
		`{"algo":"pr","system":"polymer","graph":"powerlaw","fault":"` + "\t" + `"}`,
		// Bodies the fast path takes (whitespace wherever JSON allows it,
		// every field, words outside the vocabulary), and a flat object
		// with trailing garbage, which it refuses.
		" \t{ \"algo\" : \"bfs\" ,\n\"graph\":\"powerlaw\",\r\"src\" :3 } \n",
		`{"algo":"sssp","system":"polymer","placement":"interleaved","graph":"roadUS","scale":"small","machine":"amd","sockets":4,"cores":2,"src":9,"budget_ms":500,"fault":"panic@1:t1","fault_seed":7,"session_retries":0,"restarts":2,"dram_bytes":20000,"tier":"hot","promote_every":3}`,
		`{"algo":"pr","system":"Polymer ","graph":"PowerLaw","scale":"TINY"}`,
		`{"algo":"pr","graph":"powerlaw"} x`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		v, err := DecodeRequest(strings.NewReader(body))
		req := Request{SessionRetries: -1, Restarts: -1}
		if decodeFlat([]byte(body), &req) {
			if ref, refErr := referenceRequest(body); refErr != nil || ref != req {
				t.Fatalf("fast path decoded %q to %+v; encoding/json to %+v (%v)", body, req, ref, refErr)
			}
		}
		var want *resolved
		wantErr := badReq("body exceeds the %d-byte limit", MaxBodyBytes)
		if len(body) <= MaxBodyBytes {
			if req, wantErr = referenceRequest(body); wantErr == nil {
				want, wantErr = resolve(req)
			}
		}
		if err != nil {
			if v != nil {
				t.Fatal("non-nil resolved alongside an error")
			}
			if _, ok := err.(*BadRequest); !ok {
				t.Fatalf("error type %T for %q, want *BadRequest", err, body)
			}
			if wantErr == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%q: error %q, reference %v", body, err, wantErr)
			}
			return
		}
		if wantErr != nil {
			t.Fatalf("%q: accepted, reference refuses it: %v", body, wantErr)
		}
		if !reflect.DeepEqual(v, want) {
			t.Fatalf("%q: resolved %+v\nreference %+v", body, v, want)
		}
		if v == nil {
			t.Fatal("nil resolved with nil error")
		}
		// A decoded request must be executable without re-validation.
		if v.nodes < 1 || v.cores < 1 {
			t.Fatalf("resolved machine %dx%d escaped validation", v.nodes, v.cores)
		}
		if v.budget < 0 || v.budget > MaxBudget {
			t.Fatalf("resolved budget %v escaped validation", v.budget)
		}
	})
}

// TestDecodeFlatTakesClientBodies: the bodies clients send — the
// benchmark's, the README's — take the fast path, and the ones that need
// encoding/json do not. A fast path that turned every body away would
// still decode correctly, but at encoding/json's cost.
func TestDecodeFlatTakesClientBodies(t *testing.T) {
	for _, body := range []string{
		`{"algo":"bfs","graph":"roadUS","scale":"tiny","src":577,"system":"ligra"}`,
		`{"algo":"pr","graph":"powerlaw","scale":"tiny","src":0}`,
		"{\n  \"algo\": \"pr\", \"system\": \"polymer\", \"graph\": \"powerlaw\",\n  \"scale\": \"tiny\", \"sockets\": 4, \"cores\": 2, \"budget_ms\": 5000\n}\n",
		`{"algo":"pr","system":"polymer","graph":"powerlaw","scale":"tiny","fault":"panic@1:t1,stall@0:t0"}`,
		`{}`,
	} {
		req := Request{SessionRetries: -1, Restarts: -1}
		if !decodeFlat([]byte(body), &req) {
			t.Errorf("fast path refused %q", body)
		}
	}
	for _, body := range []string{
		`{"algo":"pr","system":null}`,
		`{"Algo":"pr"}`,
		`{"algo":"p\u0072"}`,
		`{"src":-0}`,
		`{"budget_ms":1.0}`,
		`{"algo":"pr"}{}`,
		`{"algo":"pr",}`,
		`{"algo":"pr"`,
	} {
		req := Request{SessionRetries: -1, Restarts: -1}
		if decodeFlat([]byte(body), &req) {
			t.Errorf("fast path took %q", body)
		}
	}
}

// BenchmarkDecodeRequest reports B/op and allocs/op of one decode: a
// canonical body, as the benchmark clients send, and the same body with
// an escaped string, which only encoding/json decodes.
func BenchmarkDecodeRequest(b *testing.B) {
	for _, bc := range []struct{ name, body string }{
		{"canonical", `{"algo":"bfs","graph":"powerlaw","scale":"tiny","src":3,"system":"ligra"}`},
		{"escaped", `{"algo":"bfs","graph":"power\u006caw","scale":"tiny","src":3,"system":"ligra"}`},
	} {
		b.Run(bc.name, func(b *testing.B) {
			body := []byte(bc.body)
			var rd bytes.Reader
			b.ReportAllocs()
			for b.Loop() {
				rd.Reset(body)
				if _, err := DecodeRequest(&rd); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

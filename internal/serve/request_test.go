package serve

import (
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

func TestDecodeRequestOversizedBody(t *testing.T) {
	big := `{"algo":"pr","system":"polymer","graph":"powerlaw","fault":"` +
		strings.Repeat("x", MaxBodyBytes) + `"}`
	_, err := DecodeRequest(strings.NewReader(big))
	if err == nil {
		t.Fatal("oversized body accepted")
	}
	if _, ok := err.(*BadRequest); !ok {
		t.Fatalf("error type %T, want *BadRequest", err)
	}
}

// FuzzDecodeRequest asserts the decoder's contract on hostile input: it
// returns (*resolved, nil) or (nil, *BadRequest) and never panics.
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
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		v, err := DecodeRequest(strings.NewReader(body))
		if err != nil {
			if v != nil {
				t.Fatal("non-nil resolved alongside an error")
			}
			if _, ok := err.(*BadRequest); !ok {
				t.Fatalf("error type %T for %q, want *BadRequest", err, body)
			}
			return
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

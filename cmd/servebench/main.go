// Command servebench measures what the serve-side execution-reuse layer
// buys under a duplicate-heavy workload. It runs the identical Zipf
// request schedule against two in-process polymerd servers — "before"
// with run sharing (coalescing and multi-source sweeps) and the result
// cache disabled, "after" with both on — using closed-loop clients, and
// reports per-arm latency percentiles and goodput plus the after/before
// ratios.
//
// The ratios, not the absolute numbers, are the CI contract: they divide
// out the host machine, so -baseline can gate regressions on any runner.
//
// Usage:
//
//	servebench -requests 400 -clients 16 -out BENCH_serving.json
//	servebench -requests 400 -baseline BENCH_serving.json   # CI gate
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"polymer/internal/bench"
	"polymer/internal/serve"
)

type armReport struct {
	bench.ServingStats
	Counters serve.CounterSnapshot `json:"counters"`
}

type report struct {
	Workload struct {
		Requests int     `json:"requests"`
		Clients  int     `json:"clients"`
		Zipf     float64 `json:"zipf_s"`
		Sources  int     `json:"sources"`
		Seed     uint64  `json:"seed"`
		Distinct int     `json:"distinct_queries"`
	} `json:"workload"`
	Before  armReport `json:"before"`
	After   armReport `json:"after"`
	Speedup struct {
		Goodput float64 `json:"goodput"`
		P50     float64 `json:"p50"`
		P99     float64 `json:"p99"`
	} `json:"speedup"`
}

func main() {
	requests := flag.Int("requests", 400, "total requests per arm")
	clients := flag.Int("clients", 16, "concurrent closed-loop clients")
	zipfS := flag.Float64("zipf", 1.1, "Zipf skew over the query population")
	sources := flag.Int("sources", 48, "distinct traversal sources in the population")
	seed := flag.Uint64("seed", 1, "schedule RNG seed")
	workers := flag.Int("workers", 4, "server worker pool size")
	queue := flag.Int("queue", 32, "server admission queue depth")
	out := flag.String("out", "", "write the JSON report here")
	baseline := flag.String("baseline", "", "compare against a checked-in report; nonzero exit on regression")
	tolerance := flag.Float64("tolerance", 0.10, "allowed relative goodput-ratio regression vs the baseline")
	flag.Parse()

	pop := bench.ServingPopulation(*sources)
	sched := bench.ZipfSchedule(pop, *requests, *zipfS, *seed)

	var rep report
	rep.Workload.Requests = *requests
	rep.Workload.Clients = *clients
	rep.Workload.Zipf = *zipfS
	rep.Workload.Sources = *sources
	rep.Workload.Seed = *seed
	distinct := map[string]bool{}
	for _, q := range sched {
		distinct[q.Name] = true
	}
	rep.Workload.Distinct = len(distinct)

	fmt.Fprintf(os.Stderr, "servebench: %d requests (%d distinct) x 2 arms, %d clients\n",
		*requests, len(distinct), *clients)
	rep.Before = runArm("before", serve.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		DisableSharing:   true,
		ResultCacheBytes: -1,
	}, sched, *clients)
	rep.After = runArm("after", serve.Config{
		Workers:    *workers,
		QueueDepth: *queue,
	}, sched, *clients)

	if rep.Before.GoodputRPS > 0 {
		rep.Speedup.Goodput = rep.After.GoodputRPS / rep.Before.GoodputRPS
	}
	if rep.After.P50Ms > 0 {
		rep.Speedup.P50 = rep.Before.P50Ms / rep.After.P50Ms
	}
	if rep.After.P99Ms > 0 {
		rep.Speedup.P99 = rep.Before.P99Ms / rep.After.P99Ms
	}

	enc, _ := json.MarshalIndent(rep, "", "  ")
	fmt.Println(string(enc))
	if *out != "" {
		if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "servebench: write %s: %v\n", *out, err)
			os.Exit(1)
		}
	}
	if *baseline != "" {
		if err := gate(rep, *baseline, *tolerance); err != nil {
			fmt.Fprintf(os.Stderr, "servebench: REGRESSION: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "servebench: within baseline tolerance")
	}
}

// runArm replays the schedule against a fresh server with closed-loop
// clients and returns the arm's stats. 429s are retried after a short
// pause and counted — shedding pain shows up in the request's latency.
func runArm(name string, cfg serve.Config, sched []bench.ServingQuery, clients int) armReport {
	srv := serve.NewServer(cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	client.Timeout = 2 * time.Minute

	var next atomic.Int64
	latencies := make([]float64, len(sched))
	var ok, errs, shedRetries atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				t0 := time.Now()
				for {
					resp, err := client.Post(ts.URL+"/run", "application/json",
						strings.NewReader(sched[i].Body))
					if err != nil {
						errs.Add(1)
						break
					}
					code := resp.StatusCode
					resp.Body.Close()
					if code == http.StatusTooManyRequests {
						shedRetries.Add(1)
						time.Sleep(2 * time.Millisecond)
						continue
					}
					if code == http.StatusOK {
						ok.Add(1)
					} else {
						errs.Add(1)
					}
					break
				}
				latencies[i] = float64(time.Since(t0).Microseconds()) / 1000
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	snap := srv.Counters().Snapshot()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %s arm shutdown: %v\n", name, err)
	}
	lat := append([]float64(nil), latencies...)
	sort.Float64s(lat)
	st := bench.SummarizeServing(lat, int(ok.Load()), int(errs.Load()), int(shedRetries.Load()), wall)
	fmt.Fprintf(os.Stderr, "servebench: %s: goodput %.1f req/s, p50 %.2fms, p99 %.2fms (coalesced=%d batched=%d hits=%d shed=%d)\n",
		name, st.GoodputRPS, st.P50Ms, st.P99Ms, snap.Coalesced, snap.Batched, snap.ResultHits, snap.Shed)
	return armReport{ServingStats: st, Counters: snap}
}

// gate compares the machine-independent goodput ratio against the
// checked-in baseline's.
func gate(rep report, path string, tol float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	var base report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse baseline: %w", err)
	}
	if base.Speedup.Goodput <= 0 {
		return fmt.Errorf("baseline has no goodput ratio")
	}
	floor := base.Speedup.Goodput * (1 - tol)
	if rep.Speedup.Goodput < floor {
		return fmt.Errorf("goodput ratio %.2fx < %.2fx (baseline %.2fx - %.0f%%)",
			rep.Speedup.Goodput, floor, base.Speedup.Goodput, tol*100)
	}
	return nil
}

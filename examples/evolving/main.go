// Evolving: mutable topology — the paper's stated future work — end to
// end, along one incremental path. Part one patches a road network batch
// by batch (graph.Patch) and repairs its shortest paths for each batch's
// inserted and deleted edges (algorithms.RepairSSSP) instead of
// recomputing them. Part two drives the same evolution through the
// serving layer: POST /mutatez appends edge batches to a crash-consistent
// write-ahead log, each commit publishes a new snapshot and bumps the
// dataset generation, the next read repairs its previous answer the same
// way, and a process restart recovers the exact state — verified here by
// comparing query checksums across the restart.
//
// main_test.go runs run() under go test, so the example is build- and
// behavior-checked in CI.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"polymer/internal/algorithms"
	"polymer/internal/core"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/mutate"
	"polymer/internal/numa"
	"polymer/internal/serve"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "evolving:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	if err := runIncremental(w); err != nil {
		return err
	}
	return runServed(w)
}

// runIncremental is the library-level half: a road network receives three
// batches of new road segments, the last with a highway between opposite
// corners, and then loses the highway again. After a cold SSSP, each batch
// patches the graph and repairs the previous distances for the batch's
// edits, touching only the affected region; every repaired answer must
// equal a full recomputation exactly.
func runIncremental(w io.Writer) error {
	n, base := gen.RoadGrid(30, 30, 11)
	g := graph.FromEdges(n, base, true)
	fmt.Fprintln(w, "road network:", g)

	machine := numa.NewMachine(numa.IntelXeon80(), 4, 4)
	e := core.MustNew(g, machine, core.DefaultOptions())
	dist, err := algorithms.SSSP(e, 0, nil)
	e.Close()
	if err != nil {
		return err
	}
	corner := graph.Vertex(n - 1)
	before := dist[corner]
	fmt.Fprintf(w, "initial corner-to-corner travel time: %.1f\n", before)

	highway := []graph.Edge{{Src: 0, Dst: corner, Wt: 7}}
	rng := gen.NewRNG(5)
	var withHighway float64
	for batch := 1; batch <= 4; batch++ {
		var deleted, appended []graph.Edge
		if batch == 4 {
			deleted = highway
		} else {
			for i := 0; i < 4; i++ {
				a := graph.Vertex(rng.Intn(n))
				b := graph.Vertex(rng.Intn(n))
				appended = append(appended,
					graph.Edge{Src: a, Dst: b, Wt: 5},
					graph.Edge{Src: b, Dst: a, Wt: 5})
			}
			if batch == 3 {
				appended = append(appended, highway...)
			}
		}
		g = g.Patch(deleted, appended)
		e = core.MustNew(g, machine, core.DefaultOptions())
		dist, err = algorithms.RepairSSSP(e, 0, dist, deleted, appended)
		e.Close()
		if err != nil {
			return err
		}
		want := algorithms.RefSSSP(g, 0)
		for v := range want {
			if dist[v] != want[v] {
				return fmt.Errorf("batch %d: repaired dist[%d] = %v diverged from recomputation %v", batch, v, dist[v], want[v])
			}
		}
		fmt.Fprintf(w, "batch %d: +%d -%d edges -> corner travel time %.1f\n",
			batch, len(appended), len(deleted), dist[corner])
		if batch == 3 {
			withHighway = dist[corner]
		}
	}
	if withHighway > before || dist[corner] <= withHighway {
		return fmt.Errorf("corner travel time %.1f -> %.1f with the highway -> %.1f without it", before, withHighway, dist[corner])
	}
	fmt.Fprintln(w, "every repaired batch verified against full recomputation ✓")
	return nil
}

// runServed is the service-level half: the same evolution driven through
// POST /mutatez, with the write-ahead log carrying the mutations across a
// process restart.
func runServed(w io.Writer) error {
	dir, err := os.MkdirTemp("", "evolving-wal-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	start := func() (*serve.Server, *httptest.Server, *mutate.Store, error) {
		st, err := mutate.Open(dir, mutate.Options{})
		if err != nil {
			return nil, nil, nil, err
		}
		srv := serve.NewServer(serve.Config{
			QueueDepth:    16,
			Workers:       2,
			DefaultBudget: time.Minute,
			DrainTimeout:  2 * time.Second,
			Mutations:     st,
		})
		return srv, httptest.NewServer(srv.Handler()), st, nil
	}
	stop := func(srv *serve.Server, ts *httptest.Server, st *mutate.Store) error {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		return st.Close()
	}

	srv, ts, st, err := start()
	if err != nil {
		return err
	}

	query := func(base string) (serve.Response, error) {
		body := `{"algo":"sssp","system":"polymer","graph":"roadUS","scale":"tiny","src":0}`
		return post(base+"/run", body)
	}
	r0, err := query(ts.URL)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nserved sssp on roadUS/tiny: checksum %.6f\n", r0.Checksum)

	// Open a new road through the serving layer: the commit is durable
	// (fsynced WAL record) before the response, and it invalidates every
	// cached result for the dataset by bumping its generation.
	mut, err := post(ts.URL+"/mutatez",
		`{"graph":"roadUS","scale":"tiny","ops":[`+
			`{"op":"insert","src":0,"dst":575,"wt":0.5},`+
			`{"op":"insert","src":575,"dst":0,"wt":0.5}]}`)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "committed mutation batch: seq %d, generation %d\n", mut.Seq, mut.Generation)

	r1, err := query(ts.URL)
	if err != nil {
		return err
	}
	if r1.Cached {
		return fmt.Errorf("post-commit query replayed a stale cached result")
	}
	if !r1.Warm {
		return fmt.Errorf("post-commit query was recomputed, not repaired from the previous answer")
	}
	if r1.Checksum == r0.Checksum {
		return fmt.Errorf("new road did not change the shortest-path checksum")
	}
	fmt.Fprintf(w, "post-commit checksum %.6f (repaired from the previous answer for the commit's edits)\n", r1.Checksum)

	// Restart the process: recovery replays the log and reproduces the
	// exact snapshot, so the query answer is bit-identical.
	if err := stop(srv, ts, st); err != nil {
		return err
	}
	srv, ts, st, err = start()
	if err != nil {
		return err
	}
	defer func() { _ = stop(srv, ts, st) }()
	r2, err := query(ts.URL)
	if err != nil {
		return err
	}
	if r2.Checksum != r1.Checksum {
		return fmt.Errorf("recovered checksum %.6f != pre-restart %.6f", r2.Checksum, r1.Checksum)
	}
	fmt.Fprintln(w, "restart recovered the mutated snapshot bit-identically ✓")
	return nil
}

// post sends a JSON body and decodes the service response, failing on any
// non-2xx status.
func post(url, body string) (serve.Response, error) {
	var out serve.Response
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, err
	}
	if resp.StatusCode/100 != 2 {
		return out, fmt.Errorf("POST %s: %s: %s", url, resp.Status, raw)
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return out, fmt.Errorf("POST %s: decoding %q: %w", url, raw, err)
	}
	return out, nil
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"polymer/internal/bench"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/mutate"
	"polymer/internal/serve"
)

const (
	zipfS = 1.1
	// hotBlock requests (~10 ms of work) run between two calibration
	// slices on serve-hot; churnBlock schedule entries (~0.1 s) on
	// serve-churn, where both clients must stop for the slice. The last
	// entry of every churn block is a /mutatez batch of mutateOps ops,
	// three inserts to one delete of an earlier insert, so one entry in
	// eight is a write and no two writes are ever in flight together.
	hotBlock   = 1000
	churnBlock = 8
	mutateOps  = 32
	// hotWindow requests (~1.5 ms) make one of serve-hot's samples; the
	// first hotSpans requests of a traced block get spans.
	hotWindow = 200
	hotSpans  = 20
	// churnPreload batches are committed in set-up, so the cold responses,
	// which the simulated-clock metrics are read from, run on a mutated
	// snapshot that depends on the seed and not on --seconds.
	churnPreload = 4
	churnClients = 2
)

// query is one /run body with what the benchmark knows about it.
type query struct {
	body   []byte
	algo   string
	src    uint32
	system string // "" = left to the planner
	pair   string // same query on another engine shares this key
	// needle is the `"checksum":<digits>,` text of the cold response; a
	// cached replay must carry the same bytes.
	needle []byte
	cold   serve.Response
}

func runBody(algo, system, dataset, scale string, src uint32) []byte {
	b := fmt.Sprintf(`{"algo":%q,"graph":%q,"scale":%q,"src":%d`, algo, dataset, scale, src)
	if system != "" {
		b += fmt.Sprintf(`,"system":%q`, system)
	}
	return []byte(b + "}")
}

// pointSources picks n traversal sources from the seed among vertices
// whose searches cost about the same, so that the workload's simulated
// and host clocks depend on the seed only slightly: on the power-law
// dataset the 32 vertices of highest out-degree (point queries start at
// hubs), on the road grid the 2x2 blocks of the two corners that its
// diagonal shortcuts cannot bring closer.
func pointSources(seed uint64, dataset gen.Dataset, scale gen.Scale, n int) []uint32 {
	nv, err := gen.NumVertices(dataset, scale)
	if err != nil {
		panic(err)
	}
	rng := gen.NewRNG(seed ^ uint64(len(dataset))<<32)
	var pool []uint32
	if dataset == gen.RoadUS {
		pool = antiDiagonalCorners(int(math.Round(math.Sqrt(float64(nv)))))
	} else {
		g, err := gen.Load(dataset, scale, false)
		if err != nil {
			panic(err)
		}
		pool = make([]uint32, nv)
		for i := range pool {
			pool[i] = uint32(i)
		}
		sort.SliceStable(pool, func(a, b int) bool { return g.OutDegree(pool[a]) > g.OutDegree(pool[b]) })
		pool = pool[:32]
	}
	return pick(rng, pool, n)
}

var scaleByName = map[string]gen.Scale{"tiny": gen.Tiny, "small": gen.Small}

// hotPopulation is serve-hot's 54 distinct bodies in popularity order:
// PageRank on every engine and on the planner's pick, SpMV, then BFS and
// SSSP point queries from seed-derived sources (see pointSources), on two
// datasets.
func hotPopulation(seed uint64, scale string) []query {
	var pop []query
	add := func(algo, system, dataset string, src uint32) {
		pop = append(pop, query{
			body: runBody(algo, system, dataset, scale, src), algo: algo, src: src, system: system,
			pair: fmt.Sprintf("%s/%s/%d", algo, dataset, src),
		})
	}
	datasets := []gen.Dataset{gen.PowerLaw, gen.RoadUS}
	for _, d := range datasets {
		for _, sys := range []string{"", "polymer", "ligra", "xstream", "galois"} {
			add("pr", sys, string(d), 0)
		}
	}
	for _, d := range datasets {
		for _, sys := range []string{"polymer", "ligra"} {
			add("spmv", sys, string(d), 0)
		}
	}
	for _, d := range datasets {
		srcs := pointSources(seed, d, scaleByName[scale], 4)
		for _, src := range srcs {
			for _, sys := range []string{"", "polymer", "ligra"} {
				add("bfs", sys, string(d), src)
			}
		}
		for _, src := range srcs {
			for _, sys := range []string{"polymer", "ligra"} {
				add("sssp", sys, string(d), src)
			}
		}
	}
	return pop
}

// churnPopulation is serve-churn's 24 read queries on the one dataset
// that is being mutated, in the order churnReads indexes them: three
// PageRanks, then BFS on Polymer, BFS on Ligra and SSSP from each of seven
// sources.
func churnPopulation(seed uint64, scale string) []query {
	d := string(gen.PowerLaw)
	var pop []query
	add := func(algo, system string, src uint32) {
		pop = append(pop, query{
			body: runBody(algo, system, d, scale, src), algo: algo, src: src, system: system,
			pair: fmt.Sprintf("%s/%d", algo, src),
		})
	}
	for _, sys := range []string{"polymer", "ligra", ""} {
		add("pr", sys, 0)
	}
	srcs := pointSources(seed, gen.PowerLaw, scaleByName[scale], 7)
	for _, sys := range []string{"polymer", "ligra"} {
		for _, src := range srcs {
			add("bfs", sys, src)
		}
	}
	for _, src := range srcs {
		add("sssp", "polymer", src)
	}
	return pop
}

// population builds a serve workload's queries. It loads a dataset to
// find its hubs, so it is called once per process and outside any timed
// section; each set-up works on its own copy.
func population(seed uint64, scale string, churn bool) []query {
	if churn {
		return churnPopulation(seed, scale)
	}
	return hotPopulation(seed, scale)
}

// zipf draws ranks with P(i) ~ 1/(i+1)^s by inverse CDF.
type zipf struct {
	cdf []float64
	rng *gen.RNG
}

func newZipf(n int, s float64, seed uint64) *zipf {
	z := &zipf{cdf: make([]float64, n), rng: gen.NewRNG(seed)}
	total := 0.0
	for i := range z.cdf {
		total += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = total
	}
	return z
}

func (z *zipf) next() int {
	u := z.rng.Float64() * z.cdf[len(z.cdf)-1]
	return min(sort.SearchFloat64s(z.cdf, u), len(z.cdf)-1)
}

// churnReads is the seven reads of serve-churn's block number b, as
// indexes into churnPopulation: PageRank on Polymer twice (the second a
// hit, or coalesced), on Ligra, and on the planner's pick (which shares
// one of those two cache entries), then one BFS on each engine and one
// SSSP from the b-th of the seven sources in turn; the seed's generator
// orders them. Every block therefore holds the same kinds of work. An
// earlier version drew the reads Zipf(1.1) from the 24 queries: blocks
// with an SSSP, which must also rebuild the weighted snapshot, took
// 107 ms and blocks without 85 ms, three in eight were of the first kind,
// and the median block landed on one side or the other by the seed's
// luck — op_p50_ms had a spread of 14 %.
func churnReads(b int, rng *gen.RNG) []int {
	const prs, sources = 3, 7
	src := b % sources
	reads := []int{0, 0, 1, 2, prs + src, prs + sources + src, prs + 2*sources + src}
	return pick(rng, reads, len(reads))
}

// mutationStream generates /mutatez batches: inserts of random edges and
// deletes of edges an earlier batch inserted, so every op applies.
type mutationStream struct {
	rng      *gen.RNG
	n        int
	dataset  string
	scale    string
	inserted []mutate.Op // live inserts from earlier batches
	all      []mutate.Op // everything generated so far, in order
}

func newMutationStream(seed uint64, dataset gen.Dataset, scale string) *mutationStream {
	n, err := gen.NumVertices(dataset, scaleByName[scale])
	if err != nil {
		panic(err)
	}
	return &mutationStream{rng: gen.NewRNG(seed ^ 0x6d757461), n: n, dataset: string(dataset), scale: scale}
}

func (s *mutationStream) next() (body []byte, ops []mutate.Op) {
	var fresh []mutate.Op
	wire := make([]serve.MutationOp, 0, mutateOps)
	for i := 0; i < mutateOps; i++ {
		if i%4 == 3 && len(s.inserted) > 0 {
			j := s.rng.Intn(len(s.inserted))
			op := s.inserted[j]
			s.inserted[j] = s.inserted[len(s.inserted)-1]
			s.inserted = s.inserted[:len(s.inserted)-1]
			op.Kind = mutate.OpDelete
			ops = append(ops, op)
			wire = append(wire, serve.MutationOp{Op: "delete", Src: op.Src, Dst: op.Dst})
			continue
		}
		op := mutate.Op{
			Kind: mutate.OpInsert,
			Src:  graph.Vertex(s.rng.Intn(s.n)), Dst: graph.Vertex(s.rng.Intn(s.n)),
			Wt: float32(s.rng.Intn(99) + 1),
		}
		ops = append(ops, op)
		fresh = append(fresh, op)
		wire = append(wire, serve.MutationOp{Op: "insert", Src: op.Src, Dst: op.Dst, Wt: op.Wt})
	}
	s.inserted = append(s.inserted, fresh...)
	s.all = append(s.all, ops...)
	body, err := json.Marshal(serve.MutationRequest{Graph: s.dataset, Scale: s.scale, Ops: wire})
	if err != nil {
		panic(err)
	}
	return body, ops
}

// client drives the server's handler in process: no sockets, so the
// kernel's loopback path is not part of any number. It reuses its
// request and response buffers; what it allocates per call is one
// shallow request copy.
type client struct {
	h    http.Handler
	run  *http.Request
	mut  *http.Request
	body bodyReader
	w    respWriter
}

type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

type respWriter struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
}

func (w *respWriter) Header() http.Header         { return w.hdr }
func (w *respWriter) WriteHeader(status int)      { w.status = status }
func (w *respWriter) Write(b []byte) (int, error) { return w.buf.Write(b) }

func newClient(h http.Handler) *client {
	mk := func(path string) *http.Request {
		r, err := http.NewRequest(http.MethodPost, path, nil)
		if err != nil {
			panic(err)
		}
		return r
	}
	return &client{h: h, run: mk("/run"), mut: mk("/mutatez"), w: respWriter{hdr: make(http.Header)}}
}

// post sends one body and returns the status and the response bytes,
// which stay valid until the next post.
func (c *client) post(tmpl *http.Request, body []byte) (int, []byte) {
	r := *tmpl
	c.body.Reset(body)
	r.Body = &c.body
	r.ContentLength = int64(len(body))
	clear(c.w.hdr)
	c.w.status = http.StatusOK
	c.w.buf.Reset()
	c.h.ServeHTTP(&c.w, &r)
	return c.w.status, c.w.buf.Bytes()
}

// served is a running server with everything set-up produced.
type served struct {
	scale  string
	srv    *serve.Server
	store  *mutate.Store // nil on serve-hot
	walDir string
	pop    []query
	stream *mutationStream
	cli    *client
	seq    uint64 // last committed mutation sequence number
	// coldMs are the set-up's first executions, every one a miss, each
	// scaled by the calibration slice taken last before it.
	coldMs []float32
}

func (s *served) close() {
	if s == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		logf("server shutdown: %v", err)
	}
	if s.store != nil {
		if err := s.store.Close(); err != nil {
			logf("mutation store close: %v", err)
		}
		os.RemoveAll(s.walDir)
	}
}

var walSeq atomic.Int64

// walRoot holds the mutation stores' logs. It is inside the directory
// the benchmark was started from, which is all it may write to.
const walRoot = ".bench_build"

// setupServe starts a server and executes every query of the population
// once, so each later request for it can be a result-cache hit. With
// churn it first opens a WAL-backed mutation store and commits
// churnPreload batches through /mutatez.
func setupServe(e *env, pop []query, scale string, churn bool, parent int, sw *stopwatch) (*served, error) {
	s := &served{scale: scale, pop: slices.Clone(pop)}
	var err error
	sw.lap(func() { err = s.start(e, churn, parent) })
	if err != nil {
		s.close()
		return nil, err
	}
	for i := range s.pop {
		q := &s.pop[i]
		var (
			status int
			raw    []byte
		)
		sw.lap(func() {
			sp := e.rec.begin("serve.miss", parent, 0)
			start := time.Now()
			status, raw = s.cli.post(s.cli.run, q.body)
			s.coldMs = append(s.coldMs, float32(ms(time.Since(start))*e.cal.factor))
			e.rec.end(sp)
		})
		if err := json.Unmarshal(raw, &q.cold); err != nil || status != http.StatusOK || q.cold.Error != "" {
			s.close()
			return nil, fmt.Errorf("cold %s: status %d: %s", q.body, status, raw)
		}
		sum, _ := json.Marshal(q.cold.Checksum)
		q.needle = []byte(`"checksum":` + string(sum) + `,`)
	}
	return s, nil
}

// start opens the mutation store (churn only) and the server, and on
// churn commits the preload batches.
func (s *served) start(e *env, churn bool, parent int) error {
	cfg := serve.Config{DisableLearning: true}
	if churn {
		s.walDir = filepath.Join(walRoot, fmt.Sprintf("wal-%d-%d", os.Getpid(), walSeq.Add(1)))
		if err := os.MkdirAll(s.walDir, 0o755); err != nil {
			return err
		}
		store, err := mutate.Open(s.walDir, mutate.Options{})
		if err != nil {
			return fmt.Errorf("open mutation store: %w", err)
		}
		s.store, cfg.Mutations = store, store
		s.stream = newMutationStream(e.seed, gen.PowerLaw, s.scale)
	}
	s.srv = serve.NewServer(cfg)
	s.cli = newClient(s.srv.Handler())
	for i := 0; churn && i < churnPreload; i++ {
		if _, ok := s.mutate(e, parent); !ok {
			return fmt.Errorf("preload mutation batch %d failed", i)
		}
	}
	return nil
}

// mutate commits the stream's next batch and checks the ack: status 200
// and a sequence number one past the last.
func (s *served) mutate(e *env, parent int) (time.Duration, bool) {
	body, _ := s.stream.next()
	sp := e.rec.begin("serve.mutate", parent, 0)
	start := time.Now()
	status, raw := s.cli.post(s.cli.mut, body)
	d := time.Since(start)
	e.rec.end(sp)
	var resp serve.Response
	if err := json.Unmarshal(raw, &resp); err != nil || status != http.StatusOK || resp.Seq != s.seq+1 {
		logf("mutation failed: status %d: %s", status, raw)
		return d, false
	}
	s.seq = resp.Seq
	return d, true
}

// simFromPopulation reads the simulated clock off the cold responses:
// every explicitly-Polymer query against the same query on Ligra. SSSP is
// left out: its relaxation order, and so its clock, depends on goroutine
// scheduling (ROADMAP's first open item), which is not what these metrics
// are for.
func (s *served) simFromPopulation(m *metricSet) {
	ligra := make(map[string]float64)
	for _, q := range s.pop {
		if q.system == "ligra" && q.algo != "sssp" {
			ligra[q.pair] = q.cold.SimSeconds
		}
	}
	var pol, lig float64
	var peak int64
	for _, q := range s.pop {
		if l, ok := ligra[q.pair]; ok && q.system == "polymer" {
			pol += q.cold.SimSeconds
			lig += l
			peak = max(peak, q.cold.PeakBytes)
		}
	}
	setSim(m, pol, lig, peak)
}

var cachedNeedle = []byte(`"cached":true`)

// measureHot replays the Zipf schedule from one closed-loop client. By
// construction every request is a result-cache hit; a response that is
// not one, or whose checksum differs from the cold run's, is a failed op.
func (s *served) measureHot(e *env, p *phase, blocks int) {
	p.newEpoch(blocks * hotBlock / hotWindow)
	if p.hist == nil {
		p.hist = new(histogram)
	}
	z := newZipf(len(s.pop), zipfS, e.seed^0x7a697066)
	raws := make([]time.Duration, hotBlock)
	before := p.slice()
	for block := 0; block < blocks; block++ {
		e.alternate(block)
		var busy time.Duration
		a0 := allocBytes()
		for i := range raws {
			q := &s.pop[z.next()]
			rec := e.rec
			if i >= hotSpans {
				rec = nil // a few spans a block say all there is to say
			}
			e.opSeq++
			sp := rec.begin("serve.hit", noSpan, e.opSeq)
			start := time.Now()
			status, raw := s.cli.post(s.cli.run, q.body)
			raws[i] = time.Since(start)
			rec.end(sp)
			busy += raws[i]
			if status != http.StatusOK || !bytes.Contains(raw, q.needle) || !bytes.Contains(raw, cachedNeedle) {
				p.failed++
			}
		}
		p.alloc += allocBytes() - a0
		p.attempted += len(raws)
		after := p.slice()
		// Two million requests a run are kept as a histogram, for the p95,
		// and as one sample per window of hotWindow: the window's median.
		// Keeping every request cost 12 bytes each, which by the end of a
		// run was more live heap than the server's own and halved how often
		// the collector ran — the benchmark changing what it measured, by
		// an amount that depended on how fast the run was.
		factor := factorFor((before + after) / 2)
		for _, raw := range raws {
			p.hist.add(ms(raw) * factor)
		}
		// The requests that carried spans on a traced block, against the
		// same few of an untraced one.
		head := slices.Clone(raws[:hotSpans])
		slices.Sort(head)
		p.compare(float32(ms(scale(head[rank(hotSpans, 50)-1], before, after))), e.rec != nil)
		for w := 0; w < len(raws); w += hotWindow {
			win := raws[w : w+hotWindow]
			slices.Sort(win)
			p.add(win[rank(hotWindow, 50)-1], before, after)
		}
		p.busy(busy, before, after)
		before = after
	}
}

// churnEntry is one schedule entry's outcome.
type churnEntry struct {
	raw    time.Duration
	kind   string // serve.hit, serve.miss or serve.mutate
	failed bool
}

// measureChurn consumes `blocks` blocks of one deterministic schedule, each
// from a cursor shared by two closed-loop clients. The last entry of each block
// commits a batch; the rest are the reads churnReads lays out, most of
// them misses because the commit before them retired every cached result.
// It returns the entries' calibrated latencies by kind.
func (s *served) measureChurn(e *env, p *phase, blocks int) map[string][]float32 {
	p.newEpoch(blocks)
	byKind := make(map[string][]float32)
	order := gen.NewRNG(e.seed ^ 0x63687572)
	clients := make([]*client, churnClients)
	for i := range clients {
		clients[i] = newClient(s.srv.Handler())
	}
	before := p.slice()
	for done := 0; done < blocks*churnBlock; done += churnBlock {
		// Generate the block's entries up front: mutation bodies depend
		// on the order they are generated in, not on who sends them.
		bodies := make([][]byte, churnBlock)
		ranks := append(churnReads(done/churnBlock, order), -1)
		for i, r := range ranks {
			if r < 0 {
				bodies[i], _ = s.stream.next()
			} else {
				bodies[i] = s.pop[r].body
			}
		}
		e.alternate(done / churnBlock)
		out := make([]churnEntry, churnBlock)
		var cursor atomic.Int64
		var wg sync.WaitGroup
		blockSpan := e.rec.begin("block", noSpan, int64(done))
		a0 := allocBytes()
		start := time.Now()
		for _, c := range clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				for i := int(cursor.Add(1)) - 1; i < churnBlock; i = int(cursor.Add(1)) - 1 {
					out[i] = s.churnOp(e, c, bodies[i], i == churnBlock-1, blockSpan, int64(done+i))
				}
			}(c)
		}
		wg.Wait()
		blockRaw := time.Since(start)
		p.alloc += allocBytes() - a0
		e.rec.end(blockSpan)
		after := p.slice()
		// The op is the block: seven reads and the write that retires
		// them. One entry's latency is anything from a 10 us hit to a 60 ms
		// snapshot rebuild, and a percentile of that mix sits on the edge
		// between two kinds of entry; the block's wall time is their sum.
		p.compare(p.add(blockRaw, before, after), e.rec != nil)
		p.busy(blockRaw, before, after)
		p.attempted++
		blockFailed := false
		for _, o := range out {
			byKind[o.kind] = append(byKind[o.kind], float32(ms(scale(o.raw, before, after))))
			blockFailed = blockFailed || o.failed
		}
		if blockFailed {
			p.failed++
		}
		before = after
	}
	return byKind
}

func (s *served) churnOp(e *env, c *client, body []byte, isMutation bool, parent int, op int64) churnEntry {
	tmpl, name := c.run, "serve.run"
	if isMutation {
		tmpl, name = c.mut, "serve.mutate"
	}
	sp := e.rec.begin(name, parent, op)
	start := time.Now()
	status, raw := c.post(tmpl, body)
	d := time.Since(start)
	e.rec.end(sp)
	var resp serve.Response
	err := json.Unmarshal(raw, &resp)
	out := churnEntry{raw: d, kind: "serve.miss", failed: err != nil || status != http.StatusOK || resp.Error != ""}
	switch {
	case isMutation:
		out.kind = "serve.mutate"
		out.failed = out.failed || resp.Seq != s.seq+1
		s.seq = resp.Seq
	case resp.Cached:
		out.kind = "serve.hit"
	}
	if out.failed {
		logf("churn op failed: status %d: %s", status, raw)
	}
	return out
}

// checkOracle asks the server one BFS and one PageRank after the last
// commit and compares them with a direct engine run on the graph the
// clean-apply oracle builds from the same ops.
func (s *served) checkOracle(p *phase) error {
	base, err := gen.Load(gen.PowerLaw, scaleByName[s.scale], false)
	if err != nil {
		return err
	}
	oracle := graph.FromEdges(base.NumVertices(), mutate.ApplyOps(mutate.Flatten(base), s.stream.all), false)
	src := s.pop[len(s.pop)-1].src
	for _, c := range []struct {
		algo string
		alg  bench.Algo
		tol  float64
	}{{"bfs", bench.BFS, 0}, {"pr", bench.PR, 1e-9}} {
		status, raw := s.cli.post(s.cli.run, runBody(c.algo, "polymer", string(gen.PowerLaw), s.scale, src))
		var resp serve.Response
		if err := json.Unmarshal(raw, &resp); err != nil {
			return err
		}
		want := bench.RunFrom(bench.Polymer, c.alg, oracle, newMachine(), src).Checksum
		if status != http.StatusOK || math.Abs(resp.Checksum-want) > c.tol*math.Abs(want) {
			// A wrong answer is one more op, failed.
			p.attempted++
			p.failed++
			logf("oracle mismatch after %d ops: %s checksum %v, oracle %v", len(s.stream.all), c.algo, resp.Checksum, want)
		}
	}
	return nil
}

// A serve workload builds three servers. Each is set up cold (that is
// setup_s: the median of the three) and then measured for a third of the
// ops, so a run sees three memory layouts, not one. An op is a block: a
// thousand requests on serve-hot, eight on serve-churn.
var (
	hotSize   = sizing{epochs: 3, opsPerSecond: 29}
	churnSize = sizing{epochs: 3, opsPerSecond: 2.85}
)

func runServeWorkload(churn bool, e *env, m *metricSet) (*phase, error) {
	pop := population(e.seed, "small", churn)
	size := hotSize
	if churn {
		size = churnSize
	}
	blocks := size.opsPerEpoch(e.seconds)
	p := &phase{cal: e.cal}
	var setupCal, setupRaw []float64
	for ep := 0; ep < size.epochs; ep++ {
		runtime.GC()
		sw := newStopwatch(e.cal)
		s, err := setupServe(e, pop, "small", churn, noSpan, sw)
		if err != nil {
			return nil, err
		}
		setupCal, setupRaw = append(setupCal, sw.sum.Seconds()), append(setupRaw, sw.raw.Seconds())
		if churn {
			s.measureChurn(e, p, blocks)
			err = s.checkOracle(p)
		} else {
			s.measureHot(e, p, blocks)
		}
		// The simulated clock reads the same off every epoch's cold runs.
		s.simFromPopulation(m)
		s.close()
		if err != nil {
			return nil, err
		}
	}
	logf(`raw {"setup_s": %v}`, median(setupRaw))
	m.set("setup_s", median(setupCal), "s")
	return p, p.endToEnd(m)
}

package polymer_test

// Regression guards for the hot-path overhaul:
//
//   - steady-state EdgeMap/VertexMap iterations allocate nothing: the
//     phase-scoped scratch arenas are reused, phase closures stay on the
//     stack (par.Pool.Run), and a frontier handed back to its engine
//     (sg.ReleaseFrontier) lends its storage to the next one built;
//   - two identical runs must produce bit-identical simulated times — the
//     host-side optimisations (scratch reuse, row kernels, cached
//     degrees) must never leak into the simulated clock.

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"polymer/internal/algorithms"
	"polymer/internal/bench"
	"polymer/internal/core"
	"polymer/internal/engines/galois"
	"polymer/internal/engines/ligra"
	"polymer/internal/engines/xstream"
	"polymer/internal/gen"
	"polymer/internal/graph"
	"polymer/internal/mutate"
	"polymer/internal/numa"
	"polymer/internal/serve"
	"polymer/internal/sg"
	"polymer/internal/state"
)

// allocBudgetPerIteration bounds the steady-state allocations of one full
// PageRank iteration (EdgeMap + VertexMap). Nothing is left: the phase
// closures stay on the stack, and the empty subset a NoOutput EdgeMap
// returns is handed back and reused. Before the scratch arenas the same
// loop allocated several hundred objects per iteration, and before the
// hand-back 32 were allowed.
const allocBudgetPerIteration = 0

func regressionMachine() *numa.Machine {
	topo := numa.IntelXeon80()
	return numa.NewMachine(topo, topo.Sockets, topo.CoresPerSocket)
}

func regressionGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := bench.LoadDataset(gen.Twitter, gen.Tiny, bench.PR)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPolymerPRIterationAllocs(t *testing.T) {
	g := regressionGraph(t)
	opt := core.DefaultOptions()
	opt.Mode = core.Push
	e := core.MustNew(g, regressionMachine(), opt)
	defer e.Close()
	iterate := algorithms.PRIteration(e, 0.85)
	iterate() // warm up: layouts, scratch arenas
	iterate()
	allocs := testing.AllocsPerRun(10, iterate)
	if allocs > allocBudgetPerIteration {
		t.Fatalf("steady-state PageRank iteration allocated %.0f objects, budget %d",
			allocs, allocBudgetPerIteration)
	}
}

func TestLigraPRIterationAllocs(t *testing.T) {
	g := regressionGraph(t)
	e := ligra.MustNew(g, regressionMachine(), ligra.DefaultOptions())
	defer e.Close()
	iterate := algorithms.PRIteration(e, 0.85)
	iterate()
	iterate()
	allocs := testing.AllocsPerRun(10, iterate)
	if allocs > allocBudgetPerIteration {
		t.Fatalf("steady-state Ligra iteration allocated %.0f objects, budget %d",
			allocs, allocBudgetPerIteration)
	}
}

// TestXStreamPRIterationAllocs bounds a warm X-Stream PageRank iteration
// over the full frontier on narrow tiles: the active bitmaps
// double-buffer and the phase closures stay on the stack, and StreamBlock
// gathers each block as it streams it, so an update list or a closure
// made per block or per tile would show. One more Iterate allocates
// nothing.
func TestXStreamPRIterationAllocs(t *testing.T) {
	g := regressionGraph(t)
	t.Run("block", func(t *testing.T) {
		opt := xstream.DefaultOptions()
		opt.TileVertices = 64
		e := xstream.MustNew(g, regressionMachine(), opt, algorithms.PRHints())
		defer e.Close()
		if e.Tiles() < 4 {
			t.Fatalf("%d tiles: too few for the budget to notice per-tile allocations", e.Tiles())
		}
		k := algorithms.NewXSKernels(e)["pr"].Kernel
		iterate := func() {
			e.SetAllActive()
			e.Iterate(k, nil)
		}
		iterate()
		iterate() // the second active bitmap
		if allocs := testing.AllocsPerRun(10, iterate); allocs > allocBudgetPerIteration {
			t.Fatalf("steady-state X-Stream iteration allocated %.0f objects, budget %d",
				allocs, allocBudgetPerIteration)
		}
	})
}

// TestSimSecondsDeterministic runs the same workload on fresh engines —
// push PageRank on Polymer, then SSSP, the traversal whose relaxation
// counts used to follow the host schedule, on every engine — and requires
// bit-identical simulated times, access ledgers and values. A phase runs
// on one goroutine in a fixed order (package par), so any divergence means
// host-side state leaked into the values or the simulated clock.
func TestSimSecondsDeterministic(t *testing.T) {
	same := func(t *testing.T, runs int, run func() (float64, numa.Stats, []float64)) {
		s1, st1, r1 := run()
		for i := 1; i < runs; i++ {
			s2, st2, r2 := run()
			if math.Float64bits(s1) != math.Float64bits(s2) || st1 != st2 {
				t.Fatalf("simulated time drifted across identical runs: %x %+v vs %x %+v", s1, st1, s2, st2)
			}
			for v := range r1 {
				if math.Float64bits(r1[v]) != math.Float64bits(r2[v]) {
					t.Fatalf("value[%d] drifted across identical runs: %x vs %x", v, r1[v], r2[v])
				}
			}
		}
	}
	t.Run("polymer/push-pr", func(t *testing.T) {
		g := regressionGraph(t)
		same(t, 20, func() (float64, numa.Stats, []float64) {
			opt := core.DefaultOptions()
			opt.Mode = core.Push
			e := core.MustNew(g, regressionMachine(), opt)
			defer e.Close()
			ranks := algorithms.PageRank(e, 10, 0.85)
			return e.SimSeconds(), e.RunStats(), ranks
		})
	})
	g, err := bench.LoadDataset(gen.Twitter, gen.Tiny, bench.SSSP)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []bench.System{bench.Polymer, bench.Ligra, bench.XStream, bench.Galois} {
		t.Run(string(sys)+"/sssp", func(t *testing.T) {
			same(t, 5, func() (float64, numa.Stats, []float64) {
				r := bench.RunFrom(sys, bench.SSSP, g, regressionMachine(), 0)
				return r.SimSeconds, r.Stats, r.Out.Widen()
			})
		})
	}
}

// claimAll is BFS's kernel without its memory: every edge passes Cond and
// claims its target, so one frontier yields the same sparse superstep on
// every call.
type claimAll struct{}

func (claimAll) Update(s, d graph.Vertex, w float32) bool { return true }
func (claimAll) Cond(graph.Vertex) bool                   { return true }

// claimRows is claimAll with the sparse push row form (sg.SparseRowKernel):
// every target of a row passes Cond, is claimed and is appended.
type claimRows struct{ claimAll }

func (claimRows) PushRow(_ graph.Vertex, cols []graph.Vertex, _ []float32, out []graph.Vertex) (int64, []graph.Vertex) {
	return int64(len(cols)), append(out, cols...)
}

// sparseSuperstepAllocs counts the objects one sparse EdgeMap of k
// allocates on e: a road-grid BFS level, 64 active vertices out of 3600,
// queue collection.
func sparseSuperstepAllocs(t *testing.T, k sg.EdgeKernel, newEngine func(*graph.Graph) sg.Engine) float64 {
	t.Helper()
	n, edges := gen.RoadGrid(60, 60, 7)
	e := newEngine(graph.FromEdges(n, edges, false))
	defer e.Close()
	vs := make([]graph.Vertex, 64)
	for i := range vs {
		vs[i] = graph.Vertex(i * (n / len(vs)))
	}
	frontier := state.FromVertices(e.Bounds(), vs)
	step := func() {
		out := e.EdgeMap(frontier, k, sg.Hints{DataBytes: 4})
		if out.Dense() || out.IsEmpty() {
			t.Fatalf("superstep built a dense or empty frontier (%d active)", out.Count())
		}
		sg.ReleaseFrontier(e, out)
	}
	step() // warm up: layouts, scratch arenas, queue capacity
	step()
	return testing.AllocsPerRun(10, step)
}

// sparseSuperstepAllocBudget bounds one sparse superstep whose returned
// Subset is handed back: nothing. The builder, its per-thread queue table
// and degree counters come from the engine's scratch, the per-part queues
// and chunk starts of the frontier's scatter too, the returned Subset's
// header, list table and backing array from the subset handed back, and
// the phase epoch folds in place; the phase closure stays on the stack. A
// queue table allocated per phase — 2 KB at 80 threads, once for each of
// a road-grid BFS's ~400 supersteps — is one object over. Finding the row
// form (claimRows) must add nothing either.
const sparseSuperstepAllocBudget = 0

// sparseKernels are the sparse superstep's kernels: per edge, and through
// the row form.
var sparseKernels = map[string]sg.EdgeKernel{"per-edge": claimAll{}, "row": claimRows{}}

func TestPolymerSparseSuperstepAllocs(t *testing.T) {
	for name, k := range sparseKernels {
		allocs := sparseSuperstepAllocs(t, k, func(g *graph.Graph) sg.Engine {
			return core.MustNew(g, regressionMachine(), core.DefaultOptions())
		})
		if allocs > sparseSuperstepAllocBudget {
			t.Fatalf("%s: sparse superstep allocated %.0f objects, budget %d", name, allocs, sparseSuperstepAllocBudget)
		}
	}
}

func TestLigraSparseSuperstepAllocs(t *testing.T) {
	for name, k := range sparseKernels {
		allocs := sparseSuperstepAllocs(t, k, func(g *graph.Graph) sg.Engine {
			return ligra.MustNew(g, regressionMachine(), ligra.DefaultOptions())
		})
		if allocs > sparseSuperstepAllocBudget {
			t.Fatalf("%s: sparse superstep allocated %.0f objects, budget %d", name, allocs, sparseSuperstepAllocBudget)
		}
	}
}

// pullSuperstepAllocs counts the objects one dense pull superstep of BFS
// and of SSSP allocates on e: a weighted power-law graph, every third
// vertex active, so each row tests the frontier leaf and the phase goes
// dense by active degree. SSSP's pull walks each segment as one edge loop
// (sg.RowCursor), over Polymer's short per-node rows and Ligra's CSR rows
// alike.
func pullSuperstepAllocs(t *testing.T, newEngine func(*graph.Graph) sg.Engine) (bfs, sssp float64) {
	t.Helper()
	n, edges := gen.Powerlaw(3000, 8, 2.0, 7)
	gen.AddRandomWeights(edges, 11)
	e := newEngine(graph.FromEdges(n, edges, true))
	defer e.Close()
	sources := make([]graph.Vertex, 0, n/3)
	for v := 0; v < n; v += 3 {
		sources = append(sources, graph.Vertex(v))
	}
	measure := func(sssp bool) float64 {
		superstep := algorithms.TraversalSuperstep(e, sssp, sources)
		step := func() {
			out := superstep()
			if !out.Dense() || out.IsEmpty() {
				t.Fatalf("sssp=%v: superstep built a sparse or empty frontier (%d active)", sssp, out.Count())
			}
			sg.ReleaseFrontier(e, out)
		}
		step() // warm up: pull layout, scratch arenas
		step()
		return testing.AllocsPerRun(10, step)
	}
	return measure(false), measure(true)
}

// The pull superstep budgets are nothing: the returned Subset, its leaf
// table and bitmap leaves (one per NUMA node on Polymer, one on Ligra) are
// the storage of the subset handed back, and the phase closure stays on
// the stack; before the hand-back they were 11 and 4 objects. Finding
// sg.PullRowKernel must add nothing — a struct-valued kernel would be
// boxed once per phase (sg.RowKernelOf), one object over — and neither may
// the hit list a segment returns, which the engine sizes once.
const (
	polymerPullSuperstepAllocBudget = 0
	ligraPullSuperstepAllocBudget   = 0
)

func TestPolymerPullSuperstepAllocs(t *testing.T) {
	bfs, sssp := pullSuperstepAllocs(t, func(g *graph.Graph) sg.Engine {
		return core.MustNew(g, regressionMachine(), core.DefaultOptions())
	})
	if bfs > polymerPullSuperstepAllocBudget || sssp > polymerPullSuperstepAllocBudget {
		t.Fatalf("dense pull superstep allocated %.0f (BFS) and %.0f (SSSP) objects, budget %d", bfs, sssp, polymerPullSuperstepAllocBudget)
	}
}

func TestLigraPullSuperstepAllocs(t *testing.T) {
	bfs, sssp := pullSuperstepAllocs(t, func(g *graph.Graph) sg.Engine {
		return ligra.MustNew(g, regressionMachine(), ligra.DefaultOptions())
	})
	if bfs > ligraPullSuperstepAllocBudget || sssp > ligraPullSuperstepAllocBudget {
		t.Fatalf("dense pull superstep allocated %.0f (BFS) and %.0f (SSSP) objects, budget %d", bfs, sssp, ligraPullSuperstepAllocBudget)
	}
}

// TestPRRerunAllocs bounds the bytes a PageRank rerun allocates on a
// reused engine of each family. The first run hands its vertex arrays back
// (sg.NewArray, Galois's kept second buffer), so the second allocates the
// n ranks it returns and little else: the budget is those n x 8 bytes plus
// 10 %. An engine that allocates its arrays afresh on every run takes
// about three times that.
// rerunIters is the paper's PageRank iteration count.
const rerunIters = 5

func TestPRRerunAllocs(t *testing.T) {
	n, edges := gen.RMAT(14, 8, 7)
	g := graph.FromEdges(n, edges, false)
	budget := uint64(n) * 8 * 11 / 10
	engines := map[string]func(m *numa.Machine) (run func() []float64, close func()){
		"polymer": func(m *numa.Machine) (func() []float64, func()) {
			opt := core.DefaultOptions()
			opt.Mode = core.Push
			e := core.MustNew(g, m, opt)
			return func() []float64 { return algorithms.PageRank(e, rerunIters, 0.85) }, e.Close
		},
		"ligra": func(m *numa.Machine) (func() []float64, func()) {
			e := ligra.MustNew(g, m, ligra.DefaultOptions())
			return func() []float64 { return algorithms.PageRank(e, rerunIters, 0.85) }, e.Close
		},
		"xstream": func(m *numa.Machine) (func() []float64, func()) {
			e := xstream.MustNew(g, m, xstream.DefaultOptions(), algorithms.PRHints())
			return func() []float64 { return algorithms.XSPageRank(e, rerunIters, 0.85) }, e.Close
		},
		"galois": func(m *numa.Machine) (func() []float64, func()) {
			e := galois.MustNew(g, m, galois.DefaultOptions())
			return func() []float64 { return e.PageRank(rerunIters, 0.85) }, e.Close
		},
	}
	for name, build := range engines {
		t.Run(name, func(t *testing.T) {
			run, closeEngine := build(regressionMachine())
			defer closeEngine()
			run() // lays the engine out and fills its free list
			got := uint64(math.MaxUint64)
			for range 3 { // the least of three reruns: the runtime allocates beside the test too
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				run()
				runtime.ReadMemStats(&after)
				got = min(got, after.TotalAlloc-before.TotalAlloc)
			}
			t.Logf("rerun allocated %d bytes (n x 8 = %d, budget %d)", got, n*8, budget)
			if got > budget {
				t.Fatalf("PageRank rerun allocated %d bytes, budget %d (n x 8 + 10 %%)", got, budget)
			}
		})
	}
}

// TestBFSRerunAllocs bounds the bytes a whole BFS rerun allocates on a
// reused engine, on the road grid whose ~400 supersteps engine-sparse
// times. A run's frontiers go back to the engine that built them
// (sg.ReleaseFrontier), whose next builds reuse their storage, and the
// phase closures stay on the stack, so a second BFS allocates the n levels
// it returns and little else: the budget is those n x 8 bytes plus 10 %.
// Handing no frontier back takes Polymer's and Ligra's reruns to nearly
// twice the levels, and a phase closure on the heap, one a superstep,
// takes all three over the margin.
func TestBFSRerunAllocs(t *testing.T) {
	const side = 200
	n, edges := gen.RoadGrid(side, side, 7)
	g := graph.FromEdges(n, edges, true)
	budget := uint64(n) * 8 * 11 / 10
	engines := []struct {
		name  string
		build func(m *numa.Machine) (run func() []int64, close func())
	}{
		{"polymer", func(m *numa.Machine) (func() []int64, func()) {
			e := core.MustNew(g, m, core.DefaultOptions())
			return func() []int64 { return algorithms.BFS(e, side-1) }, e.Close
		}},
		{"ligra", func(m *numa.Machine) (func() []int64, func()) {
			e := ligra.MustNew(g, m, ligra.DefaultOptions())
			return func() []int64 { return algorithms.BFS(e, side-1) }, e.Close
		}},
		{"galois", func(m *numa.Machine) (func() []int64, func()) {
			e := galois.MustNew(g, m, galois.DefaultOptions())
			return func() []int64 { return e.BFS(side - 1) }, e.Close
		}},
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			run, closeEngine := eng.build(regressionMachine())
			defer closeEngine()
			want := run() // lays the engine out and grows its scratch
			got := uint64(math.MaxUint64)
			for range 3 { // the least of three reruns: the runtime allocates beside the test too
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				levels := run()
				runtime.ReadMemStats(&after)
				got = min(got, after.TotalAlloc-before.TotalAlloc)
				if !slices.Equal(levels, want) {
					t.Fatal("a rerun's levels differ from the first run's")
				}
			}
			t.Logf("rerun allocated %d bytes (n x 8 = %d, budget %d)", got, n*8, budget)
			if got > budget {
				t.Fatalf("BFS rerun allocated %d bytes, budget %d (n x 8 + 10 %%)", got, budget)
			}
		})
	}
}

// TestOneShotRunAllocs bounds the bytes a one-shot run allocates, as
// polymerd runs a miss: a fresh machine and engine per run through
// bench.RunWith, closed when it returns. A closed engine hands its
// per-vertex arrays and ledgers to the next engine of the same shape
// (sg.Base.Close), so after a warm-up run a run allocates its n x 8-byte
// answer and what building and closing the engine costs (measured beside
// it, layouts kept alive by an open engine), plus 10 %, and less than one
// per-vertex array beyond those. Arrays made afresh for every engine take
// PageRank's run two rank vectors over and BFS's a parent array over. A
// closed engine also hands its sweep scratch (frontier builder, sparse
// queues) to the next (sg.Sweep.Close), so a road-grid BFS allocates at
// most 4 KB beyond its answer and the build, the answer counted at what
// allocating it takes: the allocator rounds a 320,000-byte answer up to
// 327,680. Growing the scratch afresh took 23 KB on Polymer and 16.7 KB on
// Ligra. X-Stream's build is its tile grid; its PageRank kernel streams
// each edge block into its gather and holds no update lists, which a
// one-shot run would otherwise grow afresh (6.4 MB on this graph).
func TestOneShotRunAllocs(t *testing.T) {
	pn, pe := gen.RMAT(14, 8, 7)
	prGraph := graph.FromEdges(pn, pe, false)
	const side = 200
	bn, be := gen.RoadGrid(side, side, 7)
	bfsGraph := graph.FromEdges(bn, be, true)
	for _, c := range []struct {
		sys bench.System
		alg bench.Algo
		g   *graph.Graph
		src graph.Vertex
	}{
		{bench.Polymer, bench.PR, prGraph, 0},
		{bench.Ligra, bench.PR, prGraph, 0},
		{bench.XStream, bench.PR, prGraph, 0},
		{bench.Polymer, bench.BFS, bfsGraph, side - 1},
		{bench.Ligra, bench.BFS, bfsGraph, side - 1},
	} {
		t.Run(string(c.sys)+"/"+string(c.alg), func(t *testing.T) {
			build := func() interface{ Close() } { // as bench's dispatch table builds it
				switch c.sys {
				case bench.Ligra:
					return ligra.MustNew(c.g, regressionMachine(), ligra.DefaultOptions())
				case bench.XStream:
					return xstream.MustNew(c.g, regressionMachine(), xstream.DefaultOptions(), algorithms.PRHints())
				}
				opt := core.DefaultOptions()
				if c.alg == bench.PR {
					opt.Mode = core.Push
				}
				return core.MustNew(c.g, regressionMachine(), opt)
			}
			layouts := func(e interface{ Close() }) {
				if se, ok := e.(sg.Engine); ok {
					sg.MakeLayouts(se)
				}
			}
			keep := build()
			defer keep.Close()
			layouts(keep)
			least := leastAllocs(t,
				func() error {
					e := build()
					layouts(e)
					e.Close()
					return nil
				},
				func() error {
					_, err := bench.RunWith(c.sys, c.alg, c.g, regressionMachine(), bench.Options{Src: c.src})
					return err
				},
				func() error {
					answerSink = make([]float64, c.g.NumVertices())
					return nil
				})
			built, got, allocated := least[0], least[1], least[2]
			n := uint64(c.g.NumVertices())
			answer := n * 8
			budget := (answer + built) * 11 / 10
			t.Logf("one-shot run allocated %d bytes (answer %d, build %d, budget %d)", got, answer, built, budget)
			if got > budget {
				t.Fatalf("one-shot run allocated %d bytes, budget %d (answer + build + 10 %%)", got, budget)
			}
			if extra := int64(got) - int64(answer+built); extra >= int64(n)*4 {
				t.Fatalf("one-shot run allocated %d bytes beyond its answer and build: a per-vertex array", extra)
			}
			if extra := int64(got) - int64(allocated+built); c.alg == bench.BFS && extra > 4<<10 {
				t.Fatalf("one-shot BFS allocated %d bytes beyond its answer (%d allocated) and build: its sweep scratch grew", extra, allocated)
			}
		})
	}
}

// answerSink keeps TestOneShotRunAllocs's measured answer allocation.
var answerSink []float64

// TestServedMissReusesItsAnswer: polymerd hands a PageRank answer it does
// not cache back to the spare list, so the next miss of the same body
// takes its answer storage from there. A miss is served, a commit retires
// its result, and the same miss is served again; the commit is on the
// dataset's tiny scale, so the generation bump retires the small-scale
// entry while the small graph, its InvOutDegrees and its layouts stay
// (the collector is off, so nothing weakly held is dropped). The second
// miss allocates what building and closing the engine costs (measured
// beside it) plus the request's own bytes, which must stay under one
// n x 8-byte answer: an answer made afresh for every miss takes it over.
func TestServedMissReusesItsAnswer(t *testing.T) {
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	store, err := mutate.Open(t.TempDir(), mutate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := serve.NewServer(serve.Config{Workers: 1, Mutations: store})
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	post := func(path, body string) error {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("POST %s %s: status %d: %s", path, body, rec.Code, rec.Body)
		}
		return nil
	}
	const miss = `{"algo":"pr","system":"polymer","graph":"powerlaw","scale":"small"}`
	commits := 0
	g, err := gen.Load(gen.PowerLaw, gen.Small, true)
	if err != nil {
		t.Fatal(err)
	}
	g = g.Unweighted() // as polymerd runs PageRank
	opt := core.DefaultOptions()
	opt.Mode = core.Push
	keep := core.MustNew(g, regressionMachine(), opt)
	defer keep.Close()
	sg.MakeLayouts(keep)
	if err := post("/run", miss); err != nil {
		t.Fatal(err)
	}
	least := leastAllocs(t,
		func() error {
			commits++
			return post("/mutatez", fmt.Sprintf(`{"graph":"powerlaw","scale":"tiny","ops":[{"op":"insert","src":%d,"dst":1,"wt":1}]}`, commits))
		},
		func() error { return post("/run", miss) },
		func() error {
			e := core.MustNew(g, regressionMachine(), opt)
			sg.MakeLayouts(e)
			e.Close()
			return nil
		})
	served, built := least[1], least[2]
	n := uint64(g.NumVertices())
	t.Logf("a served PageRank miss allocated %d bytes, building and closing its engine %d (n x 8 = %d)", served, built, n*8)
	if served >= built+n*8 {
		t.Fatalf("a served PageRank miss allocated %d bytes beyond building and closing its engine: its answer was made afresh", served-built)
	}
}

// TestEpochTimeDoesNotAllocate: Time() runs once per phase, hundreds of
// times per traversal; it folds the ledger in place.
func TestEpochTimeDoesNotAllocate(t *testing.T) {
	for _, tiered := range []bool{false, true} {
		m := regressionMachine()
		if tiered {
			if err := m.SetTierConfig(numa.TierConfig{DRAMPerNode: 1 << 20, Policy: numa.TierHot}); err != nil {
				t.Fatal(err)
			}
		}
		ep := m.NewEpoch()
		ep.AccessInterleaved(3, numa.Rand, numa.Load, 1000, 8, 1<<30)
		if n := testing.AllocsPerRun(10, func() { _ = ep.Time() }); n != 0 {
			t.Fatalf("tiered=%v: Epoch.Time allocated %.0f objects per call", tiered, n)
		}
	}
}

// patchBench is the serving layer's weighted power-law graph at small
// scale (16,000 vertices) and one 32-edit batch on it: 16 deletions of
// existing edges and 16 insertions, endpoints drawn uniformly.
func patchBench(t *testing.T) (g *graph.Graph, deleted, appended []graph.Edge) {
	t.Helper()
	g, err := gen.Load(gen.PowerLaw, gen.Small, true)
	if err != nil {
		t.Fatal(err)
	}
	rng := gen.NewRNG(11)
	n := g.NumVertices()
	for len(deleted) < 16 {
		s := graph.Vertex(rng.Intn(n))
		if nbrs := g.OutNeighbors(s); len(nbrs) > 0 {
			deleted = append(deleted, graph.Edge{Src: s, Dst: nbrs[rng.Intn(len(nbrs))]})
		}
		appended = append(appended, graph.Edge{Src: graph.Vertex(rng.Intn(n)), Dst: graph.Vertex(rng.Intn(n)), Wt: 1})
	}
	return g, deleted, appended
}

// TestPatchAllocatesTouchedChunks: a commit's Patch rewrites only the
// chunks its edits touch, so one 32-edit batch on a graph already patched
// once, as in a serving lineage, allocates at most a fifth of the graph's
// TopologyBytes (a whole copy of the CSR is all of it, and is what the
// first patch of a FromEdges graph makes).
func TestPatchAllocatesTouchedChunks(t *testing.T) {
	g, deleted, appended := patchBench(t)
	g = g.Patch(nil, nil)
	got := int64(leastAllocs(t, func() error {
		g.Patch(deleted, appended)
		return nil
	})[0])
	t.Logf("Patch allocated %d bytes of a %d-byte topology", got, g.TopologyBytes())
	if got*5 > g.TopologyBytes() {
		t.Fatalf("one 32-edit Patch allocated %d bytes, over a fifth of the %d-byte topology", got, g.TopologyBytes())
	}
}

// TestLigraNewOnPatchedSnapshot: Ligra sweeps a patched snapshot's chunks
// as it sweeps a FromEdges graph's, so building an engine on the snapshot
// allocates no more than on its FromEdges twin. One engine stays open on
// each graph, so the graph's parts are built once (graph.Derived) and
// every measured New reuses them.
func TestLigraNewOnPatchedSnapshot(t *testing.T) {
	g, deleted, appended := patchBench(t)
	snap := g.Patch(deleted, appended)
	twin := graph.FromEdges(snap.NumVertices(), snap.Edges(), true)
	newOn := func(h *graph.Graph) func() error {
		return func() error {
			ligra.MustNew(h, regressionMachine(), ligra.DefaultOptions()).Close()
			return nil
		}
	}
	for _, h := range []*graph.Graph{snap, twin} {
		keep := ligra.MustNew(h, regressionMachine(), ligra.DefaultOptions())
		defer keep.Close()
	}
	least := leastAllocs(t, newOn(snap), newOn(twin))
	onSnap, onTwin := least[0], least[1]
	t.Logf("ligra.New: %d bytes on the patched snapshot, %d on its FromEdges twin", onSnap, onTwin)
	if onSnap > onTwin {
		t.Fatalf("ligra.New allocated %d bytes on a patched snapshot, %d on its FromEdges twin", onSnap, onTwin)
	}
}

// leastAllocs measures the bytes each of runs allocates: after one
// warm-up call of each, each figure is the least of five calls, the runs
// taking turns. The least of a few calls is exact from run to run where
// testing.Benchmark's mean over a timed loop is not, and costs a few
// calls instead of a second of them.
func leastAllocs(t *testing.T, runs ...func() error) []uint64 {
	t.Helper()
	least := make([]uint64, len(runs))
	for i := range least {
		least[i] = math.MaxUint64
	}
	for i := range 6 {
		for side, run := range runs {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := run(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if i > 0 { // the first is the warm-up
				least[side] = min(least[side], after.TotalAlloc-before.TotalAlloc)
			}
		}
	}
	return least
}

// TestFaultFreeRunCarriesNoSession: with no injector, RunResilientCtx is
// one plain run — no fault session checkpointing the vertex arrays before
// every superstep — so it allocates what RunWith allocates on the same
// cell, within 5 % (leastAllocs's figures). A session on the fault-free
// path adds a fresh save buffer per tracked vertex array, many times the
// run's own bytes. Each side hands its answer back to the spare list, as
// its sole holder may (bench.Output.Recycle): the answer's storage then
// comes from that list on both sides, as the engine's arrays do, and
// neither side's figure hangs on whether the list happened to hold a
// spare answer from elsewhere.
func TestFaultFreeRunCarriesNoSession(t *testing.T) {
	g, err := bench.LoadDataset(gen.PowerLaw, gen.Small, bench.PR)
	if err != nil {
		t.Fatal(err)
	}
	// An open engine keeps Polymer's layouts for g alive (graph.Derived
	// holds them weakly), so no measured run rebuilds them after a GC.
	opt := core.DefaultOptions()
	opt.Mode = core.Push
	keep := core.MustNew(g, regressionMachine(), opt)
	defer keep.Close()
	least := leastAllocs(t,
		func() error {
			r, err := bench.RunWith(bench.Polymer, bench.PR, g, regressionMachine(), bench.Options{})
			r.Out.Recycle()
			return err
		},
		func() error {
			r, _, err := bench.RunResilientCtx(context.Background(), bench.Polymer, bench.PR, g, regressionMachine, nil,
				bench.ResilientOptions{SessionRetries: -1})
			r.Out.Recycle()
			return err
		},
	)
	plain, resilient := least[0], least[1]
	t.Logf("fault-free RunResilientCtx allocated %d bytes a run, RunWith %d", resilient, plain)
	if resilient*100 > plain*105 {
		t.Fatalf("fault-free RunResilientCtx allocated %d bytes a run, over 1.05 x RunWith's %d", resilient, plain)
	}
}

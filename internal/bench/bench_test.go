package bench

import (
	"math"
	"testing"

	"polymer/internal/barrier"
	"polymer/internal/gen"
	"polymer/internal/numa"
)

// The bench tests assert the paper's qualitative findings — who wins,
// by roughly what factor, where the crossovers are — at Small scale so
// the suite stays fast. cmd/experiments regenerates everything at the
// Default scale used for EXPERIMENTS.md.

func TestLatencyTableMatchesPaper(t *testing.T) {
	topo := numa.IntelXeon80()
	rows := LatencyTable(topo)
	wantLoad := []float64{117, 271, 372}
	wantStore := []float64{108, 304, 409}
	for i := range wantLoad {
		if math.Abs(rows[0].Cycles[i]-wantLoad[i]) > 1 {
			t.Fatalf("load latency level %d = %v, want %v", i, rows[0].Cycles[i], wantLoad[i])
		}
		if math.Abs(rows[1].Cycles[i]-wantStore[i]) > 1 {
			t.Fatalf("store latency level %d = %v, want %v", i, rows[1].Cycles[i], wantStore[i])
		}
	}
	if s := FormatLatencyTable(topo, rows); len(s) == 0 {
		t.Fatal("empty format output")
	}
}

func TestBandwidthTableMatchesPaper(t *testing.T) {
	for _, tc := range []struct {
		topo   *numa.Topology
		seq    []float64
		rand   []float64
		ilSeq  float64
		ilRand float64
	}{
		{numa.IntelXeon80(), []float64{3207, 2455, 2101}, []float64{720, 348, 307}, 2333, 344},
		{numa.AMDOpteron64(), []float64{3241, 2806, 2406, 1997}, []float64{533, 509, 487, 415}, 2509, 466},
	} {
		rows := BandwidthTable(tc.topo)
		for i := range tc.seq {
			if rel(rows[0].MBps[i], tc.seq[i]) > 0.02 {
				t.Fatalf("%s seq level %d = %v, want %v", tc.topo.Name, i, rows[0].MBps[i], tc.seq[i])
			}
			if rel(rows[1].MBps[i], tc.rand[i]) > 0.02 {
				t.Fatalf("%s rand level %d = %v, want %v", tc.topo.Name, i, rows[1].MBps[i], tc.rand[i])
			}
		}
		// Interleaved bandwidth derives from the harmonic mean over
		// distances, which lands within ~5% of the measured values.
		if rel(rows[0].Interleaved, tc.ilSeq) > 0.05 || rel(rows[1].Interleaved, tc.ilRand) > 0.05 {
			t.Fatalf("%s interleaved = %v/%v, want %v/%v", tc.topo.Name,
				rows[0].Interleaved, rows[1].Interleaved, tc.ilSeq, tc.ilRand)
		}
		// The paper's headline: sequential remote beats random local.
		if !(rows[0].MBps[tc.topo.MaxLevel()] > rows[1].MBps[0]) {
			t.Fatal("sequential remote must beat random local")
		}
		if s := FormatBandwidthTable(tc.topo, rows); len(s) == 0 {
			t.Fatal("empty format output")
		}
	}
}

func rel(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

func TestSocketScalingShapes(t *testing.T) {
	topo := numa.IntelXeon80()
	series, err := SocketScaling(topo, gen.Small, PR, Systems())
	if err != nil {
		t.Fatal(err)
	}
	bySys := map[System]ScaleSeries{}
	for _, s := range series {
		bySys[s.System] = s
	}
	last := topo.Sockets - 1
	polySpd := bySys[Polymer].Speedup()[last]
	// Figure 7: Polymer out-scales every baseline, and its 8-socket
	// absolute time beats all of them.
	for _, sys := range []System{Ligra, XStream, Galois} {
		if spd := bySys[sys].Speedup()[last]; spd >= polySpd {
			t.Fatalf("%s speedup %.2f must be below Polymer's %.2f", sys, spd, polySpd)
		}
		if bySys[sys].Points[last].Seconds <= bySys[Polymer].Points[last].Seconds {
			t.Fatalf("%s must be slower than Polymer at 8 sockets", sys)
		}
	}
	// Figure 5(b): none of the baselines reaches a 6x speedup on 8 sockets
	// (paper: at most 4.6x; our X-Stream model runs slightly above).
	for _, sys := range []System{Ligra, XStream, Galois} {
		if spd := bySys[sys].Speedup()[last]; spd > 6 {
			t.Fatalf("%s speedup %.2f unexpectedly high (paper: <= 4.6x)", sys, spd)
		}
	}
	// Section 6.3: on a single node Polymer is close to (or worse than)
	// the best existing system, within 3x.
	best := math.Inf(1)
	for _, sys := range []System{Ligra, XStream, Galois} {
		if v := bySys[sys].Points[0].Seconds; v < best {
			best = v
		}
	}
	if bySys[Polymer].Points[0].Seconds > 3*best {
		t.Fatal("Polymer should be in the same league as baselines on one socket")
	}
	if s := FormatScaling("fig7", "sockets", series); len(s) == 0 {
		t.Fatal("empty format output")
	}
}

func TestAMDScalingWorse(t *testing.T) {
	// Figure 8: Polymer's scalability ratio on the AMD machine is lower
	// than on the Intel machine (smaller LLC, shared HT ports).
	intel, err := SocketScaling(numa.IntelXeon80(), gen.Small, PR, []System{Polymer})
	if err != nil {
		t.Fatal(err)
	}
	amd, err := SocketScaling(numa.AMDOpteron64(), gen.Small, PR, []System{Polymer})
	if err != nil {
		t.Fatal(err)
	}
	iSpd := intel[0].Speedup()[7]
	aSpd := amd[0].Speedup()[7]
	if !(aSpd < iSpd) {
		t.Fatalf("AMD speedup %.2f must be below Intel %.2f", aSpd, iSpd)
	}
}

func TestCoreScalingWithinSocket(t *testing.T) {
	// Figure 5(a): existing systems scale well with cores inside one
	// socket.
	series, err := CoreScaling(numa.IntelXeon80(), gen.Small, []System{Ligra, XStream, Galois})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		spd := s.Speedup()[len(s.Points)-1]
		if spd < 2.5 {
			t.Fatalf("%s core-scaling speedup %.2f too low (paper: 4.5-6.9x)", s.System, spd)
		}
	}
}

func TestTable3Shapes(t *testing.T) {
	topo := numa.IntelXeon80()
	cells, err := Table3(topo, gen.Small)
	if err != nil {
		t.Fatal(err)
	}
	get := func(a Algo, d gen.Dataset, s System) float64 {
		for _, c := range cells {
			if c.Algo == a && c.Graph == d && c.System == s {
				return c.Seconds
			}
		}
		t.Fatalf("missing cell %s/%s/%s", a, d, s)
		return 0
	}
	// Polymer wins the sparse-matrix cells (paper Section 6.2, modulo
	// BP/roadUS). At Small scale the rmat24 and roadUS vertex data fits
	// entirely in the scaled LLC, which erases the NUMA gap the paper
	// sees at full size (Galois's random reads become free); for those
	// inputs Polymer only has to stay within 4x of the winner. At Default
	// scale Polymer wins them too — see EXPERIMENTS.md.
	for _, a := range []Algo{PR, SpMV, BP} {
		for _, d := range gen.Datasets() {
			p := get(a, d, Polymer)
			strict := d == gen.Twitter || d == gen.RMat27 || d == gen.PowerLaw
			for _, s := range []System{Ligra, XStream, Galois} {
				o := get(a, d, s)
				if strict && p >= o {
					t.Errorf("%s/%s: Polymer %.4f not fastest vs %s %.4f", a, d, p, s, o)
				}
				if !strict && p > 4*o {
					t.Errorf("%s/%s: Polymer %.4f not within 4x of %s %.4f", a, d, p, s, o)
				}
			}
		}
	}
	// X-Stream is the worst system for every traversal algorithm on the
	// high-diameter road network, by a wide margin.
	for _, a := range []Algo{BFS, CC, SSSP} {
		x := get(a, gen.RoadUS, XStream)
		for _, s := range []System{Polymer, Ligra, Galois} {
			if x < 3*get(a, gen.RoadUS, s) {
				t.Errorf("%s/roadUS: X-Stream %.4f must be far slower than %s %.4f", a, x, s, get(a, gen.RoadUS, s))
			}
		}
	}
	// Galois's asynchronous algorithms shine on the road network: its
	// delta-stepping SSSP beats the Bellman-Ford systems.
	if g := get(SSSP, gen.RoadUS, Galois); g >= get(SSSP, gen.RoadUS, Ligra) {
		t.Errorf("galois road SSSP %.4f should beat ligra %.4f (delta-stepping)", g, get(SSSP, gen.RoadUS, Ligra))
	}
	if s := FormatTable3(cells); len(s) == 0 {
		t.Fatal("empty format output")
	}
}

func TestRunChecksumsAgreeAcrossSystems(t *testing.T) {
	// All four systems must compute the same answers.
	topo := numa.IntelXeon80()
	for _, alg := range Algos() {
		g, err := LoadDataset(gen.Twitter, gen.Tiny, alg)
		if err != nil {
			t.Fatal(err)
		}
		var ref float64
		for i, sys := range Systems() {
			m := numa.NewMachine(topo, 2, 2)
			r := RunFrom(sys, alg, g, m, 0)
			if i == 0 {
				ref = r.Checksum
				continue
			}
			if rel(r.Checksum, ref) > 1e-6 {
				t.Fatalf("%s/%s checksum %v differs from %v", sys, alg, r.Checksum, ref)
			}
		}
	}
}

func TestTable4Shapes(t *testing.T) {
	rows, err := Table4(numa.IntelXeon80(), gen.Small, PR)
	if err != nil {
		t.Fatal(err)
	}
	byS := map[System]Table4Row{}
	for _, r := range rows {
		byS[r.System] = r
	}
	// Polymer has the lowest remote rate, count and remote miss rate
	// (paper Table 4(a)).
	for _, s := range []System{Ligra, XStream, Galois} {
		if byS[Polymer].RemoteRate >= byS[s].RemoteRate {
			t.Errorf("Polymer remote rate %.3f must be below %s %.3f", byS[Polymer].RemoteRate, s, byS[s].RemoteRate)
		}
		if byS[Polymer].RemoteAccesses >= byS[s].RemoteAccesses {
			t.Errorf("Polymer remote count must be lowest")
		}
	}
	if byS[Ligra].RemoteRate < 0.5 || byS[Galois].RemoteRate < 0.5 {
		t.Error("NUMA-oblivious systems should exceed 50% remote accesses (paper: 83%)")
	}
	if s := FormatTable4(PR, rows); len(s) == 0 {
		t.Fatal("empty format output")
	}
}

func TestTable5Shapes(t *testing.T) {
	rows, err := Table5(numa.IntelXeon80(), gen.Small)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Galois has the smallest footprint; X-Stream the largest
		// (shuffle buffers); Polymer exceeds Ligra by its agents but by
		// less than ~40% (paper Section 6.5).
		if r.Peak[Galois] >= r.Peak[Ligra] {
			t.Errorf("%s: galois %d must be smaller than ligra %d", r.Graph, r.Peak[Galois], r.Peak[Ligra])
		}
		if r.Peak[XStream] <= r.Peak[Ligra] {
			t.Errorf("%s: xstream %d must exceed ligra %d", r.Graph, r.Peak[XStream], r.Peak[Ligra])
		}
		if r.Peak[Polymer] <= r.Peak[Ligra] {
			t.Errorf("%s: polymer %d must exceed ligra %d (agents)", r.Graph, r.Peak[Polymer], r.Peak[Ligra])
		}
		if r.AgentBytes <= 0 {
			t.Errorf("%s: agent bytes must be tracked", r.Graph)
		}
		// Our engine keeps the dual-CSR construction graph resident next
		// to its grouped layouts, so the overhead ratio runs higher than
		// the paper's (~1.06-1.38); bound it at 3x (see EXPERIMENTS.md).
		if float64(r.Peak[Polymer]) > 3*float64(r.Peak[Ligra]) {
			t.Errorf("%s: polymer/ligra ratio %.2f too high", r.Graph,
				float64(r.Peak[Polymer])/float64(r.Peak[Ligra]))
		}
	}
	if s := FormatTable5(rows); len(s) == 0 {
		t.Fatal("empty format output")
	}
}

func TestBarrierStudyShape(t *testing.T) {
	points := BarrierStudy(8, 2, 50)
	if len(points) != 8 {
		t.Fatalf("expected 8 points, got %d", len(points))
	}
	p8 := points[7]
	if !(p8.Model[barrier.N] < p8.Model[barrier.H] && p8.Model[barrier.H] < p8.Model[barrier.P]) {
		t.Fatal("model ordering N < H < P violated at 8 sockets")
	}
	for _, k := range []barrier.Kind{barrier.P, barrier.H, barrier.N} {
		if p8.Measured[k] <= 0 {
			t.Fatalf("measured %v must be positive", k)
		}
	}
	if s := FormatBarrierStudy(points); len(s) == 0 {
		t.Fatal("empty format output")
	}
}

func TestFigure10bBarrierAblation(t *testing.T) {
	rows, err := Figure10b(numa.IntelXeon80(), gen.Small)
	if err != nil {
		t.Fatal(err)
	}
	checkAblation(t, rows, "barrier", map[Algo]float64{
		PR: 1, SpMV: 1, BP: 1, BFS: 2, CC: 1.5, SSSP: 2,
	})
	// The traversal algorithms must gain far more than the matrix ones
	// (paper: 58.6x for BFS vs 8% for PR).
	sp := func(a Algo) float64 {
		for _, r := range rows {
			if r.Algo == a {
				return r.Without / r.With
			}
		}
		return 0
	}
	if !(sp(BFS) > 2*sp(PR) && sp(SSSP) > 2*sp(PR)) {
		t.Fatalf("traversal barrier gains (BFS %.1fx, SSSP %.1fx) must dwarf PR's %.1fx", sp(BFS), sp(SSSP), sp(PR))
	}
}

func TestTable6aAdaptive(t *testing.T) {
	rows, err := Table6a(numa.IntelXeon80(), gen.Small)
	if err != nil {
		t.Fatal(err)
	}
	// CC's frontier stays dense on the grid road network (row-major ids),
	// so its adaptive gain is flat here, unlike the paper's 15x — see
	// EXPERIMENTS.md.
	checkAblation(t, rows, "adaptive", map[Algo]float64{
		PR: 0.9, SpMV: 0.9, BP: 0.9, BFS: 2, CC: 0.95, SSSP: 1.5,
	})
	if s := FormatAblation("Table 6(a)", rows); len(s) == 0 {
		t.Fatal("empty format output")
	}
}

// checkAblation asserts per-algorithm minimum speedups for a w/o-vs-w/
// study.
func checkAblation(t *testing.T, rows []AblationRow, name string, minGain map[Algo]float64) {
	t.Helper()
	for _, r := range rows {
		sp := r.Without / r.With
		if want := minGain[r.Algo]; sp < want {
			t.Errorf("%s: %s speedup %.2f, want >= %.2f", name, r.Algo, sp, want)
		}
	}
}

func TestTable6bBalanced(t *testing.T) {
	rows, err := Table6b(numa.IntelXeon80(), gen.Small)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table 6(b): the dense-phase algorithms speed up substantially
	// on the skewed twitter graph (paper: 1.29x-3.67x); the traversal
	// algorithms are sparse-phase dominated at our scale and must at
	// least not regress.
	checkAblation(t, rows, "balanced", map[Algo]float64{
		PR: 1.2, SpMV: 1.2, BP: 1.2, CC: 1.1, BFS: 0.9, SSSP: 0.9,
	})
}

func TestFigure11Shapes(t *testing.T) {
	r, err := Figure11(numa.IntelXeon80(), gen.Small)
	if err != nil {
		t.Fatal(err)
	}
	maxAbs := func(xs []float64) float64 {
		var m float64
		for _, x := range xs {
			if a := math.Abs(x); a > m {
				m = a
			}
		}
		return m
	}
	if !(maxAbs(r.EdgeBalanced) < maxAbs(r.VertexBalanced)) {
		t.Fatalf("edge-balanced deviation %.3f must beat vertex-balanced %.3f",
			maxAbs(r.EdgeBalanced), maxAbs(r.VertexBalanced))
	}
	if maxAbs(r.EdgeBalanced) > 0.05 {
		t.Fatalf("edge-balanced deviation %.3f too high (paper: under 1%%)", maxAbs(r.EdgeBalanced))
	}
	// Per-socket busy times must be tighter with balance.
	spread := func(xs []float64) float64 {
		lo, hi := math.Inf(1), 0.0
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return hi - lo
	}
	if !(spread(r.SocketTimeEB) < spread(r.SocketTimeVB)) {
		t.Fatal("balanced partitioning must tighten per-socket times")
	}
	if !(r.TotalEB < r.TotalVB) {
		t.Fatal("balanced partitioning must reduce the whole-run time")
	}
	if s := FormatFigure11(r); len(s) == 0 {
		t.Fatal("empty format output")
	}
}

func TestIterationOverheadShape(t *testing.T) {
	rows, err := IterationOverhead(numa.IntelXeon80(), gen.Small)
	if err != nil {
		t.Fatal(err)
	}
	byS := map[System]IterOverheadRow{}
	for _, r := range rows {
		byS[r.System] = r
	}
	// Paper footnote 6: Polymer 0.032ms, Ligra 0.043ms, X-Stream 92ms per
	// iteration — the edge-centric engine pays orders of magnitude more
	// per iteration because it scans every edge's source state.
	if !(byS[XStream].PerIterSecs > 10*byS[Polymer].PerIterSecs) {
		t.Fatalf("X-Stream per-iter %.2e must dwarf Polymer's %.2e",
			byS[XStream].PerIterSecs, byS[Polymer].PerIterSecs)
	}
	if !(byS[XStream].PerIterSecs > 5*byS[Ligra].PerIterSecs) {
		t.Fatalf("X-Stream per-iter %.2e must dwarf Ligra's %.2e",
			byS[XStream].PerIterSecs, byS[Ligra].PerIterSecs)
	}
	// BFS on a high-diameter road network needs hundreds of iterations.
	if byS[Polymer].Iterations < 100 {
		t.Fatalf("road BFS took only %d iterations", byS[Polymer].Iterations)
	}
	if s := FormatIterationOverhead(rows); len(s) == 0 {
		t.Fatal("empty format output")
	}
}

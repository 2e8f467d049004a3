// Package numa implements a simulated cache-coherent NUMA machine.
//
// Go's runtime deliberately hides memory placement: there is no first-touch
// control, no page binding, and no CPU pinning. To reproduce the NUMA
// behaviour studied by the Polymer paper (PPoPP'15) this package models a
// NUMA machine explicitly: a Topology carries the measured latency and
// bandwidth tables from the paper (Figures 3(b) and 4), a Machine is a
// configured instance (active sockets x cores), and an Epoch is a ledger
// into which engines record their classified memory traffic
// (sequential/random x load/store x hop distance). The Epoch's cost model
// converts traffic into simulated seconds, including LLC effects and
// congestion on memory controllers and interconnect links.
package numa

// Pattern classifies the spatial locality of an access stream.
type Pattern uint8

const (
	// Seq is a sequential (streaming) access pattern.
	Seq Pattern = iota
	// Rand is a random (pointer-chasing or scattered) access pattern.
	Rand
)

// String returns "seq" or "rand".
func (p Pattern) String() string {
	if p == Seq {
		return "seq"
	}
	return "rand"
}

// Op classifies an access as a load or a store.
type Op uint8

const (
	// Load is a memory read.
	Load Op = iota
	// Store is a memory write.
	Store
)

// String returns "load" or "store".
func (o Op) String() string {
	if o == Load {
		return "load"
	}
	return "store"
}

// Topology describes a NUMA machine model: its socket graph and the
// measured latency/bandwidth characteristics by hop distance. Distances are
// expressed as "levels": an index into the latency and bandwidth tables.
// Level 0 is always local. Topologies with dies inside sockets (AMD) use
// extra levels to distinguish intra-socket from inter-socket single hops.
type Topology struct {
	// Name identifies the machine model, e.g. "intel80".
	Name string
	// Sockets is the number of NUMA memory nodes.
	Sockets int
	// CoresPerSocket is the number of cores attached to each node.
	CoresPerSocket int

	// Levels holds the hop level between every pair of sockets.
	Levels [][]int

	// LoadLatency and StoreLatency give access latency in cycles, indexed
	// by level (paper Figure 3(b)).
	LoadLatency  []float64
	StoreLatency []float64

	// SeqBW and RandBW give single-thread bandwidth in MB/s, indexed by
	// level (paper Figure 4).
	SeqBW  []float64
	RandBW []float64
	// SeqBWInterleaved and RandBWInterleaved are the bandwidths observed
	// when pages are interleaved across all nodes (paper Figure 4).
	SeqBWInterleaved  float64
	RandBWInterleaved float64

	// LLCBytes is the modelled last-level cache capacity per socket. It is
	// scaled down relative to the physical machines in the same proportion
	// as the graph datasets, so cache-fitting effects reproduce at laptop
	// scale (see DESIGN.md).
	LLCBytes int64
	// CacheLineBytes is the cache line size.
	CacheLineBytes int
	// CacheBW is the bandwidth, in MB/s, of random accesses that hit in
	// the LLC.
	CacheBW float64

	// ClockGHz converts latency cycles into seconds.
	ClockGHz float64

	// NodeAggBW is the aggregate bandwidth, in MB/s, a single memory
	// node's controller can sustain across all requesting threads.
	NodeAggBW float64
	// PortBW is the aggregate interconnect bandwidth, in MB/s, through
	// one socket's port: all remote traffic entering or leaving a socket
	// shares it. This is the resource NUMA-oblivious layouts saturate
	// (paper Section 3.1: "congestion on interconnects and memory
	// controllers").
	PortBW float64

	// BisectionBW is the total bandwidth, in MB/s, across the machine's
	// interconnect bisection. Roughly half of all remote traffic crosses
	// it; on the AMD machine's four-module HyperTransport fabric it is
	// the resource that makes performance degrade beyond four sockets
	// (paper Figure 5(d): "the HyperTransport interconnect can only
	// ensure the distance between two nodes to one hop for at most 4
	// sockets").
	BisectionBW float64

	// SlowSeqBW and SlowRandBW give single-thread bandwidth, in MB/s,
	// against the capacity tier (CXL/PMem-class memory attached to each
	// node), indexed by hop level like the DRAM tables: level 0 is the
	// local node's slow tier, higher levels reach it across the
	// interconnect. Empty tables mean the topology has no slow tier and
	// tiering cannot be armed.
	SlowSeqBW  []float64
	SlowRandBW []float64
	// SlowLoadLatency and SlowStoreLatency give slow-tier access latency
	// in cycles, indexed by hop level.
	SlowLoadLatency  []float64
	SlowStoreLatency []float64
	// SlowAggBW is the aggregate bandwidth, in MB/s, one node's slow-tier
	// media can sustain across all requesting threads (the CXL link or
	// PMem DIMM bound — well below the DRAM controller's NodeAggBW).
	SlowAggBW float64

	// SyncScale divides barrier costs when engines charge per-phase
	// synchronization. The machine model is full-size (the paper's
	// bandwidth tables) while the datasets are scaled down ~256x, so
	// phase times shrink by that factor; scaling the synchronization
	// charge by the same factor preserves the paper's sync-to-compute
	// ratios (Figure 10(b), Table 6(a)). The barrier microbenchmark
	// (Figure 10(a)) reports unscaled values.
	SyncScale float64
}

// MaxLevel returns the largest hop level in the topology.
func (t *Topology) MaxLevel() int { return len(t.SeqBW) - 1 }

// Level returns the hop level between sockets a and b.
func (t *Topology) Level(a, b int) int { return t.Levels[a][b] }

// Validate reports whether the topology tables are internally consistent.
func (t *Topology) Validate() error {
	if t.Sockets <= 0 || t.CoresPerSocket <= 0 {
		return errTopo("sockets and cores must be positive")
	}
	if len(t.Levels) != t.Sockets {
		return errTopo("levels matrix must be Sockets x Sockets")
	}
	n := len(t.SeqBW)
	if len(t.RandBW) != n || len(t.LoadLatency) != n || len(t.StoreLatency) != n {
		return errTopo("latency/bandwidth tables must have equal length")
	}
	for i := range t.Levels {
		if len(t.Levels[i]) != t.Sockets {
			return errTopo("levels matrix must be square")
		}
		for j := range t.Levels[i] {
			if i == j && t.Levels[i][j] != 0 {
				return errTopo("diagonal levels must be zero")
			}
			if t.Levels[i][j] != t.Levels[j][i] {
				return errTopo("levels matrix must be symmetric")
			}
			if t.Levels[i][j] < 0 || t.Levels[i][j] >= n {
				return errTopo("level out of table range")
			}
		}
	}
	if len(t.SlowSeqBW) > 0 {
		if len(t.SlowSeqBW) != n || len(t.SlowRandBW) != n ||
			len(t.SlowLoadLatency) != n || len(t.SlowStoreLatency) != n {
			return errTopo("slow-tier tables must match the DRAM tables' length")
		}
		if t.SlowAggBW <= 0 {
			return errTopo("slow tier needs a positive aggregate bandwidth")
		}
		for l := 0; l < n; l++ {
			if t.SlowSeqBW[l] <= 0 || t.SlowRandBW[l] <= 0 {
				return errTopo("slow-tier bandwidths must be positive")
			}
			if t.SlowSeqBW[l] > t.SeqBW[l] || t.SlowRandBW[l] > t.RandBW[l] {
				return errTopo("slow tier cannot be faster than DRAM at the same hop level")
			}
			if t.SlowLoadLatency[l] < t.LoadLatency[l] || t.SlowStoreLatency[l] < t.StoreLatency[l] {
				return errTopo("slow tier cannot have lower latency than DRAM at the same hop level")
			}
		}
	}
	return nil
}

type errTopo string

func (e errTopo) Error() string { return "numa: invalid topology: " + string(e) }

// IntelXeon80 models the paper's 80-core machine: eight 10-core Intel Xeon
// E7-8850 sockets connected by QPI in a twisted hypercube, which bounds the
// maximum distance between any two sockets to two hops. Latency and
// bandwidth values are the paper's measurements (Figures 3(b) and 4).
func IntelXeon80() *Topology {
	const s = 8
	levels := make([][]int, s)
	for i := range levels {
		levels[i] = make([]int, s)
		for j := range levels[i] {
			levels[i][j] = intelHopLevel(i, j)
		}
	}
	return &Topology{
		Name:              "intel80",
		Sockets:           s,
		CoresPerSocket:    10,
		Levels:            levels,
		LoadLatency:       []float64{117, 271, 372},
		StoreLatency:      []float64{108, 304, 409},
		SeqBW:             []float64{3207, 2455, 2101},
		RandBW:            []float64{720, 348, 307},
		SeqBWInterleaved:  2333,
		RandBWInterleaved: 344,
		// Capacity tier modelled on CXL-attached memory one generation
		// forward (Moura et al.): ~40% of DRAM sequential bandwidth,
		// ~23% random, roughly 2.9x load latency.
		SlowSeqBW:        []float64{1350, 1180, 1050},
		SlowRandBW:       []float64{165, 122, 104},
		SlowLoadLatency:  []float64{340, 510, 620},
		SlowStoreLatency: []float64{390, 580, 700},
		SlowAggBW:        6200,
		LLCBytes:         64 << 10, // scaled 24 MB: keeps the paper's data/LLC ratio (~14x) at laptop-scale inputs
		CacheLineBytes:   64,
		CacheBW:          12800,
		ClockGHz:         2.0,
		NodeAggBW:        22000, // ~7x single-thread sequential (10 cores)
		PortBW:           15400, // QPI port capacity per socket
		BisectionBW:      60000, // the twisted hypercube has ample bisection
		SyncScale:        256,
	}
}

// intelHopLevel models the twisted hypercube: sockets are vertices of a
// 3-cube; the twist adds an edge to the antipodal vertex, so every pair is
// within two hops.
func intelHopLevel(a, b int) int {
	if a == b {
		return 0
	}
	x := a ^ b
	if x == 7 || x&(x-1) == 0 { // antipodal twist link or single cube edge
		return 1
	}
	return 2
}

// AMDOpteron64 models the paper's 64-core machine: four multi-chip modules
// connected by HyperTransport, each containing two 8-core dies with
// independent memory controllers (eight NUMA nodes total). Level 1 is the
// intra-socket die-to-die hop, level 2 an adjacent-socket hop, and level 3
// the two-hop distance that appears once more than four sockets are
// involved (the effect behind the paper's Figure 5(d)).
func AMDOpteron64() *Topology {
	const s = 8
	levels := make([][]int, s)
	for i := range levels {
		levels[i] = make([]int, s)
		for j := range levels[i] {
			levels[i][j] = amdHopLevel(i, j)
		}
	}
	return &Topology{
		Name:              "amd64",
		Sockets:           s,
		CoresPerSocket:    8,
		Levels:            levels,
		LoadLatency:       []float64{228, 419, 419, 498},
		StoreLatency:      []float64{256, 463, 463, 544},
		SeqBW:             []float64{3241, 2806, 2406, 1997},
		RandBW:            []float64{533, 509, 487, 415},
		SeqBWInterleaved:  2509,
		RandBWInterleaved: 466,
		// Capacity tier: PMem-class media behind the module's shared
		// controllers — a little slower than the Intel machine's CXL
		// numbers, matching the module fabric's tighter bandwidth.
		SlowSeqBW:        []float64{1280, 1150, 1040, 900},
		SlowRandBW:       []float64{150, 138, 126, 108},
		SlowLoadLatency:  []float64{560, 740, 740, 830},
		SlowStoreLatency: []float64{640, 830, 830, 920},
		SlowAggBW:        3600,
		LLCBytes:         43 << 10, // scaled 16 MB (2/3 of the Intel machine)
		CacheLineBytes:   64,
		CacheBW:          10600,
		ClockGHz:         2.1,
		NodeAggBW:        9000,  // both dies share the module's controllers
		PortBW:           9000,  // shared HT within a module restricts scaling
		BisectionBW:      12000, // four-module HT fabric: scaling stalls past 4 sockets
		SyncScale:        256,
	}
}

// amdHopLevel: nodes 2i and 2i+1 are the dies of module i; modules form a
// ring 0-1-2-3-0, so opposite modules are two hops apart.
func amdHopLevel(a, b int) int {
	if a == b {
		return 0
	}
	ma, mb := a/2, b/2
	if ma == mb {
		return 1
	}
	d := ma - mb
	if d < 0 {
		d = -d
	}
	if d == 1 || d == 3 {
		return 2
	}
	return 3
}

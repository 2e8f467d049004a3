package numa

import "fmt"

// Machine is a configured instance of a Topology: a subset of its sockets
// with a fixed number of worker threads per socket. Worker threads are
// identified by a dense global id in [0, Threads()); thread t runs on node
// t / CoresPerNode. Node indices are logical (0..Nodes-1) and map to
// physical sockets chosen to minimise total pairwise distance, matching the
// paper's experimental methodology ("we select sockets with minimized total
// distances").
type Machine struct {
	Topo         *Topology
	Nodes        int
	CoresPerNode int

	physical []int // logical node -> physical socket
	levels   []int // logical node pair (a, b) at a*Nodes+b -> hop level
	alloc    *AllocTracker

	// ilSeqBW and ilRandBW hold, per logical node, the effective
	// bandwidth of accesses to pages interleaved across the active
	// nodes: the harmonic mean of the per-distance bandwidths. At the
	// full eight sockets this reproduces the paper's measured
	// interleaved values (Figure 4) within a few percent.
	ilSeqBW  []float64
	ilRandBW []float64

	fault faultState // link degradation / node-offline state (see degrade.go)

	// tier is the tiered-memory configuration (zero = untiered); the
	// interleaved slow-tier bandwidths are computed when it is armed
	// (see tier.go).
	tier         TierConfig
	ilSlowSeqBW  []float64
	ilSlowRandBW []float64
}

// NewMachine configures nodes sockets with coresPerNode threads each.
// It panics if the request exceeds the topology (a configuration bug).
func NewMachine(t *Topology, nodes, coresPerNode int) *Machine {
	m, err := NewMachineChecked(t, nodes, coresPerNode)
	if err != nil {
		panic(err)
	}
	return m
}

// NewMachineChecked is NewMachine returning an error instead of panicking,
// for callers building machines from user-supplied configuration (cmd
// flags).
func NewMachineChecked(t *Topology, nodes, coresPerNode int) (*Machine, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if nodes < 1 || nodes > t.Sockets {
		return nil, fmt.Errorf("numa: %d nodes requested, topology %q has %d sockets", nodes, t.Name, t.Sockets)
	}
	if coresPerNode < 1 || coresPerNode > t.CoresPerSocket {
		return nil, fmt.Errorf("numa: %d cores/node requested, topology %q has %d cores/socket", coresPerNode, t.Name, t.CoresPerSocket)
	}
	m := &Machine{
		Topo:         t,
		Nodes:        nodes,
		CoresPerNode: coresPerNode,
		physical:     pickSockets(t, nodes),
		alloc:        NewAllocTracker(),
	}
	m.levels = make([]int, nodes*nodes)
	for i := 0; i < nodes; i++ {
		for j := 0; j < nodes; j++ {
			m.levels[i*nodes+j] = t.Level(m.physical[i], m.physical[j])
		}
	}
	m.ilSeqBW = make([]float64, nodes)
	m.ilRandBW = make([]float64, nodes)
	for i := 0; i < nodes; i++ {
		var seqInv, randInv float64
		for j := 0; j < nodes; j++ {
			lvl := m.Level(i, j)
			seqInv += 1 / t.SeqBW[lvl]
			randInv += 1 / t.RandBW[lvl]
		}
		m.ilSeqBW[i] = float64(nodes) / seqInv
		m.ilRandBW[i] = float64(nodes) / randInv
	}
	return m, nil
}

// InterleavedBW returns the effective sequential and random bandwidths a
// thread on the given node sees against interleaved pages.
func (m *Machine) InterleavedBW(node int) (seq, rand float64) {
	return m.ilSeqBW[node], m.ilRandBW[node]
}

// pickSockets greedily selects n sockets minimising the sum of pairwise hop
// levels, starting from socket 0.
func pickSockets(t *Topology, n int) []int {
	chosen := make([]int, 1, n)
	used := make([]bool, t.Sockets)
	used[0] = true
	for len(chosen) < n {
		best, bestCost := -1, 0
		for s := 0; s < t.Sockets; s++ {
			if used[s] {
				continue
			}
			cost := 0
			for _, c := range chosen {
				cost += t.Level(s, c)
			}
			if best == -1 || cost < bestCost {
				best, bestCost = s, cost
			}
		}
		chosen = append(chosen, best)
		used[best] = true
	}
	return chosen
}

// Threads returns the total worker thread count.
func (m *Machine) Threads() int { return m.Nodes * m.CoresPerNode }

// NodeOfThread returns the logical node a global thread id runs on.
func (m *Machine) NodeOfThread(th int) int { return th / m.CoresPerNode }

// Level returns the hop level between two logical nodes.
func (m *Machine) Level(a, b int) int { return m.levels[a*m.Nodes+b] }

// PhysicalSocket returns the physical socket backing a logical node.
func (m *Machine) PhysicalSocket(node int) int { return m.physical[node] }

// Alloc returns the machine's allocation tracker.
func (m *Machine) Alloc() *AllocTracker { return m.alloc }

// LLCTotal returns the aggregate modelled LLC capacity across active nodes.
func (m *Machine) LLCTotal() int64 { return int64(m.Nodes) * m.Topo.LLCBytes }

// NewEpoch returns a fresh traffic ledger for one parallel phase: a
// recycled one of m's shape (Epoch.Recycle) if the spare list holds one,
// else a new one, bound to m and cleared alike.
func (m *Machine) NewEpoch() *Epoch {
	e, _ := spareEpochs.Get(m.epochShape()).(*Epoch)
	if e == nil {
		e = new(Epoch)
	}
	e.bind(m)
	return e
}

// String describes the configuration, e.g. "intel80[4x10]".
func (m *Machine) String() string {
	return fmt.Sprintf("%s[%dx%d]", m.Topo.Name, m.Nodes, m.CoresPerNode)
}

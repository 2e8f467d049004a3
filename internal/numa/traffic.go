package numa

// TrafficMatrix classifies charged memory traffic by accessing node × hop
// level × access pattern, in bytes. It is the per-superstep attribution
// the paper's access-class figures are built from: cell (n, l, Seq) is the
// sequential traffic issued by threads on node n to memory l hops away,
// cell (n, l, Rand) the random traffic (for random accesses only the
// modelled LLC-miss portion reaches memory and is counted here;
// latency-bound operations count at their element size).
//
// The zero value is empty; Resize (or the Epoch.Traffic snapshot, which
// resizes for you) prepares it for a machine.
type TrafficMatrix struct {
	// Nodes and Levels describe the shape: Nodes accessing sockets and
	// Levels hop distances (Topology.MaxLevel()+1).
	Nodes, Levels int
	// Cells holds the classified bytes, indexed
	// (node*Levels+level)*2 + pattern.
	Cells []float64
}

// Resize shapes the matrix for nodes × levels and zeroes every cell. It
// reuses the backing array when large enough, so snapshot loops do not
// allocate after the first call.
func (t *TrafficMatrix) Resize(nodes, levels int) {
	n := nodes * levels * 2
	if cap(t.Cells) < n {
		t.Cells = make([]float64, n)
	}
	t.Cells = t.Cells[:n]
	clear(t.Cells)
	t.Nodes, t.Levels = nodes, levels
}

// At returns the bytes charged by threads on node with the given hop level
// and pattern.
func (t *TrafficMatrix) At(node, level int, p Pattern) float64 {
	return t.Cells[(node*t.Levels+level)*2+int(p)]
}

func (t *TrafficMatrix) add(node, level int, p Pattern, bytes float64) {
	t.Cells[(node*t.Levels+level)*2+int(p)] += bytes
}

// Sub subtracts o cell-wise; used to turn two cumulative snapshots into a
// per-superstep delta. Both matrices must have the same shape.
func (t *TrafficMatrix) Sub(o *TrafficMatrix) {
	if t.Nodes != o.Nodes || t.Levels != o.Levels {
		panic("numa: traffic matrix shape mismatch")
	}
	for i := range t.Cells {
		t.Cells[i] -= o.Cells[i]
	}
}

// Add accumulates o cell-wise. Both matrices must have the same shape.
func (t *TrafficMatrix) Add(o *TrafficMatrix) {
	if t.Nodes != o.Nodes || t.Levels != o.Levels {
		panic("numa: traffic matrix shape mismatch")
	}
	for i := range t.Cells {
		t.Cells[i] += o.Cells[i]
	}
}

// CopyFrom overwrites this matrix with o, resizing as needed.
func (t *TrafficMatrix) CopyFrom(o *TrafficMatrix) {
	t.Resize(o.Nodes, o.Levels)
	copy(t.Cells, o.Cells)
}

// Clone returns an independent copy.
func (t *TrafficMatrix) Clone() *TrafficMatrix {
	c := &TrafficMatrix{}
	c.CopyFrom(t)
	return c
}

// LevelBytes sums one hop level and pattern across all nodes.
func (t *TrafficMatrix) LevelBytes(level int, p Pattern) float64 {
	var s float64
	for n := 0; n < t.Nodes; n++ {
		s += t.At(n, level, p)
	}
	return s
}

// NodeBytes sums all traffic issued from one node.
func (t *TrafficMatrix) NodeBytes(node int) float64 {
	var s float64
	for l := 0; l < t.Levels; l++ {
		s += t.At(node, l, Seq) + t.At(node, l, Rand)
	}
	return s
}

// Total sums every cell.
func (t *TrafficMatrix) Total() float64 {
	var s float64
	for _, b := range t.Cells {
		s += b
	}
	return s
}

// RemoteFraction is the share of bytes that left the accessing node
// (hop level > 0). It returns 0 for an empty matrix.
func (t *TrafficMatrix) RemoteFraction() float64 {
	total := t.Total()
	if total == 0 {
		return 0
	}
	var local float64
	for n := 0; n < t.Nodes; n++ {
		local += t.At(n, 0, Seq) + t.At(n, 0, Rand)
	}
	return (total - local) / total
}

// Traffic snapshots the epoch's cumulative classified traffic into dst,
// resizing it to the machine's shape and aggregating per-thread ledgers by
// the owning node. Tracing takes deltas of successive snapshots to
// attribute traffic to individual supersteps.
//
// On a tiered machine the matrix carries one extra bank of levels: level
// MaxLevel()+1+l is the slow-tier traffic at hop level l: levels past the
// topology's own maximum are the memory below DRAM. Untiered machines keep
// the historical shape exactly.
func (e *Epoch) Traffic(dst *TrafficMatrix) {
	levels := (e.m.Topo.MaxLevel() + 1) * e.m.tiers()
	dst.Resize(e.m.Nodes, levels)
	cpn := e.m.CoresPerNode
	for node, shared := range e.shared {
		// A shared row is added once for each thread it stands for, as
		// the threads' own rows would be.
		lo, hi, k := node*cpn, (node+1)*cpn, 1
		if shared {
			hi, k = lo+1, cpn
		}
		cells := dst.Cells[node*levels*2:]
		for th := lo; th < hi; th++ {
			f, _ := e.rows(th)
			for i, b := range f[e.offClass:e.offSlow] {
				for range k {
					cells[i] += b
				}
			}
		}
	}
}

// The deterministic inter-machine network: every machine pair is one
// full-duplex link that a fault can cut or degrade. Logical transfers
// are routed over surviving links (shortest hop path, lowest machine id
// breaking ties) and charged per traversed segment — a relayed byte
// costs every hop it crosses, the cluster analogue of the NUMA ledger's
// hop-level pricing.

package cluster

// network tracks link state and per-round / cumulative byte ledgers.
// It is only mutated single-threaded (between phases and rounds), so it
// needs no locking.
type network struct {
	n    int
	cost NetCost
	// up and factor are symmetric link state: up[i][j] false means the
	// link is cut; factor scales bandwidth (1 = healthy).
	up     [][]bool
	factor [][]float64
	// round and cum are directed per-segment byte ledgers; round resets
	// at commit (or discard on rollback).
	round [][]float64
	cum   [][]float64
	// maxHops is the longest route used this round, for the latency term.
	maxHops int

	// scratch for BFS routing.
	prev  []int
	queue []int
}

func newNetwork(n int, cost NetCost) *network {
	nw := &network{n: n, cost: cost, prev: make([]int, n), queue: make([]int, 0, n)}
	mk := func() [][]float64 {
		m := make([][]float64, n)
		for i := range m {
			m[i] = make([]float64, n)
		}
		return m
	}
	nw.round, nw.cum = mk(), mk()
	nw.factor = mk()
	nw.up = make([][]bool, n)
	for i := range nw.up {
		nw.up[i] = make([]bool, n)
		for j := range nw.up[i] {
			nw.up[i][j] = i != j
			nw.factor[i][j] = 1
		}
	}
	return nw
}

// cut severs the a-b link (both directions, permanently).
func (nw *network) cut(a, b int) {
	nw.up[a][b], nw.up[b][a] = false, false
}

// degrade multiplies the a-b link bandwidth by f (both directions).
func (nw *network) degrade(a, b int, f float64) {
	if f <= 0 {
		f = 0.01
	}
	nw.factor[a][b] *= f
	nw.factor[b][a] *= f
}

// route finds the shortest up-link path between two live machines,
// writing it into nw.prev. It returns the hop count, or -1 if
// unreachable. Neighbors are visited in id order, so the chosen path is
// deterministic.
func (nw *network) route(from, to int, alive []bool) int {
	if from == to {
		return 0
	}
	for i := range nw.prev {
		nw.prev[i] = -1
	}
	nw.prev[from] = from
	nw.queue = nw.queue[:0]
	nw.queue = append(nw.queue, from)
	for qi := 0; qi < len(nw.queue); qi++ {
		u := nw.queue[qi]
		for v := 0; v < nw.n; v++ {
			if nw.prev[v] >= 0 || !nw.up[u][v] || !alive[v] {
				continue
			}
			nw.prev[v] = u
			if v == to {
				hops := 0
				for w := to; w != from; w = nw.prev[w] {
					hops++
				}
				return hops
			}
			nw.queue = append(nw.queue, v)
		}
	}
	return -1
}

// transfer charges bytes along the from->to route, per traversed
// segment. It reports false (charging nothing) if no route exists.
func (nw *network) transfer(from, to int, bytes float64, alive []bool) bool {
	if from == to || bytes <= 0 {
		return true
	}
	hops := nw.route(from, to, alive)
	if hops < 0 {
		return false
	}
	for w := to; w != from; w = nw.prev[w] {
		nw.round[nw.prev[w]][w] += bytes
	}
	if hops > nw.maxHops {
		nw.maxHops = hops
	}
	return true
}

// component returns the primary component among live machines: the
// largest connected one, with ties broken toward the component holding
// the lowest machine id (quorum by size, deterministic). Dead machines
// are never members.
func (nw *network) component(alive []bool) []bool {
	best := make([]bool, nw.n)
	bestSize := 0
	seen := make([]bool, nw.n)
	for root := 0; root < nw.n; root++ {
		if !alive[root] || seen[root] {
			continue
		}
		comp := make([]bool, nw.n)
		comp[root], seen[root] = true, true
		size := 1
		nw.queue = nw.queue[:0]
		nw.queue = append(nw.queue, root)
		for qi := 0; qi < len(nw.queue); qi++ {
			u := nw.queue[qi]
			for v := 0; v < nw.n; v++ {
				if !comp[v] && alive[v] && nw.up[u][v] {
					comp[v], seen[v] = true, true
					size++
					nw.queue = append(nw.queue, v)
				}
			}
		}
		// Scanning roots in id order makes ">" prefer the lowest-id
		// component on equal size.
		if size > bestSize {
			best, bestSize = comp, size
		}
	}
	return best
}

// roundSeconds prices the round's network phase: links drain in
// parallel, so the phase lasts as long as the most loaded segment, plus
// per-hop latency for the deepest route used.
func (nw *network) roundSeconds() float64 {
	var slowest float64
	for i := range nw.round {
		for j, b := range nw.round[i] {
			if b <= 0 {
				continue
			}
			if s := b / (nw.cost.MBps * 1e6 * nw.factor[i][j]); s > slowest {
				slowest = s
			}
		}
	}
	if slowest > 0 {
		slowest += nw.cost.LatencySec * float64(nw.maxHops)
	}
	return slowest
}

// roundBytesFrom sums the bytes machine `from` put on the wire this
// round (first segment of every route it originated or relayed).
func (nw *network) roundBytesFrom(from int) float64 {
	var s float64
	for _, b := range nw.round[from] {
		s += b
	}
	return s
}

// commitRound folds the round ledger into the cumulative one.
func (nw *network) commitRound() {
	for i := range nw.round {
		for j, b := range nw.round[i] {
			nw.cum[i][j] += b
			nw.round[i][j] = 0
		}
	}
	nw.maxHops = 0
}

// discardRound drops the round ledger (rollback path).
func (nw *network) discardRound() {
	for i := range nw.round {
		for j := range nw.round[i] {
			nw.round[i][j] = 0
		}
	}
	nw.maxHops = 0
}

// cumLinks returns a copy of the cumulative per-segment matrix.
func (nw *network) cumLinks() [][]float64 {
	out := make([][]float64, nw.n)
	for i := range out {
		out[i] = append([]float64(nil), nw.cum[i]...)
	}
	return out
}

package numa

import "fmt"

// Fault state of a Machine: the simulated substrate can degrade the
// bandwidth of individual node pairs and mark nodes offline. The fault
// injector (package fault) arms these before a superstep and reverts them
// when the fault is repaired; the default (healthy) machine pays zero cost
// for the capability — the Access hot paths consult the factors only when
// the degraded flag is set.

// faultState is carried by Machine; zero value = healthy.
type faultState struct {
	degraded bool        // any link factor != 1
	factor   [][]float64 // node pair -> bandwidth multiplier in (0, 1]
	offline  []bool      // node -> offline flag
}

func (m *Machine) ensureFaultState() {
	if m.fault.factor != nil {
		return
	}
	m.fault.factor = make([][]float64, m.Nodes)
	for i := range m.fault.factor {
		m.fault.factor[i] = make([]float64, m.Nodes)
		for j := range m.fault.factor[i] {
			m.fault.factor[i][j] = 1
		}
	}
	m.fault.offline = make([]bool, m.Nodes)
}

// DegradeLink multiplies the bandwidth of the a<->b node pair by factor
// (0 < factor <= 1). A factor of 1 repairs the link. Local accesses
// (a == b) can be degraded too, modelling a failing memory controller.
func (m *Machine) DegradeLink(a, b int, factor float64) error {
	if a < 0 || a >= m.Nodes || b < 0 || b >= m.Nodes {
		return fmt.Errorf("numa: degrade link %d-%d outside %d nodes", a, b, m.Nodes)
	}
	if factor <= 0 || factor > 1 {
		return fmt.Errorf("numa: link factor %g outside (0, 1]", factor)
	}
	m.ensureFaultState()
	m.fault.factor[a][b] = factor
	m.fault.factor[b][a] = factor
	m.recomputeDegraded()
	return nil
}

// RepairLink restores the a<->b pair to full bandwidth.
func (m *Machine) RepairLink(a, b int) {
	if m.fault.factor == nil || a < 0 || a >= m.Nodes || b < 0 || b >= m.Nodes {
		return
	}
	m.fault.factor[a][b] = 1
	m.fault.factor[b][a] = 1
	m.recomputeDegraded()
}

// RepairAllLinks restores every pair to full bandwidth.
func (m *Machine) RepairAllLinks() {
	if m.fault.factor == nil {
		return
	}
	for i := range m.fault.factor {
		for j := range m.fault.factor[i] {
			m.fault.factor[i][j] = 1
		}
	}
	m.fault.degraded = false
}

func (m *Machine) recomputeDegraded() {
	m.fault.degraded = false
	for i := range m.fault.factor {
		for _, f := range m.fault.factor[i] {
			if f != 1 {
				m.fault.degraded = true
				return
			}
		}
	}
}

// Degraded reports whether any link is currently running below full
// bandwidth.
func (m *Machine) Degraded() bool { return m.fault.degraded }

// linkScale is the epoch-charging fast path: 1 unless faults are armed.
func (m *Machine) linkScale(from, to int) float64 {
	if !m.fault.degraded {
		return 1
	}
	return m.fault.factor[from][to]
}

// worstLinkScale returns the smallest factor on any link touching node
// from; interleaved traffic crosses every link, so it is charged at the
// most degraded one (conservative).
func (m *Machine) worstLinkScale(from int) float64 {
	if !m.fault.degraded {
		return 1
	}
	worst := 1.0
	for to := 0; to < m.Nodes; to++ {
		if f := m.fault.factor[from][to]; f < worst {
			worst = f
		}
	}
	return worst
}

// SetNodeOffline marks a node offline (or back online with false). The
// flag is advisory: the execution layer (par.Pool fault hook) is what
// actually fails the node's workers; the machine records it so reports
// and assertions can query the armed state.
func (m *Machine) SetNodeOffline(node int, offline bool) error {
	if node < 0 || node >= m.Nodes {
		return fmt.Errorf("numa: node %d outside %d nodes", node, m.Nodes)
	}
	m.ensureFaultState()
	m.fault.offline[node] = offline
	return nil
}

// NodeOffline reports whether a node is currently marked offline.
func (m *Machine) NodeOffline(node int) bool {
	if m.fault.offline == nil || node < 0 || node >= m.Nodes {
		return false
	}
	return m.fault.offline[node]
}

// Derived values and lineages. A graph memoises values derived from its
// topology (Derived). A graph that Patch made from another keeps a link to
// its predecessor's values and the edits between the two, so a value the
// successor derives can be patched from the predecessor's instead of being
// built from the edge arrays: a mutation lineage, not each snapshot, owns
// what is derived from it.

package graph

import (
	"slices"
	"sync"
	"weak"
)

// memo is one root graph's derived values and its link into a lineage. It
// is an allocation of its own, so the link keeps the predecessor's values
// reachable but not its edge arrays.
type memo struct {
	mu    sync.Mutex
	slots map[string]*derivedSlot
	// parent is the memo of the graph Patch made this one from, and deleted
	// and appended the edits it applied. It is nil on a graph no Patch made,
	// and once this graph has been patched in turn (superseded), so at most
	// one generation behind the newest stays reachable through links.
	parent            *memo
	deleted, appended []Edge
	// head marks a lineage head (MarkHead), which holds its values
	// strongly; seq is its mutation sequence number.
	head bool
	seq  uint64
}

// derivedSlot is one key's memo: its mutex serialises the key's builds,
// ptr is the weak.Pointer[T] to the last value (nil before the first), and
// strong the *T itself while a lineage head holds it.
type derivedSlot struct {
	mu     sync.Mutex
	ptr    any
	strong any
}

// memoOf returns g's memo, creating it on first use; g is a root.
func (g *Graph) memoOf() *memo {
	g.memoMu.Lock()
	defer g.memoMu.Unlock()
	if g.memo == nil {
		g.memo = &memo{}
	}
	return g.memo
}

// slot returns the memo's slot for key, creating it on first use.
func (m *memo) slot(key string) *derivedSlot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.slots[key]
	if s == nil {
		if m.slots == nil {
			m.slots = make(map[string]*derivedSlot)
		}
		s = &derivedSlot{}
		m.slots[key] = s
	}
	return s
}

// value returns the slot's live value, nil if there is none. The caller
// holds s.mu.
func value[T any](s *derivedSlot) *T {
	if v, ok := s.strong.(*T); ok {
		return v
	}
	if p, ok := s.ptr.(weak.Pointer[T]); ok {
		return p.Value()
	}
	return nil
}

// handOver returns the memo's live value under key, nil if there is none,
// and drops the memo's strong hold on it: the successor asking for it is
// about to hold its own.
func handOver[T any](m *memo, key string) *T {
	m.mu.Lock()
	s := m.slots[key]
	m.mu.Unlock()
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v := value[T](s)
	s.strong = nil
	return v
}

// Derived returns the value derived from g's topology under key. The memo
// lives on the root graph, so g and its Unweighted view share it, and
// build and patch always receive the root (it carries the weights when
// there are any). Every caller with the same key gets the same *T, made
// once; concurrent callers wait on that one (do not modify it).
//
// When g is a snapshot Patch made and its predecessor still holds a value
// under key, the value is patch(prev, root, deleted, appended), the
// predecessor's value carried across the edits Patch applied; otherwise,
// or when patch is nil, it is build(root). patch must return what build
// would on the same graph.
//
// A graph holds its values through weak pointers: a value is shared while
// some caller keeps it and is freed by the next GC after the last one drops
// it; the call after that makes it again. A lineage head (MarkHead) holds
// its values strongly instead, until its successor derives its own under
// the same key. key must name T and every input of build and patch besides
// the topology; neither may ask for its own key.
func Derived[T any](g *Graph, key string, build func(root *Graph) *T, patch func(prev *T, root *Graph, deleted, appended []Edge) *T) *T {
	if g.root != nil {
		g = g.root
	}
	m := g.memoOf()
	s := m.slot(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if v := value[T](s); v != nil {
		return v
	}
	m.mu.Lock()
	parent, deleted, appended, head := m.parent, m.deleted, m.appended, m.head
	m.mu.Unlock()
	var v *T
	if parent != nil {
		if prev := handOver[T](parent, key); prev != nil && patch != nil {
			v = patch(prev, g, deleted, appended)
		}
	}
	if v == nil {
		v = build(g)
	}
	s.ptr = weak.Make(v)
	if head {
		s.strong = v
	}
	return v
}

// link makes p g's successor in g's lineage under the given edits, and
// supersedes g: g drops its own link, so a chain of patches keeps at most
// one predecessor's values reachable. A view has no lineage of its own (its
// values are its root's), so patching one links nothing.
func (g *Graph) link(p *Graph, deleted, appended []Edge) {
	if g.root != nil {
		return
	}
	m := g.memoOf()
	m.mu.Lock()
	m.parent, m.deleted, m.appended = nil, nil, nil
	m.mu.Unlock()
	p.memo = &memo{parent: m, deleted: slices.Clone(deleted), appended: slices.Clone(appended)}
}

// MarkHead makes g the head of its lineage at mutation sequence number
// seq, before anything is derived on it: from then on g holds the values
// derived on it strongly, so its successor finds them to patch from however
// much the process allocates in between. Base graphs are not marked and
// hold their values weakly, which keeps a server's resident set at what its
// running engines use.
func (g *Graph) MarkHead(seq uint64) {
	if g.root != nil {
		g = g.root
	}
	m := g.memoOf()
	m.mu.Lock()
	m.head, m.seq = true, seq
	m.mu.Unlock()
}

// Seq returns the mutation sequence number MarkHead gave g (through its
// root for a view), 0 for a graph never marked.
func (g *Graph) Seq() uint64 {
	if g.root != nil {
		g = g.root
	}
	g.memoMu.Lock()
	m := g.memo
	g.memoMu.Unlock()
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seq
}

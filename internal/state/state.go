// Package state implements graph runtime state: the set of active
// vertices for the current and next iteration.
//
// Polymer's runtime states are partitioned per NUMA node and reached
// through a lock-less lookup table (paper Section 4.2): each node owns the
// leaf covering its vertex range. A leaf is either a dense bitmap —
// efficient when a large proportion of vertices is active — or a set of
// per-thread append-only queues, merged and de-duplicated when the subset
// is sealed (Section 5, "Adaptive Data Structures"). ShouldDense
// implements the Ligra-style switching heuristic the engines use.
package state

import (
	"math/bits"
	"slices"
	"sort"
)

// Subset is an immutable set of vertices over [0, n), partitioned into
// per-node leaves. n and the partition come from the bounds slice
// (len nodes+1, bounds[0]=0, bounds[nodes]=n).
type Subset struct {
	bounds []int
	count  int64
	degree int64 // cached out-degree sum of the active vertices; -1 unknown
	dense  bool
	words  [][]uint64 // dense: per-node bitmap; bit i = vertex bounds[p]+i
	lists  [][]uint32 // sparse: per-node ascending vertex ids (global)
}

// NewAll returns the dense subset containing every vertex.
func NewAll(bounds []int) *Subset {
	nodes := len(bounds) - 1
	s := &Subset{bounds: bounds, degree: -1, dense: true, words: make([][]uint64, nodes)}
	for p := 0; p < nodes; p++ {
		ln := bounds[p+1] - bounds[p]
		w := make([]uint64, (ln+63)/64)
		for i := range w {
			w[i] = ^uint64(0)
		}
		if r := ln % 64; r != 0 && ln > 0 {
			w[len(w)-1] = (1 << r) - 1
		}
		s.words[p] = w
	}
	s.count = int64(bounds[nodes])
	return s
}

// NewEmpty returns the empty sparse subset.
func NewEmpty(bounds []int) *Subset {
	nodes := len(bounds) - 1
	return &Subset{bounds: bounds, lists: make([][]uint32, nodes)}
}

// NewSingle returns the sparse subset {v}.
func NewSingle(bounds []int, v uint32) *Subset {
	s := NewEmpty(bounds)
	s.degree = -1
	p := nodeOf(bounds, v)
	s.lists[p] = []uint32{v}
	s.count = 1
	return s
}

// FromVertices returns a sparse subset of the given vertices (duplicates
// are removed).
func FromVertices(bounds []int, vs []uint32) *Subset {
	b := NewBuilder(bounds, 1, false)
	for _, v := range vs {
		b.Add(0, v)
	}
	return b.Build()
}

// Degree returns the cached out-degree sum of the active vertices, if one
// was recorded while the subset was built (or memoized afterwards). The
// engines' adaptive dense/sparse switch reads this instead of re-scanning
// the frontier on every EdgeMap.
func (s *Subset) Degree() (int64, bool) {
	if s.degree < 0 {
		return 0, false
	}
	return s.degree, true
}

// SetDegree memoizes the out-degree sum of the active vertices. The value
// must equal the sum a full scan would produce; callers that compute it
// lazily (sg.ActiveDegree) store it here so repeated EdgeMaps over the
// same subset pay the scan once. Not safe for concurrent use.
func (s *Subset) SetDegree(d int64) { s.degree = d }

func nodeOf(bounds []int, v uint32) int {
	lo, hi := 0, len(bounds)-2
	for lo < hi {
		mid := (lo + hi) / 2
		if bounds[mid+1] <= int(v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Nodes returns the number of per-node leaves.
func (s *Subset) Nodes() int { return len(s.bounds) - 1 }

// Bounds returns the partition offsets backing the lookup table.
func (s *Subset) Bounds() []int { return s.bounds }

// Count returns the number of active vertices.
func (s *Subset) Count() int64 { return s.count }

// IsEmpty reports whether no vertex is active.
func (s *Subset) IsEmpty() bool { return s.count == 0 }

// Dense reports whether the subset uses bitmap leaves.
func (s *Subset) Dense() bool { return s.dense }

// Contains reports whether v is active. For sparse subsets this is a
// binary search in the owning leaf.
func (s *Subset) Contains(v uint32) bool {
	p := nodeOf(s.bounds, v)
	if s.dense {
		i := int(v) - s.bounds[p]
		return s.words[p][i/64]&(1<<(i%64)) != 0
	}
	l := s.lists[p]
	k := sort.Search(len(l), func(i int) bool { return l[i] >= v })
	return k < len(l) && l[k] == v
}

// Words returns node p's bitmap leaf (dense subsets only).
func (s *Subset) Words(p int) []uint64 {
	if !s.dense {
		panic("state: Words on sparse subset")
	}
	return s.words[p]
}

// List returns node p's vertex list (sparse subsets only), ascending.
func (s *Subset) List(p int) []uint32 {
	if s.dense {
		panic("state: List on dense subset")
	}
	return s.lists[p]
}

// ForEachInNode calls fn for every active vertex owned by node p, in
// ascending order.
func (s *Subset) ForEachInNode(p int, fn func(v uint32)) {
	if s.dense {
		base := s.bounds[p]
		for wi, w := range s.words[p] {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				fn(uint32(base + wi*64 + b))
				w &= w - 1
			}
		}
		return
	}
	for _, v := range s.lists[p] {
		fn(v)
	}
}

// ForEach calls fn for every active vertex, node by node, ascending.
func (s *Subset) ForEach(fn func(v uint32)) {
	for p := 0; p < s.Nodes(); p++ {
		s.ForEachInNode(p, fn)
	}
}

// ToDense returns a dense view of the subset (itself if already dense).
func (s *Subset) ToDense() *Subset {
	if s.dense {
		return s
	}
	nodes := s.Nodes()
	d := &Subset{bounds: s.bounds, dense: true, count: s.count, degree: s.degree, words: make([][]uint64, nodes)}
	for p := 0; p < nodes; p++ {
		ln := s.bounds[p+1] - s.bounds[p]
		w := make([]uint64, (ln+63)/64)
		for _, v := range s.lists[p] {
			i := int(v) - s.bounds[p]
			w[i/64] |= 1 << (i % 64)
		}
		d.words[p] = w
	}
	return d
}

// ToSparse returns a sparse view of the subset (itself if already sparse).
func (s *Subset) ToSparse() *Subset {
	if !s.dense {
		return s
	}
	nodes := s.Nodes()
	d := &Subset{bounds: s.bounds, count: s.count, degree: s.degree, lists: make([][]uint32, nodes)}
	for p := 0; p < nodes; p++ {
		l := make([]uint32, 0, 16)
		s.ForEachInNode(p, func(v uint32) { l = append(l, v) })
		d.lists[p] = l
	}
	return d
}

// Builder accumulates the next iteration's active set. It supports both
// collection styles: Set for dense bitmap leaves, and Add for per-thread
// queues (as in the paper's per-core private queues). A builder belongs to
// one phase and so to one goroutine (par.Pool.Run); th names the simulated
// thread a call is made for.
//
// When a degree function is attached (WithDegrees), the builder also
// accumulates the out-degree sum of the collected vertices —
// Ligra computes |V_a|+|E_a| this way — and stores it on the built Subset,
// making the engines' adaptive dense/sparse decision O(1).
type Builder struct {
	bounds   []int
	dense    bool
	words    [][]uint64
	queues   [][]uint32
	degreeOf func(v uint32) int64
	degree   int64 // out-degree sum of the vertices collected so far
}

// BuilderScratch holds a reusable builder and its per-thread buffers. An
// engine keeps one per instance and takes every phase's builder from it
// (Builder), so steady-state iterations reuse the builder and the queue
// table instead of reallocating them. The dense bitmap
// leaves are NOT pooled: Build hands them to the returned Subset, whose
// lifetime the engine does not control.
type BuilderScratch struct {
	b      Builder
	queues [][]uint32
}

// Builder returns the scratch's builder, emptied and set up like
// NewBuilder(bounds, threads, dense).WithDegrees(degreeOf). It is valid
// until the next call: an engine runs one phase at a time and seals each
// phase's builder (Build) before it starts the next.
func (s *BuilderScratch) Builder(bounds []int, threads int, dense bool, degreeOf func(v uint32) int64) *Builder {
	s.b = Builder{bounds: bounds, dense: dense, degreeOf: degreeOf}
	if dense {
		s.b.words = denseWords(bounds)
		return &s.b
	}
	if len(s.queues) < threads {
		q := make([][]uint32, threads)
		copy(q, s.queues)
		s.queues = q
	}
	s.b.queues = s.queues[:threads]
	for i := range s.b.queues {
		s.b.queues[i] = s.b.queues[i][:0]
	}
	return &s.b
}

// NewBuilder returns a builder over the partition for the given number of
// worker threads. dense selects bitmap collection.
func NewBuilder(bounds []int, threads int, dense bool) *Builder {
	b := &Builder{bounds: bounds, dense: dense}
	if dense {
		b.words = denseWords(bounds)
	} else {
		b.queues = make([][]uint32, threads)
	}
	return b
}

// denseWords allocates one zeroed bitmap leaf per node.
func denseWords(bounds []int) [][]uint64 {
	words := make([][]uint64, len(bounds)-1)
	for p := range words {
		words[p] = make([]uint64, (bounds[p+1]-bounds[p]+63)/64)
	}
	return words
}

// WithDegrees attaches the out-degree function used to accumulate the
// built subset's active degree while vertices are collected.
func (b *Builder) WithDegrees(degreeOf func(v uint32) int64) *Builder {
	b.degreeOf = degreeOf
	return b
}

// Dense reports the collection style.
func (b *Builder) Dense() bool { return b.dense }

// Set marks v active (dense collection). The thread id is not needed — a
// bitmap leaf is shared by all threads — and is accepted so that Set and
// Add read alike at the call site.
func (b *Builder) Set(_ int, v uint32) {
	b.SetIn(nodeOf(b.bounds, v), v)
}

// SetIn is Set for callers that already know v's owning node p (Polymer's
// push targets are always node-local), skipping the partition lookup.
func (b *Builder) SetIn(p int, v uint32) {
	i := int(v) - b.bounds[p]
	w := &b.words[p][i/64]
	mask := uint64(1) << (i % 64)
	if *w&mask != 0 {
		return
	}
	*w |= mask
	if b.degreeOf != nil {
		b.degree += b.degreeOf(v) // once per vertex: only the 0->1 transition counts
	}
}

// Add appends v to thread th's private queue (sparse collection; each
// thread must only use its own th).
func (b *Builder) Add(th int, v uint32) {
	b.queues[th] = append(b.queues[th], v)
	if b.degreeOf != nil {
		b.degree += b.degreeOf(v)
	}
}

// Build seals the builder into a Subset. Sparse queues are merged, sorted,
// de-duplicated and split into their owning nodes' leaves.
func (b *Builder) Build() *Subset {
	nodes := len(b.bounds) - 1
	degree := int64(-1)
	if b.degreeOf != nil {
		degree = b.degree
	}
	if b.dense {
		s := &Subset{bounds: b.bounds, degree: degree, dense: true, words: b.words}
		for p := 0; p < nodes; p++ {
			for _, w := range b.words[p] {
				s.count += int64(bits.OnesCount64(w))
			}
		}
		return s
	}
	// Partitions are contiguous id ranges, so one sort over every queue
	// leaves each node's vertices adjacent: a single backing array, sized
	// once, is carved into the per-node leaves.
	total := 0
	for _, q := range b.queues {
		total += len(q)
	}
	all := make([]uint32, 0, total)
	for _, q := range b.queues {
		all = append(all, q...)
	}
	slices.Sort(all)
	// De-duplicate in place; duplicates were counted once per Add, so
	// their degree is subtracted to keep the cached sum exact.
	out := all[:0]
	for i, v := range all {
		if i == 0 || v != all[i-1] {
			out = append(out, v)
		} else if b.degreeOf != nil {
			degree -= b.degreeOf(v)
		}
	}
	s := &Subset{bounds: b.bounds, degree: degree, count: int64(len(out)), lists: make([][]uint32, nodes)}
	lo := 0
	for p := range s.lists {
		hi := lo
		for hi < len(out) && int(out[hi]) < b.bounds[p+1] {
			hi++
		}
		s.lists[p] = out[lo:hi:hi]
		lo = hi
	}
	return s
}

// ShouldDense implements the adaptive switching heuristic (Ligra's rule,
// adopted by Polymer): use dense bitmap leaves when the active vertices
// plus their total degree exceed a fraction of the edge count.
func ShouldDense(activeCount, activeDegree, numEdges int64, threshold float64) bool {
	if threshold <= 0 {
		threshold = 20
	}
	return float64(activeCount+activeDegree) > float64(numEdges)/threshold
}

// Bytes estimates the subset's simulated memory footprint.
func (s *Subset) Bytes() int64 {
	var b int64
	if s.dense {
		for _, w := range s.words {
			b += int64(len(w)) * 8
		}
	} else {
		for _, l := range s.lists {
			b += int64(len(l)) * 4
		}
	}
	return b + int64(len(s.bounds))*8
}

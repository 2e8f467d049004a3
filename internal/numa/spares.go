package numa

import "sync"

// Spares is a process-wide spare list of host storage, one sync.Pool per
// key: a closed engine puts what it no longer needs under the key of its
// shape, and the next engine of that shape takes it out before it makes
// anything new. A pool keeps what it holds only until the garbage
// collector empties it, and starts no goroutine. The zero value is an
// empty list. mem's spare arrays, the spare ledgers (Epoch.Recycle) and
// sg's spare sweep scratch are each one Spares.
type Spares[K comparable] struct {
	mu    sync.Mutex
	pools map[K]*sync.Pool
}

// Get returns something put under k, or nil when the list holds nothing
// for k.
func (s *Spares[K]) Get(k K) any { return s.pool(k).Get() }

// Put hands x to the list under k.
func (s *Spares[K]) Put(k K, x any) { s.pool(k).Put(x) }

// pool returns k's pool, made on first use.
func (s *Spares[K]) pool(k K) *sync.Pool {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.pools[k]
	if p == nil {
		if s.pools == nil {
			s.pools = make(map[K]*sync.Pool)
		}
		p = new(sync.Pool)
		s.pools[k] = p
	}
	return p
}

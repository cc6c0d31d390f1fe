package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Store is the session table: one lock, one map and one LRU list. A
// configurable cap bounds the resident sessions exactly; registering at
// the cap evicts the least-recently-used session.
type Store struct {
	mu   sync.Mutex
	byID map[string]*list.Element
	lru  *list.List // front = most recently used; values are *Session
	// maxSessions is resizable at runtime (the control plane applies its
	// plan's admission capacity to the live cap); 0 = unbounded.
	maxSessions atomic.Int64
	evictions   atomic.Int64
}

// NewStore builds a store holding at most maxSessions sessions
// (0 = unbounded).
func NewStore(maxSessions int) *Store {
	s := &Store{byID: make(map[string]*list.Element), lru: list.New()}
	s.SetMaxSessions(maxSessions)
	return s
}

// SetMaxSessions moves the live session cap (≤ 0 = unbounded). Shrinking
// does not evict immediately: the next registration evicts the LRU
// sessions down to the new cap.
func (s *Store) SetMaxSessions(maxSessions int) {
	s.maxSessions.Store(int64(max(maxSessions, 0)))
}

// MaxSessions reports the live session cap (0 = unbounded).
func (s *Store) MaxSessions() int { return int(s.maxSessions.Load()) }

// Register adds a new session, evicting LRU sessions while the table is
// at the cap. A live session under the same ID is rejected with
// ErrDuplicateSession — re-registration must go through an explicit rekey
// so an impostor (or a client bug) cannot silently reset a session's keys
// and counters mid-stream.
func (s *Store) Register(sess *Session) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byID[sess.ID]; ok {
		return ErrDuplicateSession
	}
	for limit := s.MaxSessions(); limit > 0 && len(s.byID) >= limit; {
		s.removeLocked(s.lru.Back())
		s.evictions.Add(1)
	}
	s.byID[sess.ID] = s.lru.PushFront(sess)
	return nil
}

// removeLocked drops one resident session. Callers hold s.mu.
func (s *Store) removeLocked(el *list.Element) {
	s.lru.Remove(el)
	delete(s.byID, el.Value.(*Session).ID)
}

// Get looks a session up and marks it most recently used.
func (s *Store) Get(id string) (*Session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byID[id]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*Session), true
}

// Peek looks a session up without refreshing its LRU position — for
// stats and monitoring reads that must not protect idle sessions from
// eviction.
func (s *Store) Peek(id string) (*Session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byID[id]
	if !ok {
		return nil, false
	}
	return el.Value.(*Session), true
}

// SweepExpired removes sessions whose resume window has expired: no
// attached connections and detached since before the cutoff (unix nanos).
// Sessions that never attached a connection (detach time 0) are left
// alone — they belong to direct store users, not the resume machinery.
// Returns the number of sessions reclaimed.
func (s *Store) SweepExpired(cutoffUnixNano int64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	reclaimed := 0
	for el := s.lru.Front(); el != nil; {
		next := el.Next()
		if since, detached := el.Value.(*Session).Detached(); detached && since != 0 && since < cutoffUnixNano {
			s.removeLocked(el)
			reclaimed++
		}
		el = next
	}
	return reclaimed
}

// Detached counts resident sessions with no attached connection — the
// population currently inside the resume window.
func (s *Store) Detached() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for el := s.lru.Front(); el != nil; el = el.Next() {
		if since, detached := el.Value.(*Session).Detached(); detached && since != 0 {
			total++
		}
	}
	return total
}

// Len counts resident sessions.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID)
}

// Evictions counts sessions displaced by the cap since construction.
func (s *Store) Evictions() int64 { return s.evictions.Load() }

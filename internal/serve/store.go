package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Store is the session table: one lock, one map and one LRU list. The
// cap it is built with bounds the resident sessions exactly; registering
// at the cap evicts the least-recently-used session. A session leaves by
// that eviction or by Remove, which the edge server calls when the
// connection that registered the session ends.
type Store struct {
	mu          sync.Mutex
	byID        map[string]*list.Element
	lru         *list.List // front = most recently used; values are *Session
	maxSessions int        // the built cap; 0 = unbounded
	evictions   atomic.Int64
}

// NewStore builds a store holding at most maxSessions sessions
// (≤ 0 = unbounded).
func NewStore(maxSessions int) *Store {
	return &Store{byID: make(map[string]*list.Element), lru: list.New(), maxSessions: max(maxSessions, 0)}
}

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
	for s.maxSessions > 0 && len(s.byID) >= s.maxSessions {
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

// Touch marks sess most recently used if it is the session its ID names
// now, and reports whether it is: Get by identity, for a caller that
// already holds the session and must neither see nor refresh another one
// registered under the same ID since.
func (s *Store) Touch(sess *Session) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byID[sess.ID]
	if !ok || el.Value.(*Session) != sess {
		return false
	}
	s.lru.MoveToFront(el)
	return true
}

// Remove drops sess if it is the session its ID names now, and reports
// whether it was. It removes by identity, not by ID: a connection's
// teardown releases the session that connection registered, never one
// registered since under the same ID. A removal is not an eviction.
func (s *Store) Remove(sess *Session) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byID[sess.ID]
	if !ok || el.Value.(*Session) != sess {
		return false
	}
	s.removeLocked(el)
	return true
}

// Len counts resident sessions.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID)
}

// Evictions counts sessions displaced by the cap since construction.
func (s *Store) Evictions() int64 { return s.evictions.Load() }

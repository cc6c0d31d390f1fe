package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// DefaultShards is the shard count used for large session caps.
const DefaultShards = 16

// Store is a sharded session table: session IDs hash to shards, each with
// its own lock, map and LRU list, so concurrent clients on different
// shards never contend. A configurable cap bounds the resident sessions;
// registering past the cap evicts the least-recently-used session of the
// target shard (the cap divides evenly across shards, so with more than
// one shard it is enforced approximately — exactly per shard, globally
// within one shard's worth of slack). Small caps select a single shard so
// eviction order is exact.
type Store struct {
	shards []storeShard
	mask   uint32
	// maxSessions and shardCap are resizable at runtime (the control
	// plane applies its plan's admission capacity to the live cap);
	// 0 = unbounded.
	maxSessions atomic.Int64
	shardCap    atomic.Int64
	evictions   atomic.Int64
}

type storeShard struct {
	mu   sync.Mutex
	byID map[string]*list.Element
	lru  *list.List // front = most recently used; values are *Session
}

// NewStore builds a store holding at most maxSessions sessions
// (0 = unbounded). Caps below 4×DefaultShards get a single shard for
// exact LRU order; larger caps are sharded DefaultShards ways.
func NewStore(maxSessions int) *Store {
	shards := DefaultShards
	if maxSessions > 0 && maxSessions < 4*DefaultShards {
		shards = 1
	}
	return NewStoreShards(shards, maxSessions)
}

// NewStoreShards builds a store with an explicit shard count (rounded up
// to a power of two) and session cap (0 = unbounded).
func NewStoreShards(shards, maxSessions int) *Store {
	if shards < 1 {
		shards = 1
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	s := &Store{shards: make([]storeShard, n), mask: uint32(n - 1)}
	s.SetMaxSessions(maxSessions)
	for i := range s.shards {
		s.shards[i] = storeShard{byID: make(map[string]*list.Element), lru: list.New()}
	}
	return s
}

// SetMaxSessions moves the live session cap (≤ 0 = unbounded). The shard
// count is fixed at construction, so the cap is redistributed across the
// existing shards. Shrinking does not evict immediately: overfull shards
// evict their LRU down to the new cap as registrations arrive.
func (s *Store) SetMaxSessions(maxSessions int) {
	if maxSessions < 0 {
		maxSessions = 0
	}
	cap := 0
	if maxSessions > 0 {
		n := len(s.shards)
		cap = (maxSessions + n - 1) / n
	}
	s.maxSessions.Store(int64(maxSessions))
	s.shardCap.Store(int64(cap))
}

// MaxSessions reports the live session cap (0 = unbounded).
func (s *Store) MaxSessions() int { return int(s.maxSessions.Load()) }

// shard picks the shard for an ID by FNV-1a hash.
func (s *Store) shard(id string) *storeShard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return &s.shards[h&s.mask]
}

// Register adds a new session, evicting the shard's LRU session if the
// cap is reached. A live session under the same ID is rejected with
// ErrDuplicateSession — re-registration must go through an explicit rekey
// so an impostor (or a client bug) cannot silently reset a session's keys
// and counters mid-stream.
func (s *Store) Register(sess *Session) error {
	sh := s.shard(sess.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.byID[sess.ID]; ok {
		return ErrDuplicateSession
	}
	for cap := int(s.shardCap.Load()); cap > 0 && len(sh.byID) >= cap; {
		back := sh.lru.Back()
		old := back.Value.(*Session)
		sh.lru.Remove(back)
		delete(sh.byID, old.ID)
		s.evictions.Add(1)
	}
	sh.byID[sess.ID] = sh.lru.PushFront(sess)
	return nil
}

// Get looks a session up and marks it most recently used.
func (s *Store) Get(id string) (*Session, bool) {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.byID[id]
	if !ok {
		return nil, false
	}
	sh.lru.MoveToFront(el)
	return el.Value.(*Session), true
}

// Peek looks a session up without refreshing its LRU position — for
// stats and monitoring reads that must not protect idle sessions from
// eviction.
func (s *Store) Peek(id string) (*Session, bool) {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.byID[id]
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
	reclaimed := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; {
			next := el.Next()
			sess := el.Value.(*Session)
			if since, detached := sess.Detached(); detached && since != 0 && since < cutoffUnixNano {
				sh.lru.Remove(el)
				delete(sh.byID, sess.ID)
				reclaimed++
			}
			el = next
		}
		sh.mu.Unlock()
	}
	return reclaimed
}

// Detached counts resident sessions with no attached connection — the
// population currently inside the resume window.
func (s *Store) Detached() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			if since, detached := el.Value.(*Session).Detached(); detached && since != 0 {
				total++
			}
		}
		sh.mu.Unlock()
	}
	return total
}

// Len counts resident sessions across all shards.
func (s *Store) Len() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		total += len(sh.byID)
		sh.mu.Unlock()
	}
	return total
}

// Evictions counts sessions displaced by the cap since construction.
func (s *Store) Evictions() int64 { return s.evictions.Load() }

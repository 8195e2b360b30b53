package snapshot

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
)

// Store is an in-memory content-addressed blob store for checkpoint handoff.
// Blobs are keyed by the SHA-256 of their bytes, so identical snapshots (the
// common case when a fleet migrates many sessions of one design, or retries a
// migration) deduplicate to a single copy, and every read re-verifies the
// hash — a blob that rotted in place is refused rather than restored into a
// live simulation.
//
// The store holds transient state (a migration window, a retry budget), not
// durable history, so it runs under a byte budget with LRU eviction. Entries
// a caller still depends on are pinned: Pin/Unpin maintain a refcount, and
// eviction skips pinned entries even when that leaves the store over budget —
// correctness (a live session's handoff blob) beats the budget. All methods
// are safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	budget int64
	used   int64
	pinned int64 // bytes of blobs with pins > 0 (eviction-exempt residency)
	blobs  map[string]*storeEntry
	lru    *list.List // front = most recently used; holds *storeEntry
	evict  uint64
	m      *StoreMetrics // nil = uninstrumented
}

type storeEntry struct {
	key  string
	data []byte
	pins int
	elem *list.Element
}

// NewStore builds a store with the given byte budget. A budget <= 0 means
// unbounded (nothing is ever evicted).
func NewStore(budgetBytes int64) *Store {
	return &Store{
		budget: budgetBytes,
		blobs:  make(map[string]*storeEntry),
		lru:    list.New(),
	}
}

// Put stores data and returns its content key (lowercase hex SHA-256). A blob
// already present is deduplicated: the existing entry is refreshed in LRU
// order and no bytes are copied. The stored copy is private — later mutation
// of the caller's slice cannot corrupt it. The just-stored blob is never the
// eviction victim of its own Put, but it may be evicted by any later
// operation; callers that need the blob to survive use PutPinned.
func (s *Store) Put(data []byte) string {
	return s.put(data, false)
}

// PutPinned stores data already pinned — Put and Pin with no window in
// between for eviction to reclaim the blob. Deduplicated puts add a pin to
// the existing entry. Release with Unpin.
func (s *Store) PutPinned(data []byte) string {
	return s.put(data, true)
}

func (s *Store) put(data []byte, pin bool) string {
	sum := sha256.Sum256(data)
	key := hex.EncodeToString(sum[:])
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m != nil {
		s.m.Puts.Inc()
	}
	if e, ok := s.blobs[key]; ok {
		s.lru.MoveToFront(e.elem)
		if pin {
			s.pinLocked(e)
		}
		s.syncGaugesLocked()
		return key
	}
	e := &storeEntry{key: key, data: append([]byte(nil), data...)}
	e.elem = s.lru.PushFront(e)
	s.blobs[key] = e
	s.used += int64(len(e.data))
	if pin {
		s.pinLocked(e)
	}
	s.evictOverBudget(e)
	s.syncGaugesLocked()
	return key
}

// pinLocked adds one pin, tracking the pinned-byte transition. Caller holds
// s.mu.
func (s *Store) pinLocked(e *storeEntry) {
	if e.pins == 0 {
		s.pinned += int64(len(e.data))
	}
	e.pins++
}

// Get returns a copy of the blob stored under key. The bytes are re-hashed on
// every read; a mismatch (memory corruption, a bug writing through the map)
// returns an error instead of the poisoned blob and drops the entry, pins
// and all, so the next Put of the same bytes stores them afresh instead of
// deduplicating onto the rotted copy.
func (s *Store) Get(key string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m != nil {
		s.m.Gets.Inc()
	}
	e, ok := s.blobs[key]
	if !ok {
		return nil, fmt.Errorf("snapshot: store has no blob %s", key)
	}
	sum := sha256.Sum256(e.data)
	if hex.EncodeToString(sum[:]) != key {
		s.removeLocked(e)
		s.syncGaugesLocked()
		return nil, fmt.Errorf("snapshot: blob %s failed content verification (stored bytes hash to %x)", key, sum)
	}
	s.lru.MoveToFront(e.elem)
	return append([]byte(nil), e.data...), nil
}

// Pin marks the blob as in-use; pinned blobs survive eviction. Pins nest —
// each Pin needs a matching Unpin. Pinning a missing key is an error so
// callers learn immediately that the blob they depend on is already gone.
func (s *Store) Pin(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.blobs[key]
	if !ok {
		return fmt.Errorf("snapshot: cannot pin missing blob %s", key)
	}
	s.pinLocked(e)
	s.syncGaugesLocked()
	return nil
}

// Unpin releases one Pin. When the last pin drops, the blob becomes evictable
// again; if the store is over budget it is reclaimed eagerly.
func (s *Store) Unpin(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.blobs[key]
	if !ok || e.pins == 0 {
		return
	}
	e.pins--
	if e.pins == 0 {
		s.pinned -= int64(len(e.data))
		s.evictOverBudget(nil)
	}
	s.syncGaugesLocked()
}

// Delete removes the blob regardless of pins. Use when the owning operation
// completed and the blob is known dead.
func (s *Store) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.blobs[key]; ok {
		s.removeLocked(e)
		s.syncGaugesLocked()
	}
}

// Damage flips one byte of the stored copy of key in place, modelling bit
// rot for fault injection: the next Get of key must refuse the blob. It
// reports whether key was present.
func (s *Store) Damage(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.blobs[key]
	if ok && len(e.data) > 0 {
		e.data[len(e.data)/2] ^= 0xff
	}
	return ok
}

// PinnedBytes reports the bytes of blobs with at least one pin.
func (s *Store) PinnedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pinned
}

// Stats reports current occupancy and lifetime eviction count.
func (s *Store) Stats() (usedBytes, budgetBytes int64, blobs int, evictions uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used, s.budget, len(s.blobs), s.evict
}

// evictOverBudget drops least-recently-used unpinned blobs until the store
// fits its budget. keep (the entry a Put just inserted, may be nil) is exempt
// so a Put can never evict its own blob. Caller holds s.mu.
func (s *Store) evictOverBudget(keep *storeEntry) {
	if s.budget <= 0 {
		return
	}
	for e := s.lru.Back(); e != nil && s.used > s.budget; {
		prev := e.Prev()
		entry := e.Value.(*storeEntry)
		if entry.pins == 0 && entry != keep {
			s.removeLocked(entry)
			s.evict++
			if s.m != nil {
				s.m.Evictions.Inc()
			}
		}
		e = prev
	}
	s.syncGaugesLocked()
}

// removeLocked unlinks the entry. Caller holds s.mu.
func (s *Store) removeLocked(e *storeEntry) {
	s.lru.Remove(e.elem)
	delete(s.blobs, e.key)
	s.used -= int64(len(e.data))
	if e.pins > 0 {
		s.pinned -= int64(len(e.data)) // Delete removes regardless of pins
	}
}

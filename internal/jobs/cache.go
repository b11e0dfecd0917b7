// Package jobs provides the asynchronous execution layer of the
// lopserve service: a worker-pool job manager with bounded queueing,
// per-job cancellation, and TTL-based retention of finished jobs, plus
// a content-addressed result cache that lets identical requests — the
// common case under replayed traffic — return a previously computed
// result byte-for-byte instead of recomputing it.
//
// The package is deliberately independent of HTTP: a job is just a
// function from a context to serialized result bytes, and a cache key
// is just a SHA-256 digest. The server layer (internal/server) decides
// what goes into a key and how job state maps onto REST responses.
package jobs

import (
	"container/list"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
)

// Key is a content address: the SHA-256 digest of a canonical encoding
// of everything that determines a result (operation, graph,
// parameters). Two requests with the same Key are, by construction, the
// same computation.
type Key [sha256.Size]byte

// String renders the key as hex, for logs and debugging.
func (k Key) String() string { return fmt.Sprintf("%x", k[:]) }

// HashJSON derives a Key from the canonical JSON encoding of v.
// Callers must pass a value whose JSON form is deterministic and
// complete: structs encode fields in declaration order and maps encode
// keys sorted, so any struct of scalars, slices, and strings qualifies.
// The error is non-nil only for unencodable values (channels, cycles),
// which indicates a programming error at the call site.
func HashJSON(v any) (Key, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return Key{}, fmt.Errorf("jobs: hashing cache key: %w", err)
	}
	return sha256.Sum256(b), nil
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	// Hits and Misses count Get calls since the cache was created.
	Hits, Misses int64
	// Entries is the current number of cached results; Capacity is the
	// eviction bound.
	Entries, Capacity int
}

// Cache is a fixed-capacity, concurrency-safe LRU over content-addressed
// result bytes. Values are treated as immutable: Put stores the slice
// as given and Get returns it without copying, so callers must never
// mutate a slice after storing or receiving it. (The server stores
// fully serialized response bodies, which are write-once by nature.)
type Cache struct {
	mu           sync.Mutex
	capacity     int
	entries      map[Key]*list.Element
	order        *list.List // front = most recently used
	hits, misses int64
}

type cacheEntry struct {
	key   Key
	value []byte
}

// NewCache returns an empty cache that holds at most capacity entries,
// evicting the least recently used entry on overflow. capacity must be
// positive.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		panic(fmt.Sprintf("jobs: cache capacity must be positive, got %d", capacity))
	}
	return &Cache{
		capacity: capacity,
		entries:  make(map[Key]*list.Element),
		order:    list.New(),
	}
}

// Get returns the cached result for k and records a hit or miss.
func (c *Cache) Get(k Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).value, true
}

// Put stores v under k, refreshing recency if k is already present and
// evicting the least recently used entry when the cache is full.
func (c *Cache) Put(k Key, v []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*cacheEntry).value = v
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
	c.entries[k] = c.order.PushFront(&cacheEntry{key: k, value: v})
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats snapshots the hit/miss counters and occupancy.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: c.order.Len(), Capacity: c.capacity}
}

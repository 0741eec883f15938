package jobs

import (
	"container/list"
	"sync"

	"repro/internal/telemetry"
)

// Cache is a concurrency-safe LRU result cache keyed by the canonical
// content hash. A converged SCF result is deterministic for a given
// canonical spec, so cache entries never expire — only capacity evicts.
type Cache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	// The counters given to Instrument (nil: uncounted) are the cache's
	// only hit/miss/eviction counts, read through /metrics.
	hitC, missC, evictC *telemetry.Counter
}

type cacheEntry struct {
	hash string
	out  *Outcome
}

// NewCache returns an LRU cache holding at most capacity outcomes
// (capacity <= 0 means 256).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = 256
	}
	return &Cache{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// Instrument attaches telemetry counters (svc.cache.hit/miss/evict in
// the service) that the cache increments on every lookup and eviction.
// Call before the cache sees traffic.
func (c *Cache) Instrument(hit, miss, evict *telemetry.Counter) {
	c.mu.Lock()
	c.hitC, c.missC, c.evictC = hit, miss, evict
	c.mu.Unlock()
}

// Get returns the cached outcome for hash, refreshing its recency.
func (c *Cache) Get(hash string) (*Outcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[hash]
	if !ok {
		c.missC.Add(1)
		return nil, false
	}
	c.hitC.Add(1)
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).out, true
}

// Peek returns the cached outcome for hash without refreshing recency or
// counting a hit/miss — the probe used by metrics endpoints and peer
// cache lookups that should not distort the eviction order or the
// effectiveness counters.
func (c *Cache) Peek(hash string) (*Outcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[hash]
	if !ok {
		return nil, false
	}
	return el.Value.(*cacheEntry).out, true
}

// Put stores out under hash, evicting the least recently used entry past
// capacity.
func (c *Cache) Put(hash string, out *Outcome) {
	if out == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[hash]; ok {
		el.Value.(*cacheEntry).out = out
		c.ll.MoveToFront(el)
		return
	}
	c.items[hash] = c.ll.PushFront(&cacheEntry{hash: hash, out: out})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).hash)
		c.evictC.Add(1)
	}
}

// Len returns the number of cached outcomes.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
)

// Fingerprint content-addresses a request: the SHA-256 of its canonical
// JSON encoding. encoding/json sorts map keys and walks struct fields
// in declaration order, so equal values always fingerprint equally.
func Fingerprint(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("service: fingerprint: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// CacheStats is a snapshot of cache effectiveness counters.
type CacheStats struct {
	Hits      int64 `json:"hits"`      // served from the completed-result cache
	Misses    int64 `json:"misses"`    // required a fresh computation
	Coalesced int64 `json:"coalesced"` // joined an identical in-flight computation
	Evictions int64 `json:"evictions"` // LRU entries dropped at capacity
	Entries   int   `json:"entries"`   // resident entries
	// Bytes is the summed size of resident values; always 0 for caches
	// built without a sizer (NewCache).
	Bytes int64 `json:"bytes"`
}

// flight is one in-progress computation that later identical requests
// wait on instead of recomputing (single-flight deduplication).
type flight struct {
	done chan struct{}
	val  any
	err  error
}

type cacheEntry struct {
	key    string
	val    any
	size   int64
	weight int
}

// Cache is a bounded, content-addressed result cache with LRU eviction
// and single-flight deduplication of concurrent identical computations.
// The zero value is not usable; construct with NewCache.
type Cache struct {
	mu       sync.Mutex
	capacity int
	maxBytes int64
	sizeOf   func(any) int64
	bytes    int64
	// weighOf, when set, weighs each retained value against capacity
	// (nil weighs every value 1, so capacity bounds the entry count);
	// weight is the resident sum.
	weighOf  func(any) int
	weight   int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	inflight map[string]*flight
	stats    CacheStats
}

// NewCache builds a cache holding at most capacity completed results.
// capacity <= 0 disables retention: single-flight deduplication still
// coalesces concurrent identical requests, but nothing is remembered.
func NewCache(capacity int) *Cache {
	return NewCacheSized(capacity, 0, nil)
}

// NewCacheSized is NewCache with byte accounting on top of the entry
// cap: sizeOf sizes each retained value (nil sizes everything as 0),
// and maxBytes > 0 additionally evicts LRU entries once the resident
// sum exceeds the budget. The most recent entry is never evicted by the
// byte budget, so one oversized value parks instead of thrashing the
// cache empty.
func NewCacheSized(capacity int, maxBytes int64, sizeOf func(any) int64) *Cache {
	return &Cache{
		capacity: capacity,
		maxBytes: maxBytes,
		sizeOf:   sizeOf,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*flight),
	}
}

// Get returns the completed value cached under key, counting a hit and
// refreshing its LRU position. A miss counts nothing: the caller goes
// on to Do, which counts the lookup as a hit, a miss or a coalesced
// wait, so each request is counted once.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hitLocked(key)
}

// hitLocked is Get with c.mu held.
func (c *Cache) hitLocked(key string) (any, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.stats.Hits++
	return el.Value.(*cacheEntry).val, true
}

// Do returns the value for key, computing it at most once across all
// concurrent callers: a cached value is returned immediately; callers
// arriving while an identical computation is in flight block and share
// its outcome; otherwise compute runs and its result (on success) is
// retained under LRU. The second return reports whether the value came
// from cache or from an in-flight computation rather than a fresh call.
func (c *Cache) Do(key string, compute func() (any, error)) (any, bool, error) {
	c.mu.Lock()
	if v, ok := c.hitLocked(key); ok {
		c.mu.Unlock()
		return v, true, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.stats.Coalesced++
		c.mu.Unlock()
		<-f.done
		return f.val, true, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.stats.Misses++
	c.mu.Unlock()

	// The flight must resolve even if compute panics (the panic then
	// propagates to this caller, e.g. net/http's handler recovery):
	// otherwise the key would be poisoned and coalesced waiters would
	// block forever.
	completed := false
	defer func() {
		if !completed {
			f.err = fmt.Errorf("service: cache: computation for key %q panicked", key[:8])
		}
		c.mu.Lock()
		delete(c.inflight, key)
		if completed && f.err == nil && c.capacity > 0 {
			c.insertLocked(key, f.val)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = compute()
	completed = true
	return f.val, false, f.err
}

// insertLocked retains a computed value at the LRU front, then evicts
// from the back until the resident weight fits capacity and the bytes
// fit maxBytes. A value weighing more than the whole capacity is not
// retained: it would flush every other entry and still not fit. The
// most recent entry is never evicted by the byte budget, so one
// oversized value parks instead of thrashing the cache empty.
func (c *Cache) insertLocked(key string, val any) {
	weight := 1
	if c.weighOf != nil {
		weight = c.weighOf(val)
	}
	if weight > c.capacity {
		return
	}
	var size int64
	if c.sizeOf != nil {
		size = c.sizeOf(val)
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val, size: size, weight: weight})
	c.bytes += size
	c.weight += weight
	for c.weight > c.capacity ||
		(c.maxBytes > 0 && c.bytes > c.maxBytes && c.ll.Len() > 1) {
		old := c.ll.Back()
		c.ll.Remove(old)
		e := old.Value.(*cacheEntry)
		delete(c.items, e.key)
		c.bytes -= e.size
		c.weight -= e.weight
		c.stats.Evictions++
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	s.Bytes = c.bytes
	return s
}

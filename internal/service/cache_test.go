package service

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFingerprintDeterministicAndDistinct(t *testing.T) {
	type key struct {
		A string
		B int
	}
	f1, err := Fingerprint(key{A: "x", B: 1})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Fingerprint(key{A: "x", B: 1})
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Error("equal values fingerprint differently")
	}
	f3, err := Fingerprint(key{A: "x", B: 2})
	if err != nil {
		t.Fatal(err)
	}
	if f1 == f3 {
		t.Error("distinct values collide")
	}
	if len(f1) != 64 {
		t.Errorf("fingerprint %q is not a SHA-256 hex digest", f1)
	}
}

func TestCacheHitAndLRUEviction(t *testing.T) {
	c := NewCache(2)
	calls := 0
	get := func(key string) any {
		v, _, err := c.Do(key, func() (any, error) {
			calls++
			return key + "-value", nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	get("a")
	get("b")
	if got := get("a"); got != "a-value" {
		t.Fatalf("got %v", got)
	}
	if calls != 2 {
		t.Fatalf("expected 2 computations, got %d", calls)
	}
	// "b" is now least recently used; inserting "c" evicts it.
	get("c")
	get("b")
	if calls != 4 {
		t.Fatalf("expected recomputation of evicted b, got %d calls", calls)
	}
	st := c.Stats()
	if st.Evictions < 1 {
		t.Errorf("expected evictions, got %+v", st)
	}
	if st.Entries != 2 {
		t.Errorf("expected 2 resident entries, got %d", st.Entries)
	}
}

// TestCacheGetCountsOnlyHits: Get answers a completed entry and counts
// the hit, refreshing its LRU position like Do; a miss counts nothing,
// so a Get-then-Do caller is counted once.
func TestCacheGetCountsOnlyHits(t *testing.T) {
	c := NewCache(2)
	if v, ok := c.Get("a"); ok || v != nil {
		t.Fatalf("Get on an empty cache = %v, %v", v, ok)
	}
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("a Get miss was counted: %+v", st)
	}
	for _, k := range []string{"a", "b"} {
		if _, _, err := c.Do(k, func() (any, error) { return k + "-value", nil }); err != nil {
			t.Fatal(err)
		}
	}
	if v, ok := c.Get("a"); !ok || v != "a-value" {
		t.Fatalf("Get(a) = %v, %v; want a-value", v, ok)
	}
	// "a" was refreshed, so "c" evicts "b".
	if _, _, err := c.Do("c", func() (any, error) { return "c-value", nil }); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b survived; Get did not refresh a's LRU position")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 3 || st.Evictions != 1 {
		t.Errorf("stats %+v, want 1 hit, 3 misses, 1 eviction", st)
	}
}

func TestCacheErrorsAreNotCached(t *testing.T) {
	c := NewCache(4)
	calls := 0
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		_, _, err := c.Do("k", func() (any, error) {
			calls++
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("got %v", err)
		}
	}
	if calls != 2 {
		t.Errorf("errors were cached: %d calls", calls)
	}
}

// TestCacheSingleFlight: N concurrent identical requests run the
// computation exactly once and all observe its result.
func TestCacheSingleFlight(t *testing.T) {
	c := NewCache(4)
	const n = 32
	var computations atomic.Int64
	started := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-started
			v, _, err := c.Do("shared", func() (any, error) {
				computations.Add(1)
				time.Sleep(20 * time.Millisecond) // hold the flight open
				return "the-result", nil
			})
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			results[i] = v
		}(i)
	}
	close(started)
	wg.Wait()
	if got := computations.Load(); got != 1 {
		t.Fatalf("computation ran %d times, want 1", got)
	}
	for i, v := range results {
		if v != "the-result" {
			t.Errorf("goroutine %d got %v", i, v)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Coalesced != n-1 {
		t.Errorf("stats %+v, want 1 miss and %d coalesced", st, n-1)
	}
}

// TestCacheZeroCapacityStillDeduplicates: retention off, single-flight on.
func TestCacheZeroCapacityStillDeduplicates(t *testing.T) {
	c := NewCache(0)
	calls := 0
	for i := 0; i < 2; i++ {
		if _, _, err := c.Do("k", func() (any, error) { calls++; return 1, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 2 {
		t.Errorf("capacity 0 retained results: %d calls", calls)
	}
	var computations atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, _ = c.Do("concurrent", func() (any, error) {
				computations.Add(1)
				time.Sleep(10 * time.Millisecond)
				return 1, nil
			})
		}()
	}
	wg.Wait()
	if got := computations.Load(); got != 1 {
		t.Errorf("concurrent computation ran %d times, want 1", got)
	}
}

// TestCacheDistinctKeysDoNotBlock: different keys compute independently.
func TestCacheDistinctKeysDoNotBlock(t *testing.T) {
	c := NewCache(16)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i)
			v, _, err := c.Do(key, func() (any, error) { return i, nil })
			if err != nil || v != i {
				t.Errorf("key %s: got %v, %v", key, v, err)
			}
		}(i)
	}
	wg.Wait()
	if st := c.Stats(); st.Misses != 8 {
		t.Errorf("expected 8 misses, got %+v", st)
	}
}

// TestCacheByteBudget: a sized cache evicts LRU entries once the summed
// entry sizes exceed the byte budget - whatever the entry count - while
// the newest entry always stays resident, and the byte gauge tracks
// inserts and evictions exactly.
func TestCacheByteBudget(t *testing.T) {
	sizeOf := func(v any) int64 { return v.(int64) }
	c := NewCacheSized(100, 100, sizeOf)
	put := func(key string, size int64) {
		if _, _, err := c.Do(key, func() (any, error) { return size, nil }); err != nil {
			t.Fatal(err)
		}
	}
	put("a", 40)
	put("b", 40)
	if st := c.Stats(); st.Bytes != 80 || st.Evictions != 0 {
		t.Fatalf("under budget: %+v", st)
	}
	// 40+40+40 > 100: "a" (LRU) goes.
	put("c", 40)
	st := c.Stats()
	if st.Bytes != 80 || st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("over budget: %+v", st)
	}
	put("a", 40) // recompute proves "a" was evicted, "b" goes now
	if st := c.Stats(); st.Misses != 4 {
		t.Errorf("a survived the byte eviction: %+v", st)
	}
	// An entry bigger than the whole budget still caches (the newest
	// entry is never evicted by the byte cap) but evicts everything else.
	put("huge", 1000)
	st = c.Stats()
	if st.Entries != 1 || st.Bytes != 1000 {
		t.Errorf("oversized entry handling: %+v", st)
	}
	if _, _, err := c.Do("huge", func() (any, error) {
		t.Error("huge was not retained")
		return int64(0), nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheUnsizedHasNoByteCap: the plain constructor never
// byte-evicts and reports zero bytes.
func TestCacheUnsizedHasNoByteCap(t *testing.T) {
	c := NewCache(4)
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, _, err := c.Do(key, func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Bytes != 0 || st.Evictions != 0 || st.Entries != 3 {
		t.Errorf("unsized cache: %+v", st)
	}
}

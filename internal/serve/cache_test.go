package serve

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/vecmath"
)

// A cache hit must be byte-identical to the uncached computation, and an
// Update (epoch bump) must atomically invalidate: the next request
// recomputes on the new snapshot and matches a cache-less server exactly.
func TestCacheHitIdenticalAcrossEpochBump(t *testing.T) {
	m, data := trainedModel(t)
	cached := New(m, WithCache(64))
	plain := New(m)
	req := Request{User: 3, Recent: data.Users[3].Baskets, K: 7}

	want, err := plain.Recommend(req)
	if err != nil {
		t.Fatal(err)
	}
	first, err := cached.Recommend(req)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := cached.Recommend(req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, first) || !reflect.DeepEqual(want, hit) {
		t.Fatal("cached path diverged from uncached ranking")
	}
	cs, ok := cached.CacheStats()
	if !ok || cs.Hits != 1 || cs.Misses != 1 {
		t.Fatalf("want 1 hit / 1 miss, got %+v", cs)
	}

	// hot swap (same weights, new snapshot): the stale entry must never
	// be served, and the recomputed result must again match uncached
	cached.Update(m)
	after, err := cached.Recommend(req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, after) {
		t.Fatal("post-reload ranking diverged")
	}
	cs, _ = cached.CacheStats()
	if cs.Epoch != 1 || cs.Stale != 1 || cs.Hits != 1 {
		t.Fatalf("epoch bump not honored: %+v", cs)
	}
}

// Requests differing only in the ignored Precision field or in category
// list order share one cache entry — the executor's rankings are
// byte-identical across all of them.
func TestCacheKeyCanonicalization(t *testing.T) {
	m, _ := trainedModel(t)
	s := New(m, WithCache(64))
	base := Request{User: 2, K: 5, Categories: []int32{3, 1, 2}}
	if _, err := s.Recommend(base); err != nil {
		t.Fatal(err)
	}
	variants := []Request{
		{User: 2, K: 5, Categories: []int32{1, 2, 3}},
		{User: 2, K: 5, Categories: []int32{2, 3, 1}, Precision: model.PrecisionF64},
	}
	want, _ := s.Recommend(base)
	for i, v := range variants {
		got, err := s.Recommend(v)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("variant %d diverged", i)
		}
	}
	cs, _ := s.CacheStats()
	if cs.Misses != 1 {
		t.Fatalf("canonicalization failed: %d misses for one canonical request", cs.Misses)
	}

	// different page or filter = different entry
	if _, err := s.Recommend(Request{User: 2, K: 5, Categories: []int32{1, 2, 3}, Offset: 1}); err != nil {
		t.Fatal(err)
	}
	cs, _ = s.CacheStats()
	if cs.Misses != 2 {
		t.Fatalf("offset variant should miss, got %+v", cs)
	}
}

// The LRU must evict the coldest entry at capacity and keep hot ones.
func TestCacheLRUEviction(t *testing.T) {
	m, _ := trainedModel(t)
	s := New(m, WithCache(2))
	reqs := []Request{{User: 0, K: 3}, {User: 1, K: 3}, {User: 2, K: 3}}
	for _, r := range reqs[:2] {
		if _, err := s.Recommend(r); err != nil {
			t.Fatal(err)
		}
	}
	// touch user 0 so user 1 is the LRU victim
	if _, err := s.Recommend(reqs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recommend(reqs[2]); err != nil { // evicts user 1
		t.Fatal(err)
	}
	if _, err := s.Recommend(reqs[0]); err != nil { // still cached
		t.Fatal(err)
	}
	cs, _ := s.CacheStats()
	if cs.Evictions != 1 || cs.Size != 2 || cs.Hits != 2 {
		t.Fatalf("unexpected LRU behavior: %+v", cs)
	}
}

func TestCacheDisabledByDefault(t *testing.T) {
	m, _ := trainedModel(t)
	s := New(m)
	if _, ok := s.CacheStats(); ok {
		t.Fatal("cache should be disabled without WithCache")
	}
	if _, err := s.Recommend(Request{User: 1, K: 3}); err != nil {
		t.Fatal(err)
	}
}

// Regression: two misses racing to fill one key while a third request
// reads it — get must snapshot the entry's slice header under the lock
// (put overwrites it in place). Run with -race.
func TestCacheConcurrentGetPutSameKey(t *testing.T) {
	rc := newResultCache(4)
	itemsA := []vecmath.Scored{{ID: 1, Score: 1}}
	itemsB := []vecmath.Scored{{ID: 2, Score: 2}, {ID: 3, Score: 1}}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if w%2 == 0 {
					if i%2 == 0 {
						rc.Put(0, "k", itemsA)
					} else {
						rc.Put(0, "k", itemsB)
					}
				} else if got, ok := rc.Get(0, "k"); ok {
					if len(got) != 1 && len(got) != 2 {
						t.Errorf("torn read: %v", got)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

package serve

import (
	"container/list"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/api"
	"repro/internal/vecmath"
)

// VersionedCache is a versioned LRU cache: one bounded map from
// canonicalized request keys to finished values, each entry stamped with
// the model epoch it was computed under. BumpEpoch (run by every hot
// swap) is one atomic add — it never takes the cache lock — and every
// entry stamped under an older epoch becomes unreachable at once: Get
// compares the entry's stamp against the epoch the caller pinned and
// treats a mismatch as a miss (deleting the entry lazily). Hot-swapping
// a model therefore invalidates the whole cache atomically without
// blocking readers or walking entries.
//
// Epoch/snapshot ordering is what makes a stale hit impossible. Writers
// pin the epoch BEFORE loading the snapshot (Server.pin) and the swap
// stores the new snapshot BEFORE bumping the epoch; so a request that
// pinned epoch e computed its result on a snapshot at least as new as
// e's. If a reload sneaks between a request's pin and its store, the
// fresh result is stamped with the older epoch and over-invalidated —
// the safe direction. A result computed on the old snapshot can never be
// stamped with the new epoch.
//
// The same machinery serves two layers: a single node caches rankings
// under its own swap counter (the clone hook keeps stored slices
// isolated from callers), and a scatter-gather router caches merged
// rankings under the MINIMUM epoch across its shard set — the min is the
// epoch the whole merged result is guaranteed current at, and any shard
// reload raises it, invalidating router entries by the same stamp
// comparison.
type VersionedCache[V any] struct {
	epoch atomic.Uint64

	// clone, when non-nil, copies a value on Put so cached state is
	// isolated from whatever buffer the caller reuses.
	clone func(V) V

	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	entries map[string]*list.Element

	hits      atomic.Int64
	misses    atomic.Int64
	stale     atomic.Int64
	evictions atomic.Int64
}

// cacheEntry is one cached value; val is read-only after insertion (hits
// share it, so nothing may mutate it).
type cacheEntry[V any] struct {
	key   string
	epoch uint64
	val   V
}

// NewVersionedCache builds a cache holding up to capacity entries. clone
// (may be nil) copies values on Put.
func NewVersionedCache[V any](capacity int, clone func(V) V) *VersionedCache[V] {
	return &VersionedCache[V]{
		clone:   clone,
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[string]*list.Element, capacity),
	}
}

// Epoch reads the current cache epoch — what Server.pin stamps requests
// with.
func (rc *VersionedCache[V]) Epoch() uint64 { return rc.epoch.Load() }

// BumpEpoch invalidates every cached entry with one atomic add.
func (rc *VersionedCache[V]) BumpEpoch() { rc.epoch.Add(1) }

// Get returns the value cached under key if it was stamped with the
// caller's pinned epoch. An entry from an older epoch is removed and
// reported as a (stale) miss.
func (rc *VersionedCache[V]) Get(epoch uint64, key string) (V, bool) {
	var zero V
	rc.mu.Lock()
	el, ok := rc.entries[key]
	if !ok {
		rc.mu.Unlock()
		rc.misses.Add(1)
		return zero, false
	}
	ent := el.Value.(*cacheEntry[V])
	if ent.epoch != epoch {
		rc.ll.Remove(el)
		delete(rc.entries, key)
		rc.mu.Unlock()
		rc.stale.Add(1)
		rc.misses.Add(1)
		return zero, false
	}
	rc.ll.MoveToFront(el)
	// snapshot the value before unlocking: Put may overwrite ent.val
	// under the lock (two misses racing to fill one key), and a
	// post-unlock field read would tear against it. The value's contents
	// are safe either way — Put stores fresh clones it never mutates.
	val := ent.val
	rc.mu.Unlock()
	rc.hits.Add(1)
	return val, true
}

// Put stores v (cloned, when a clone hook is set) under key, stamped
// with the epoch the caller pinned before computing it, evicting from
// the LRU tail past capacity.
func (rc *VersionedCache[V]) Put(epoch uint64, key string, v V) {
	if rc.clone != nil {
		v = rc.clone(v)
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if el, ok := rc.entries[key]; ok {
		ent := el.Value.(*cacheEntry[V])
		ent.epoch, ent.val = epoch, v
		rc.ll.MoveToFront(el)
		return
	}
	rc.entries[key] = rc.ll.PushFront(&cacheEntry[V]{key: key, epoch: epoch, val: v})
	for rc.ll.Len() > rc.cap {
		back := rc.ll.Back()
		rc.ll.Remove(back)
		delete(rc.entries, back.Value.(*cacheEntry[V]).key)
		rc.evictions.Add(1)
	}
}

// CacheStats is the cache section of /v1/stats (canonically
// api.CacheStats; aliased here for the serve-level consumers).
type CacheStats = api.CacheStats

// Stats reports the cache's counters.
func (rc *VersionedCache[V]) Stats() CacheStats {
	rc.mu.Lock()
	size := rc.ll.Len()
	rc.mu.Unlock()
	return CacheStats{
		Capacity:  rc.cap,
		Size:      size,
		Epoch:     rc.epoch.Load(),
		Hits:      rc.hits.Load(),
		Misses:    rc.misses.Load(),
		Stale:     rc.stale.Load(),
		Evictions: rc.evictions.Load(),
	}
}

// resultCache is the server's ranking cache: rankings are cloned on
// insertion because the executor reuses result buffers across requests.
type resultCache = VersionedCache[[]vecmath.Scored]

func newResultCache(capacity int) *resultCache {
	return NewVersionedCache(capacity, slices.Clone[[]vecmath.Scored])
}

// cacheKey canonicalizes a request into its cache identity: the query
// subject (user + recent baskets, in order — basket order drives the
// Markov term) and every plan field that can change the returned page.
// Precision is deliberately absent: it has no effect, so requests
// differing only in it share one entry. Category
// lists are sorted copies — filters are set semantics, so permuted lists
// share an entry too.
func cacheKey(req *Request) string {
	var b strings.Builder
	fmt.Fprintf(&b, "u%d|k%d|o%d", req.User, req.K, req.Offset)
	for _, basket := range req.Recent {
		b.WriteString("|r")
		for _, it := range basket {
			fmt.Fprintf(&b, ",%d", it)
		}
	}
	if req.Cascade != nil {
		b.WriteString("|c")
		for _, f := range req.Cascade.KeepFrac {
			fmt.Fprintf(&b, ",%g", f)
		}
	}
	if req.MaxPerCategory > 0 {
		fmt.Fprintf(&b, "|d%d@%d", req.MaxPerCategory, req.CatDepth)
	}
	if req.ExcludePurchased {
		b.WriteString("|xp")
	}
	writeSortedIDs(&b, "ca", req.Categories)
	writeSortedIDs(&b, "cx", req.ExcludeCategories)
	return b.String()
}

func writeSortedIDs(b *strings.Builder, tag string, ids []int32) {
	if len(ids) == 0 {
		return
	}
	sorted := slices.Clone(ids)
	slices.Sort(sorted)
	b.WriteString("|")
	b.WriteString(tag)
	for _, id := range sorted {
		fmt.Fprintf(b, ",%d", id)
	}
}

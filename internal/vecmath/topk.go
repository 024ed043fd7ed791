package vecmath

import (
	"math"
	"slices"
)

// Scored pairs an integer id with a float score; the inference code ranks
// items, categories and taxonomy nodes as Scored slices.
type Scored struct {
	ID    int
	Score float64
}

// TopK returns the k highest-scoring entries of items in descending score
// order. Ties break toward the lower ID so results are deterministic.
// If k >= len(items) the whole input is returned sorted. The input slice is
// not modified.
func TopK(items []Scored, k int) []Scored {
	if k <= 0 {
		return nil
	}
	if k >= len(items) {
		out := make([]Scored, len(items))
		copy(out, items)
		sortScoredDesc(out)
		return out
	}
	// Bounded min-heap of size k over the scores seen so far.
	h := make([]Scored, 0, k)
	for _, it := range items {
		if len(h) < k {
			h = append(h, it)
			siftUp(h, len(h)-1)
			continue
		}
		if scoredLess(h[0], it) {
			h[0] = it
			siftDown(h, 0)
		}
	}
	sortScoredDesc(h)
	return h
}

// TopKStream is a bounded min-heap that consumes (id, score) pairs one at
// a time and retains the k best seen so far — the streaming counterpart of
// TopK for producers that never materialize a full []Scored. Obtain one
// with NewTopKStream, or arm a zero value with Reset; recycle across
// queries with Reset. Tie-breaking matches TopK exactly (equal scores rank
// by lower ID), so a stream over the same pairs yields the same ranking.
type TopKStream struct {
	h []Scored
	k int
}

// NewTopKStream returns a collector retaining the k best pushed entries.
func NewTopKStream(k int) *TopKStream {
	return &TopKStream{h: make([]Scored, 0, k), k: k}
}

// Reset empties the collector and re-arms it for k entries, growing the
// backing array only when k exceeds its capacity.
func (t *TopKStream) Reset(k int) {
	if k > cap(t.h) {
		t.h = make([]Scored, 0, k)
	}
	t.h = t.h[:0]
	t.k = k
}

// Push offers one entry. When the collector is full the entry is compared
// against the current k-th best and dropped without heap movement unless it
// ranks above it.
func (t *TopKStream) Push(id int, score float64) {
	if t.k <= 0 {
		return
	}
	it := Scored{ID: id, Score: score}
	if len(t.h) < t.k {
		t.h = append(t.h, it)
		siftUp(t.h, len(t.h)-1)
		return
	}
	if scoredLess(t.h[0], it) {
		t.h[0] = it
		siftDown(t.h, 0)
	}
}

// Len returns how many entries are currently retained.
func (t *TopKStream) Len() int { return len(t.h) }

// K returns the retention capacity the collector was armed with.
func (t *TopKStream) K() int { return t.k }

// Merge offers every entry retained by other to this collector. Because
// the retained set of a bounded heap is exactly the k best of everything
// pushed (under the score-then-lower-ID total order), merging the
// per-shard collectors of a partitioned sweep into one final collector
// yields the identical top-k — ranking, order and tie-breaks — as one
// serial stream over the whole input; the sharded inference path relies
// on this.
func (t *TopKStream) Merge(other *TopKStream) {
	for _, e := range other.h {
		t.Push(e.ID, e.Score)
	}
}

// Entries returns the retained set in unspecified (heap) order, aliasing
// the collector's storage. The two-stage pipelines' exact rescore
// consumes it directly — it re-ranks, so candidate order is irrelevant.
func (t *TopKStream) Entries() []Scored { return t.h }

// Threshold returns the score an entry must strictly beat (or tie with a
// lower ID) to enter a full collector, and whether the collector is full.
// Producers can use it to skip work for entries that cannot qualify. A
// k<=0 collector reports full at +Inf: nothing can ever enter it.
func (t *TopKStream) Threshold() (float64, bool) {
	if t.k <= 0 {
		return math.Inf(1), true
	}
	if len(t.h) < t.k {
		return 0, false
	}
	return t.h[0].Score, true
}

// Ranked sorts the retained entries into descending order and returns them.
// The returned slice aliases the collector's storage: it stays valid until
// the next Reset, and the collector must be Reset before reuse.
func (t *TopKStream) Ranked() []Scored {
	sortScoredDesc(t.h)
	return t.h
}

// scoredLess reports whether a ranks strictly below b (lower score, or equal
// score with higher ID).
func scoredLess(a, b Scored) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

func sortScoredDesc(s []Scored) {
	slices.SortFunc(s, func(a, b Scored) int {
		switch {
		case scoredLess(b, a):
			return -1
		case scoredLess(a, b):
			return 1
		default:
			return 0
		}
	})
}

func siftUp(h []Scored, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !scoredLess(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func siftDown(h []Scored, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && scoredLess(h[l], h[smallest]) {
			smallest = l
		}
		if r < n && scoredLess(h[r], h[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// RankOf returns the 1-based rank of target within scores: 1 + the number
// of entries with a strictly higher score, counting ties conservatively
// (an equal score placed before target counts against it only by ID order).
// This matches the paper's r(x) numerical rank used in the AUC and
// meanRank metrics.
func RankOf(scores []float64, target int) int {
	t := scores[target]
	rank := 1
	for id, s := range scores {
		if s > t || (s == t && id < target) {
			rank++
		}
	}
	return rank
}

package infer

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/vecmath"
)

// The category sweep: the exact f64 top-k of a naive plan, visiting the
// catalog one cut category at a time, best bound first, and stopping as
// soon as no remaining category can place an item.
//
// The cut (model/cut.go) partitions the catalog into the item parents,
// each with a ball that holds its item rows, so one matrix–vector pass
// bounds every category: ScoreItem(item, q) ≤ bound_j + ε for every item
// of category j (ScoringIndex.CutBoundsInto). A typed max-heap orders the
// categories; each popped one is swept at f64 through the blocked
// kernels when its raw item ids are contiguous and a depth-first gather
// otherwise — the per-item scorer is bitwise identical to a blocked row,
// so which path visits an item never changes its score. The sweep stops
// at the first category whose bound + ε sits strictly below the
// collector's k-th score: the heap hands out bounds in descending order
// and the threshold only rises, so no skipped item could have entered —
// or tied into — the page. A bounded TopKStream retains exactly the top-k
// of its pushes under (score desc, lower ID), independent of push order,
// so the page is byte-identical to the dense f64 sweep's; being exact,
// the sweep needs no over-fetch, rescore or escalation.
//
// Loose bounds cost more than they save, so the sweep checks itself at
// the first heap fill: if the categories whose bound + ε is already below
// the k-th score hold less than CheckpointShare of the candidate items, it
// discards the partial collector and the caller runs the host tier's dense
// sweep. The same test runs once before any row is read, with the best
// category centre's score standing in for the k-th score: random-init
// factors, whose scores barely depend on the category, fail it and bail
// for the price of the bounds, without gathering a row of the f64 slab.
// Learned models pass both (most of the catalog is provably out of reach
// after a handful of categories).
//
// Filters: allow and deny nodes drop whole categories before the heap is
// built; item exclusions and a shard range act through the mask, inside
// the swept categories.

// CheckpointShare is the share of candidate items the bounds must already
// rule out when the collector first fills for the sweep to continue. It
// is a constant of the sweep, not a knob: learned models clear it by a
// wide margin and random-init factors fall far below it.
const CheckpointShare = 0.75

// The process-wide category sweep counters (PruneStats).
var (
	sweepCategoriesSkipped atomic.Int64
	sweepItemsSkipped      atomic.Int64
	sweepBoundEvals        atomic.Int64
	sweepFallbacks         atomic.Int64
)

// PruneStats is a snapshot of the process-wide category sweep counters.
// ItemsPruned versus the catalog size is the share of dense sweep work
// the bounds saved; a high Fallbacks count means the bounds were too
// loose for the traffic (random-init factors) and the dense tier ran.
type PruneStats struct {
	// CategoriesSkipped counts cut categories never swept because their
	// bound could not reach the k-th score.
	CategoriesSkipped int64
	// ItemsPruned counts the catalog items inside skipped categories.
	ItemsPruned int64
	// BoundEvals counts category bounds evaluated, one per cut category
	// per sweep.
	BoundEvals int64
	// Fallbacks counts sweeps that handed the query to the dense tier: a
	// checkpoint bail, or a query whose rounding allowance is not finite.
	Fallbacks int64
}

// PruneCounters returns the process-wide category sweep counters.
func PruneCounters() PruneStats {
	return PruneStats{
		CategoriesSkipped: sweepCategoriesSkipped.Load(),
		ItemsPruned:       sweepItemsSkipped.Load(),
		BoundEvals:        sweepBoundEvals.Load(),
		Fallbacks:         sweepFallbacks.Load(),
	}
}

// itemRange is one category's items: a contiguous raw item range [lo, hi)
// when gather is false, a span of the depth-first item order (to
// gather-score item by item) when gather is true.
type itemRange struct {
	lo, hi int32
	gather bool
}

// nodeRange is the unit covering node's subtree, whose depth-first span
// is [dlo, dhi): its raw item range when that is contiguous — the blocked
// kernels the dense sweep uses — and a gather over the span otherwise.
func nodeRange(ix *model.ScoringIndex, node, dlo, dhi int) itemRange {
	if lo, hi, contiguous := ix.ItemRange(node); contiguous {
		return itemRange{int32(lo), int32(hi), false}
	}
	return itemRange{int32(dlo), int32(dhi), true}
}

// sweep pushes the tier score of every item of r that passes mask into st.
func (r itemRange) sweep(ix *model.ScoringIndex, tq *tierQuery, b *blockBuf, mask *vecmath.Bitset, st *vecmath.TopKStream) {
	if r.gather {
		tq.gather(ix, ix.DFSItems()[r.lo:r.hi], mask, st)
		return
	}
	sweepRange(ix, tq, int(r.lo), int(r.hi), b, mask, st)
}

// boundedCat is one heap entry: a cut category, its item count and its
// bound.
type boundedCat struct {
	bound     float64
	cat, size int32
}

// catSweep is the pooled per-query state of a category sweep, so the
// steady-state sweep allocates nothing.
type catSweep struct {
	bounds []float64
	heap   []boundedCat
	tq     tierQuery
	buf    blockBuf
}

var catSweeps = sync.Pool{New: func() any { return new(catSweep) }}

// siftDown restores the max-heap order below position i. The heap is
// typed — an interface-based container/heap costs more than the bounds.
func siftDown(h []boundedCat, i int) {
	for {
		l, m := 2*i+1, i
		if l < len(h) && h[l].bound > h[m].bound {
			m = l
		}
		if r := l + 1; r < len(h) && h[r].bound > h[m].bound {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// categorySweep fills the armed collector st with the exact f64 top-k of
// the eligible items by the category sweep and reports true, or leaves st
// re-armed empty and reports false when the dense sweep must run instead:
// the index has no cut, the rounding allowance is not finite, or a
// checkpoint bailed. A canceled sweep reports true; the caller's done
// check discards its partial collector.
func categorySweep(done <-chan struct{}, ix *model.ScoringIndex, q []float64, cf *compiledFilter, st *vecmath.TopKStream) bool {
	m := ix.NumCut()
	if m == 0 {
		return false
	}
	cs := catSweeps.Get().(*catSweep)
	defer catSweeps.Put(cs)
	cs.bounds = slices.Grow(cs.bounds[:0], m)[:m]
	eps := ix.CutBoundsInto(q, cs.bounds)
	sweepBoundEvals.Add(int64(m))
	if !finite(eps) {
		sweepFallbacks.Add(1)
		return false
	}
	qn := math.Sqrt(vecmath.SqNorm2(q))
	h := cs.heap[:0]
	total := 0
	centre := math.Inf(-1)
	for j, b := range cs.bounds {
		node := ix.CutNode(j)
		if !cf.keeps(ix, node) {
			continue
		}
		if b != b {
			// a NaN bound has no place in the order
			sweepFallbacks.Add(1)
			cs.heap = h
			return false
		}
		size := ix.CutSize(j)
		total += size
		h = append(h, boundedCat{bound: b, cat: int32(j), size: int32(size)})
		centre = max(centre, b-qn*ix.CutRadius(j))
	}
	cs.heap = h
	// the checkpoint before any row is read: the best centre score stands
	// in for the k-th score (learned models' top items score above it,
	// so this share reads high there), and bounds too loose to rule out
	// the catalog even against it bail for the cost of the bounds alone
	if loose(h, eps, centre, total) {
		sweepFallbacks.Add(1)
		return false
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	cs.tq.prepare(ix, tierF64, q)
	defer func() { cs.tq.q = nil }()
	mask := maskOf(cf)
	checked := false
	for len(h) > 0 {
		if canceled(done) {
			return true
		}
		th, full := st.Threshold()
		if full && h[0].bound+eps < th {
			break
		}
		cs.sweep(ix, pop(&h), mask, st)
		if th, full := st.Threshold(); full && !checked {
			checked = true
			if loose(h, eps, th, total) {
				sweepFallbacks.Add(1)
				st.Reset(st.K())
				return false
			}
		}
	}
	var items int64
	for _, e := range h {
		items += int64(e.size)
	}
	sweepCategoriesSkipped.Add(int64(len(h)))
	sweepItemsSkipped.Add(items)
	return true
}

// sweep pushes the tier score of every item of category e that passes
// mask into st.
func (cs *catSweep) sweep(ix *model.ScoringIndex, e boundedCat, mask *vecmath.Bitset, st *vecmath.TopKStream) {
	node := ix.CutNode(int(e.cat))
	dlo, dhi := ix.DFSSpan(node)
	nodeRange(ix, node, dlo, dhi).sweep(ix, &cs.tq, &cs.buf, mask, st)
}

// pop removes and returns the max-bound category of the heap *h.
func pop(h *[]boundedCat) boundedCat {
	s := *h
	top := s[0]
	s[0] = s[len(s)-1]
	s = s[:len(s)-1]
	siftDown(s, 0)
	*h = s
	return top
}

// loose reports whether the queued categories whose bound + eps is
// strictly below th hold less than CheckpointShare of the total candidate
// items. A sweep with nothing left to visit is complete, never loose.
func loose(h []boundedCat, eps, th float64, total int) bool {
	if len(h) == 0 {
		return false
	}
	out := 0
	for _, e := range h {
		if e.bound+eps < th {
			out += int(e.size)
		}
	}
	return float64(out) < CheckpointShare*float64(total)
}

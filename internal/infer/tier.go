package infer

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/vecmath"
)

// A precision tier is a value. Everything that differs between the exact
// f64 sweep and the two reduced-precision first stages — query prep, the
// block kernel, the per-item scorer, the certified error bound, the
// over-fetch rule and the escalation counter — is a case of one switch in
// this file; every routine (range sweep, rescore, the escalation and
// pruned loops, the pooled task body) exists once and takes the tier as
// data. The switches run once per block, span or shard, never per item
// in a dense loop.
//
// The reduced tiers are two-stage. Stage one sweeps the tier's compact
// slab (float32: half the f64 bytes per row; int8: a quarter of that) into
// an over-fetched candidate heap of k' entries; stage two rescores the
// candidates with the exact float64 factors into the caller's k-heap. The
// result is byte-identical to the f64 sweep, ties included: let τ be the
// candidate heap's threshold after the sweep, so every item NOT retained
// has tier score ≤ τ under the (score desc, lower ID) total order. The
// index certifies ε with |tier − f64 score| ≤ ε for every item
// (ItemErrBound32 / ItemErrBoundI8), so every excluded item's exact score
// is ≤ τ + ε. If the exact k-th best score among the candidates strictly
// exceeds τ + ε, no excluded item can reach — or tie — the boundary, and
// the candidates' exact top-k IS the global exact top-k. When the margin
// cannot separate (near-tie score regimes) k' doubles and the sweep
// repeats, degenerating to the f64 sweep once k' covers the eligible
// items; each doubling is counted in the tier's escalation counter. A
// non-finite ε — the tier cannot represent this query's scores at all —
// runs the f64 tier directly. f64 is the tier whose bound is zero and
// which has no second stage.
//
// Candidates are float64 at every tier: a float32 score widens exactly, so
// the f32 tier's heap retains the same set a float32 heap would. Filters
// do not touch the argument: a filtered sweep never pushes an ineligible
// item, so both the candidates and the excluded items range over eligible
// items only.
type tier uint8

const (
	tierF64 tier = iota
	tierF32
	tierI8
)

// tierOf maps a plan precision to its tier.
func tierOf(p model.Precision) tier {
	switch p.Resolve() {
	case model.PrecisionF32:
		return tierF32
	case model.PrecisionInt8:
		return tierI8
	}
	return tierF64
}

// f32Escalations and i8Escalations count boundary-separation failures of
// the two reduced tiers across every plan shape, serial and pooled.
var f32Escalations, i8Escalations atomic.Int64

// F32Escalations returns the process-wide count of f32 margin escalations
// — each one a re-sweep with a doubled candidate budget. A steadily
// climbing count under production traffic means the score distribution is
// tighter than float32 resolution and the f64 path may be cheaper.
func F32Escalations() int64 { return f32Escalations.Load() }

// I8Escalations returns the process-wide count of int8 margin escalations
// — each one a re-sweep with a doubled candidate budget. A climbing count
// means the score distribution is tighter than the quantization error and
// the f32 (or f64) tier may be cheaper.
func I8Escalations() int64 { return i8Escalations.Load() }

func (t tier) escalations() *atomic.Int64 {
	if t == tierI8 {
		return &i8Escalations
	}
	return &f32Escalations
}

// overFetch is the initial candidate budget k' for a final ranking of k.
// f32: a quarter again plus a floor, so tiny k still clears garden-variety
// round-off ties in one pass. int8: its bound dwarfs the f32 one (order
// statistics of a 50k catalog put the k-th/2k-th gap near the
// quantization error), so a full doubling and a larger floor — a margin
// that usually certifies in one pass beats one that routinely escalates.
func (t tier) overFetch(k int) int {
	if t == tierI8 {
		return 2*k + 64
	}
	return k + k/4 + 16
}

// tierQuery is one query prepared for its tier: the exact query (which
// the bounds and the rescore always read), the tier's reduced form, and
// the certified bound ε of its scores against the exact ones.
type tierQuery struct {
	tier         tier
	q            []float64
	q32          []float32
	u            []int8
	qscale, sumQ float64
	eps          float64
}

// prepare arms tq for q at tier t, reusing tq's buffers — the query is
// rounded or quantized once, and every sweep, escalation and shard of the
// request reads the same codes.
func (tq *tierQuery) prepare(ix *model.ScoringIndex, t tier, q []float64) {
	tq.tier, tq.q, tq.eps = t, q, 0
	switch t {
	case tierF32:
		tq.q32 = slices.Grow(tq.q32[:0], len(q))[:len(q)]
		vecmath.Downconvert32(tq.q32, q)
		tq.eps = ix.ItemErrBound32(q)
	case tierI8:
		tq.u = slices.Grow(tq.u[:0], len(q))[:len(q)]
		var sumAbsErr float64
		tq.qscale, tq.sumQ, sumAbsErr = vecmath.QuantizeQuery(tq.u, q)
		tq.eps = ix.ItemErrBoundI8(q, sumAbsErr)
	}
}

func finite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }

// staged reports whether tq runs a two-stage pass at candidate budget kp:
// its tier must be a reduced one whose bound certifies, and the budget
// must not already cover the eligible items (then the exact sweep is
// cheaper).
func staged(tq *tierQuery, kp, eligible int) bool {
	return tq.tier != tierF64 && kp < eligible && finite(tq.eps)
}

// blockBuf is what one range sweep scores a block into: block scores at
// either width, and the surviving offsets of the fused int8 kernel (or the
// eligible ids of a sparse masked block).
type blockBuf struct {
	rows [blockItems]int32
	s64  [blockItems]float64
	s32  [blockItems]float32
}

// sweepRange streams the tier scores of the item range [rangeLo, rangeHi)
// into the armed collector, restricted to mask's items when mask is
// non-nil — the one range sweep behind the dense, sharded, pruned and
// exact passes. Each block adapts to its eligible count: empty blocks are
// skipped without touching their rows, mostly eligible ones run the
// tier's block kernel and drop ineligible items at push time, and sparse
// ones gather their eligible rows through the per-item scorer, which
// accumulates in the exact order of a blocked row — so the scores, and
// therefore the ranking, are bitwise identical whichever path a block
// takes.
func sweepRange(ix *model.ScoringIndex, tq *tierQuery, rangeLo, rangeHi int, b *blockBuf, mask *vecmath.Bitset, st *vecmath.TopKStream) {
	for lo := rangeLo; lo < rangeHi; lo += blockItems {
		hi := min(lo+blockItems, rangeHi)
		eligible := hi - lo
		if mask != nil {
			eligible = mask.CountRange(lo, hi)
		}
		switch {
		case eligible == 0:
		case eligible == hi-lo:
			tq.scoreBlock(ix, lo, hi, b, nil, st)
		case eligible*4 >= (hi-lo)*3:
			tq.scoreBlock(ix, lo, hi, b, mask, st)
		default:
			ids := b.rows[:0]
			mask.ForEachInRange(lo, hi, func(item int) { ids = append(ids, int32(item)) })
			tq.gather(ix, ids, nil, st)
		}
	}
}

// scoreBlock runs the tier's block kernel over [lo, hi) and pushes every
// item that passes mask (nil passes all) and could enter st. The int8
// kernel is threshold-aware: it hands back only the items at or above the
// collector's k-th score, and since the threshold only rises within a
// block, re-checking survivors at push leaves the collector exactly where
// pushing every score would.
func (tq *tierQuery) scoreBlock(ix *model.ScoringIndex, lo, hi int, b *blockBuf, mask *vecmath.Bitset, st *vecmath.TopKStream) {
	switch tq.tier {
	case tierF32:
		ix.ItemScoresRange32Into(tq.q32, lo, hi, b.s32[:])
		pushBlock(st, lo, b.s32[:hi-lo], mask)
	case tierI8:
		tau := math.Inf(-1)
		th, full := st.Threshold()
		if full {
			tau = th
		}
		n := ix.ItemScoresRangeI8Above(tq.u, tq.qscale, tq.sumQ, tau, lo, hi, b.rows[:], b.s64[:])
		for i, r := range b.rows[:n] {
			item, s := lo+int(r), b.s64[i]
			if (full && s < th) || (mask != nil && !mask.Get(item)) {
				continue
			}
			st.Push(item, s)
			th, full = st.Threshold()
		}
	default:
		ix.ItemScoresRangeInto(tq.q, lo, hi, b.s64[:])
		pushBlock(st, lo, b.s64[:hi-lo], mask)
	}
}

// pushBlock pushes the block scores of items lo, lo+1, ... that pass mask
// into st. Once the heap is full, items strictly below the k-th score are
// rejected with one inlined comparison; ties must go through Push so the
// lower-ID tie-break still applies. The comparison runs at the scores' own
// width: a heap swept at a tier only ever holds that tier's scores
// (widened, for f32), so its threshold narrows back to S exactly.
func pushBlock[S float32 | float64](st *vecmath.TopKStream, lo int, scores []S, mask *vecmath.Bitset) {
	th, full := st.Threshold()
	ths := S(th)
	for i, v := range scores {
		if (full && v < ths) || (mask != nil && !mask.Get(lo+i)) {
			continue
		}
		st.Push(lo+i, float64(v))
		th, full = st.Threshold()
		ths = S(th)
	}
}

// gather pushes the tier score of every listed item that passes mask (nil
// passes all), one item at a time through the per-item scorer.
func (tq *tierQuery) gather(ix *model.ScoringIndex, items []int32, mask *vecmath.Bitset, st *vecmath.TopKStream) {
	switch tq.tier {
	case tierF32:
		for _, it := range items {
			if mask == nil || mask.Get(int(it)) {
				st.Push(int(it), float64(ix.ScoreItem32(int(it), tq.q32)))
			}
		}
	case tierI8:
		for _, it := range items {
			if mask == nil || mask.Get(int(it)) {
				st.Push(int(it), ix.ScoreItemI8(int(it), tq.u, tq.qscale, tq.sumQ))
			}
		}
	default:
		for _, it := range items {
			if mask == nil || mask.Get(int(it)) {
				st.Push(int(it), ix.ScoreItem(int(it), tq.q))
			}
		}
	}
}

// rescoreChunk is how many candidates the rescore stage scores between
// cancellation polls. Escalated candidate sets can approach catalog
// size, so stage two polls like the sweeps do.
const rescoreChunk = 1024

// rescore is stage two: it pushes the exact float64 score of every
// retained candidate into st and reports whether the boundary is
// certified separated — true means st now holds exactly the global f64
// top-k of the swept items. A cancelled rescore reports false: the
// partial heap must never certify.
func rescore(done <-chan struct{}, ix *model.ScoringIndex, q []float64, cand, st *vecmath.TopKStream, eps float64) bool {
	entries := cand.Entries()
	for lo := 0; lo < len(entries); lo += rescoreChunk {
		if canceled(done) {
			return false
		}
		for _, e := range entries[lo:min(lo+rescoreChunk, len(entries))] {
			st.Push(e.ID, ix.ScoreItem(e.ID, q))
		}
	}
	return separated(st, cand, eps)
}

// separated reports whether the exact k-th boundary in st strictly clears
// the candidate threshold τ by more than the certified bound ε. An unfull
// candidate heap retained everything, so the rescore saw the whole input.
// A non-finite τ or ε never certifies: the bounds cover rounding and
// quantization, not overflow, and a heap whose threshold sits at ±Inf or
// NaN dropped its excluded items by tie-break rather than score.
func separated(st, cand *vecmath.TopKStream, eps float64) bool {
	tau, candFull := cand.Threshold()
	if !candFull {
		return true
	}
	if !finite(tau) || !finite(eps) {
		return false
	}
	boundary, full := st.Threshold()
	return full && boundary > tau+eps
}

// tierScratch is the pooled per-query state of a tiered sweep: the
// prepared query and the stage-one candidate heap. Pooled so the
// steady-state serving path allocates nothing.
type tierScratch struct {
	tq   tierQuery
	cand vecmath.TopKStream
}

var tierScratches = sync.Pool{New: func() any { return new(tierScratch) }}

func (sc *tierScratch) release() {
	sc.tq.q = nil
	tierScratches.Put(sc)
}

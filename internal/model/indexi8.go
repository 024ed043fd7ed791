package model

import (
	"math"

	"repro/internal/vecmath"
)

// The int8 quantized face of the scoring index. ensure8 materializes the
// quantized item slab beside the f64 one on first int8 use, and the
// accessors below mirror the f64 surface: per-row scoring, range sweeps,
// plus the certified error bound the two-stage pipeline's separation
// certificate charges.

// ensure8 quantizes the item slab and records the aggregates
// ItemErrBoundI8 needs. Safe for concurrent first use; a host sweeping
// another tier never pays the quantization pass or the extra ~12.5% slab
// memory.
func (ix *ScoringIndex) ensure8() {
	ix.i8Once.Do(func() {
		ix.ensureBounds()
		ix.itemI8 = vecmath.NewMatrixI8(ix.numItems, ix.k)
		ix.itemScaleI8 = make([]float64, ix.numItems)
		ix.itemOffsetI8 = make([]float64, ix.numItems)
		ix.maxItemRowErrI8, ix.maxItemScaleI8, ix.maxAbsItemOffsetI8 =
			ix.itemI8.QuantizeFrom(ix.itemFactors, ix.itemScaleI8, ix.itemOffsetI8)
	})
}

// Warm materializes everything a query at the host's tier
// (PrecisionDefault.Resolve) would otherwise build lazily on first use:
// the magnitude bounds every certificate and prune bound reads, plus the
// int8 mirror slab when that is the tier. A server calls it before publishing a
// snapshot so the first request never pays a catalog-sized pass. It is a
// no-op on snapshots whose tiers came precomputed (v4 files) and safe for
// concurrent use.
func (ix *ScoringIndex) Warm() {
	ix.ensureBounds()
	if PrecisionDefault.Resolve() == PrecisionInt8 {
		ix.ensure8()
	}
}

// ScoreItemI8 returns item's quantized-tier score against the quantized
// query (u, qscale, sumQ) — see vecmath.QuantizeQuery. The result is
// bitwise identical whether computed here or by any blocked int8 sweep.
func (ix *ScoringIndex) ScoreItemI8(item int, u []int8, qscale, sumQ float64) float64 {
	ix.ensure8()
	return vecmath.DotBiasI8(u, ix.itemI8.Row(item), ix.itemScaleI8[item], ix.itemOffsetI8[item], ix.itemBias[item], qscale, sumQ)
}

// blockItems is the row count of one ItemScoresRangeI8Into step, the same
// block the infer sweep engine scores per step.
const blockItems = 256

// ItemScoresRangeI8Into scores the contiguous item range [lo, hi) through
// the quantized slab into dst[:hi-lo] — the quarter-bandwidth sibling of
// ItemScoresRangeInto. It is the served sweep at tau = −Inf: every item
// survives in order, so each step's scores land in dst densely and the
// survivor rows go to a stack buffer.
func (ix *ScoringIndex) ItemScoresRangeI8Into(u []int8, qscale, sumQ float64, lo, hi int, dst []float64) {
	var rows [blockItems]int32
	for b := lo; b < hi; b += blockItems {
		e := min(b+blockItems, hi)
		ix.ItemScoresRangeI8Above(u, qscale, sumQ, math.Inf(-1), b, e, rows[:], dst[b-lo:e-lo])
	}
}

// ItemScoresRangeI8Above is the threshold-aware range sweep of the int8
// tier: it scores [lo, hi) exactly as ScoreItemI8 does item by item but
// keeps only the items whose score s satisfies !(s < tau) —
// rows[:n] receives their offsets from lo in ascending order, scores[:n]
// their scores — and returns n (see vecmath.SweepBiasI8Above). Passing a
// collector's k-th score as tau (−Inf while it is not full) hands back
// exactly the items its rejection test would let through. rows and
// scores must hold hi−lo entries.
func (ix *ScoringIndex) ItemScoresRangeI8Above(u []int8, qscale, sumQ, tau float64, lo, hi int, rows []int32, scores []float64) int {
	ix.ensure8()
	k := ix.k
	return vecmath.SweepBiasI8Above(ix.itemI8.Data()[lo*k:hi*k], k, ix.itemScaleI8[lo:hi], ix.itemOffsetI8[lo:hi], ix.itemBias[lo:hi], u, qscale, sumQ, tau, rows, scores)
}

// ItemErrBoundI8 returns ε such that for every item,
// |ScoreItemI8(item, u, qscale, sumQ) − ScoreItem(item, q)| ≤ ε, where
// (u, qscale, sumQ, sumAbsQErr) came from vecmath.QuantizeQuery(u, q).
// A +Inf result means the tier cannot certify this index/query pair
// (non-finite quantization, or a factor dimensionality past the exact
// int32 dot range) and the caller must fall back to an exact sweep.
func (ix *ScoringIndex) ItemErrBoundI8(q []float64, sumAbsQErr float64) float64 {
	ix.ensure8()
	return ix.errBoundI8(q, sumAbsQErr, ix.maxItemRowErrI8, ix.maxItemScaleI8, ix.maxAbsItemOffsetI8, ix.maxAbsItemFactor, ix.maxAbsItemBias)
}

// errBoundI8 bounds |int8-tier score − exact f64 score|. Writing the
// exact score as Σ q_j·x_j + bias and each row value as its
// reconstruction plus measured error, x_j = (scale·c_j + offset) + e_j,
// the difference decomposes into
//
//	Σ q_j·e_j                   ≤ Σ|q|·maxRowErr      (row quantization)
//	scale·Σ f_j·c_j             ≤ 127·maxScale·Σ|f|   (query quantization,
//	                                f_j = q_j − qscale·u_j, |c_j| ≤ 127)
//
// plus the float64 rounding of the short combine and of the sumQ
// accumulation — at most a small multiple of n·2⁻⁵³ relative to
// Σ|q|·(maxF + maxOffset) + maxB. We charge (n+8)·2⁻⁵⁰, an ≥8x slack
// that also absorbs the reconstruction-measurement rounding, plus a tiny
// absolute term for subnormals. The integer dot itself is exact, so no
// term grows with the accumulation — unless k exceeds the int32-exact
// range, in which case the bound is +Inf and nothing certifies.
func (ix *ScoringIndex) errBoundI8(q []float64, sumAbsQErr, maxRowErr, maxScale, maxAbsOffset, maxF, maxB float64) float64 {
	if ix.k > vecmath.MaxDotLenI8 {
		return math.Inf(1)
	}
	var sumAbs float64
	for _, v := range q {
		sumAbs += math.Abs(v)
	}
	const u = 1.0 / (1 << 50)
	slack := (float64(len(q)) + 8) * u * (sumAbs*(maxF+maxAbsOffset) + maxB)
	return sumAbs*maxRowErr + 127*maxScale*sumAbsQErr + slack + 1e-30
}

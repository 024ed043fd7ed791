package infer

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/vecmath"
)

// The two-stage float32 scoring pipeline. Stage one sweeps the index's
// compact float32 slabs — half the memory bandwidth of the float64 sweep —
// into an over-fetched bounded candidate heap of k' = k + margin entries.
// Stage two rescores the candidates with the exact float64 factors into
// the caller's k-heap.
//
// The result is byte-identical to the float64 path, ties included, by the
// following argument. Let τ be the f32 heap's threshold after the sweep:
// every item NOT retained has f32 score ≤ τ under the (score desc, lower
// ID) total order. The index certifies ε = ErrBound32(q) with
// |f32 − f64 score| ≤ ε for every item, so every excluded item's exact
// score is ≤ τ + ε. If the exact k-th best score among the candidates
// strictly exceeds τ + ε, no excluded item can reach — or tie — the
// boundary, and the candidates' exact top-k IS the global exact top-k,
// tie-breaks included (all surviving comparisons are between exact f64
// scores under the same total order the f64 path uses). When the margin
// cannot separate the boundary — adversarial near-tie score regimes —
// the pipeline escalates: k' doubles and the sweep repeats, degenerating
// to the plain f64 sweep once k' reaches the eligible input size.
// Escalations are counted in F32Escalations for observability; they cost
// a re-sweep but can never cost correctness.
//
// The argument is untouched by plan filters: a filtered sweep never
// pushes an ineligible item, so both the candidate set and the "excluded
// items" it is certified against range over eligible items only.
//
// The pipeline itself lives in exec.go (naiveF32, executeMulti — the
// cascade and diversified strategies ride naiveF32); this file keeps the
// shared f32 plumbing — scratch pools, the rescore stage, the separation
// certificate.

// f32Escalations counts boundary-separation failures across all f32
// pipelines (naive, cascade, diversified, batched; serial and pooled).
var f32Escalations atomic.Int64

// F32Escalations returns the process-wide count of f32 margin escalations
// — each one a re-sweep with a doubled candidate budget. A steadily
// climbing count under production traffic means the score distribution is
// tighter than float32 resolution and the f64 path may be cheaper.
func F32Escalations() int64 { return f32Escalations.Load() }

// f32OverFetch is the initial candidate budget k' for a final ranking of
// k: a quarter again plus a fixed floor, so tiny k still over-fetches
// enough to clear garden-variety round-off ties in one pass.
func f32OverFetch(k int) int { return k + k/4 + 16 }

// f32Scratch is the reusable per-query state of an f32 pipeline: the
// rounded query and the candidate heap. Pooled so the steady-state
// serving path allocates nothing.
type f32Scratch struct {
	q32  []float32
	cand vecmath.TopKStream32
}

var f32Scratches = sync.Pool{New: func() any { return new(f32Scratch) }}

// getF32Scratch returns a scratch with q32 sized and filled from q.
func getF32Scratch(q []float64) *f32Scratch {
	sc := f32Scratches.Get().(*f32Scratch)
	if cap(sc.q32) < len(q) {
		sc.q32 = make([]float32, len(q))
	}
	sc.q32 = sc.q32[:len(q)]
	vecmath.Downconvert32(sc.q32, q)
	return sc
}

// sweepRange32Into is sweepRangeInto over the compact f32 slab: it scores
// the item range [rangeLo, rangeHi) in block-sized steps into an armed
// TopKStream32 with the same inlined threshold rejection.
func sweepRange32Into(ix *model.ScoringIndex, q32 []float32, rangeLo, rangeHi int, block []float32, st *vecmath.TopKStream32) {
	th, full := st.Threshold()
	for lo := rangeLo; lo < rangeHi; lo += len(block) {
		hi := lo + len(block)
		if hi > rangeHi {
			hi = rangeHi
		}
		buf := block[:hi-lo]
		ix.ItemScoresRange32Into(q32, lo, hi, buf)
		for i, s := range buf {
			if full && s < th {
				continue
			}
			st.Push(lo+i, s)
			th, full = st.Threshold()
		}
	}
}

// activeF32Into fills dst with the indices of queries whose candidate
// budget does not already cover the catalog — the queries the shared f32
// sweep actually runs for; the rest go straight to the f64 finish path.
func activeF32Into(dst []int, cands []vecmath.TopKStream32, items int) []int {
	dst = dst[:0]
	for i := range cands {
		if cands[i].K() < items {
			dst = append(dst, i)
		}
	}
	return dst
}

// sweepShard32Multi sweeps one shard for the active queries in groups of
// qBlock through the blocked multi-query f32 kernel: each group reads the
// shard's compact rows once.
func sweepShard32Multi(ix *model.ScoringIndex, qs32 [][]float32, sts []*vecmath.TopKStream32, active []int, lo, hi int) {
	for g := 0; g < len(active); g += qBlock {
		ge := g + qBlock
		if ge > len(active) {
			ge = len(active)
		}
		var gq [qBlock][]float32
		var gst [qBlock]*vecmath.TopKStream32
		n := ge - g
		for j := 0; j < n; j++ {
			qi := active[g+j]
			gq[j], gst[j] = qs32[qi], sts[qi]
		}
		sweepRange32MultiInto(ix, gq[:n], lo, hi, gst[:n])
	}
}

// sweepRange32MultiInto sweeps [rangeLo, rangeHi) once for a group of at
// most qBlock queries: every 4-row block of the compact slab is scored
// against the whole group (ItemScoresRange32MultiInto, whose inner loops
// repeat MatVecBias32's accumulation statement for statement) before the
// sweep advances. Each query's pushes arrive in the same (block-ascending,
// item-ascending) order as its single-query sweep, so each candidate heap
// retains the identical set.
func sweepRange32MultiInto(ix *model.ScoringIndex, qs32 [][]float32, rangeLo, rangeHi int, sts []*vecmath.TopKStream32) {
	var bufs [qBlock][blockItems]float32
	var dsts [qBlock][]float32
	var th [qBlock]float32
	var full [qBlock]bool
	for qi := range qs32 {
		th[qi], full[qi] = sts[qi].Threshold()
	}
	for lo := rangeLo; lo < rangeHi; lo += blockItems {
		hi := lo + blockItems
		if hi > rangeHi {
			hi = rangeHi
		}
		for qi := range qs32 {
			dsts[qi] = bufs[qi][:hi-lo]
		}
		ix.ItemScoresRange32MultiInto(qs32, lo, hi, dsts[:len(qs32)])
		for qi := range qs32 {
			st := sts[qi]
			for i, s := range dsts[qi] {
				if full[qi] && s < th[qi] {
					continue
				}
				st.Push(lo+i, s)
				th[qi], full[qi] = st.Threshold()
			}
		}
	}
}

// rescoreChunk is how many candidates the rescore stages score between
// cancellation polls. Escalated candidate sets can approach catalog
// size, so stage two polls like the sweeps do — without it a deadline
// firing at the start of a rescore could not abandon the query until a
// catalog-scale scoring pass finished.
const rescoreChunk = 1024

// rescoreItems pushes the exact float64 score of every retained candidate
// into st and reports whether the boundary is certified separated (see
// the package comment above): true means st now holds exactly the global
// f64 top-k of the swept items. A cancelled rescore reports false — the
// partial heap must never be certified; the caller's escalation loop
// observes the cancellation before re-sweeping.
func rescoreItems(done <-chan struct{}, ix *model.ScoringIndex, q []float64, cand *vecmath.TopKStream32, st *vecmath.TopKStream, eps float64) bool {
	entries := cand.Entries()
	for lo := 0; lo < len(entries); lo += rescoreChunk {
		if canceled(done) {
			return false
		}
		hi := lo + rescoreChunk
		if hi > len(entries) {
			hi = len(entries)
		}
		for _, e := range entries[lo:hi] {
			st.Push(e.ID, ix.ScoreItem(e.ID, q))
		}
	}
	return separated(st, cand, eps)
}

// separated reports whether the exact k-th boundary in st strictly clears
// the f32 retention threshold by more than the certified error bound. An
// unfull candidate heap retained everything, so the rescore saw the whole
// input and the result is trivially exact. A non-finite τ never
// certifies: ErrBound32 bounds rounding error, not overflow, and a heap
// whose threshold sits at −Inf dropped its excluded items by ID
// tie-break rather than score — escalating (ultimately to the f64 sweep)
// is the only sound answer there.
func separated(st *vecmath.TopKStream, cand *vecmath.TopKStream32, eps float64) bool {
	tau, candFull := cand.Threshold()
	if !candFull {
		return true
	}
	tau64 := float64(tau)
	if math.IsInf(tau64, 0) || math.IsNaN(tau64) {
		return false
	}
	boundary, full := st.Threshold()
	return full && boundary > tau64+eps
}

// multiF32Scratch is the reusable state of a batched f32 sweep: the
// per-query candidate heaps, their pointer view (the task wire format),
// and the rounded queries sliced from one flat backing array. Pooled so
// steady-state batched serving — the default pipeline under load —
// allocates nothing, matching the f64 batch path.
type multiF32Scratch struct {
	cands  []vecmath.TopKStream32
	ptrs   []*vecmath.TopKStream32
	qbuf   []float32
	qs32   [][]float32
	active []int
}

var multiF32Scratches = sync.Pool{New: func() any { return new(multiF32Scratch) }}

// getMultiF32Scratch arms a scratch for the batch: candidate heaps reset
// to each query's over-fetch budget and queries rounded to float32.
func getMultiF32Scratch(qs [][]float64, outs []*vecmath.TopKStream) *multiF32Scratch {
	sc := multiF32Scratches.Get().(*multiF32Scratch)
	b := len(qs)
	if cap(sc.cands) < b {
		sc.cands = make([]vecmath.TopKStream32, b)
		sc.ptrs = make([]*vecmath.TopKStream32, b)
		sc.qs32 = make([][]float32, b)
	}
	sc.cands, sc.ptrs, sc.qs32 = sc.cands[:b], sc.ptrs[:b], sc.qs32[:b]
	need := 0
	for _, q := range qs {
		need += len(q)
	}
	if cap(sc.qbuf) < need {
		sc.qbuf = make([]float32, need)
	}
	sc.qbuf = sc.qbuf[:need]
	off := 0
	for i, q := range qs {
		sc.cands[i].Reset(f32OverFetch(outs[i].K()))
		sc.ptrs[i] = &sc.cands[i]
		q32 := sc.qbuf[off : off+len(q) : off+len(q)]
		vecmath.Downconvert32(q32, q)
		sc.qs32[i] = q32
		off += len(q)
	}
	return sc
}

// finishMultiF32 runs the per-query rescore stage of a batched f32 sweep.
// A query whose margin fails to separate escalates alone through the
// serial pipeline at the next budget doubling — the shared sweep is not
// repeated for the batch. The done channel gates the per-query escalation
// re-sweeps; a fired deadline abandons the remaining queries (the caller
// discards the batch).
func finishMultiF32(done <-chan struct{}, c *model.Composed, qs [][]float64, outs []*vecmath.TopKStream, cands []vecmath.TopKStream32) {
	ix := c.Index
	n := ix.NumItems()
	for i, q := range qs {
		if canceled(done) {
			return
		}
		k := outs[i].K()
		if k <= 0 {
			continue
		}
		if cands[i].K() >= n {
			// the candidate heap saw every item; rescore is the whole input
			outs[i].Reset(k)
			var block [blockItems]float64
			sweepRangeInto(ix, q, 0, n, block[:], outs[i])
			continue
		}
		eps := ix.ItemErrBound32(q)
		outs[i].Reset(k)
		if rescoreItems(done, ix, q, &cands[i], outs[i], eps) {
			continue
		}
		f32Escalations.Add(1)
		(*Pool)(nil).naiveF32(done, c, q, 1, nil, n, outs[i], cands[i].K()*2)
	}
}

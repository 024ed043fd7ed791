package infer

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/vecmath"
)

// The two-stage int8 scoring pipeline — the tier below f32. Stage one
// sweeps the index's quantized int8 slabs (a quarter of the f32 sweep's
// bytes per row) into an over-fetched candidate heap; stage two rescores
// the candidates with the exact float64 factors into the caller's k-heap.
//
// The exactness argument is the f32 pipeline's verbatim (see infer32.go)
// with one substitution: the certified bound ε comes from
// model.ScoringIndex.ItemErrBoundI8, which charges the measured per-row
// quantization error, the query's own quantization error against the row
// scales, and the float64 rounding of the short combine. ε_i8 is orders
// of magnitude larger than ε_f32, so the initial over-fetch is larger too
// (i8OverFetch) — a prune that keeps too few candidates costs an
// escalation re-sweep, never correctness. Because the integer dot is
// exact, a blocked/sharded/multi-query int8 sweep is trivially bitwise
// identical to the serial one; only the heap-merge argument of
// TopKStream.Merge is needed on top, exactly as for f32.
//
// The candidate heap is a float64 TopKStream (the combine produces
// float64 scores), so the rescore and certificate live here rather than
// sharing infer32.go's f32-typed ones; the logic is line for line the
// same.

// i8Escalations counts boundary-separation failures across all int8
// pipelines (naive, cascade, batched; serial and pooled).
var i8Escalations atomic.Int64

// I8Escalations returns the process-wide count of int8 margin escalations
// — each one a re-sweep with a doubled candidate budget. A climbing count
// means the score distribution is tighter than the quantization error and
// the f32 (or f64) tier may be cheaper.
func I8Escalations() int64 { return i8Escalations.Load() }

// i8OverFetch is the initial candidate budget k' for a final ranking of
// k. The int8 error bound dwarfs the f32 one, so the margin is a full
// doubling plus a larger floor: order statistics of a 50k-item catalog
// put the k-th/2k-th score gap near the quantization error, and a margin
// that usually certifies in one pass beats a smaller sweep that
// routinely escalates.
func i8OverFetch(k int) int { return 2*k + 64 }

// i8Scratch is the reusable per-query state of an int8 pipeline: the
// quantized query, its code parameters, and the candidate heap. Pooled so
// the steady-state serving path allocates nothing.
type i8Scratch struct {
	u         []int8
	qscale    float64
	sumQ      float64
	sumAbsErr float64
	cand      vecmath.TopKStream
}

var i8Scratches = sync.Pool{New: func() any { return new(i8Scratch) }}

// getI8Scratch returns a scratch with the query quantized once — every
// sweep, escalation and shard of the request reuses the same codes.
func getI8Scratch(q []float64) *i8Scratch {
	sc := i8Scratches.Get().(*i8Scratch)
	if cap(sc.u) < len(q) {
		sc.u = make([]int8, len(q))
	}
	sc.u = sc.u[:len(q)]
	sc.qscale, sc.sumQ, sc.sumAbsErr = vecmath.QuantizeQuery(sc.u, q)
	return sc
}

// sweepRangeI8Into is sweepRangeInto over the quantized slab: it scores
// the item range [rangeLo, rangeHi) in block-sized steps into an armed
// collector with the same inlined threshold rejection.
func sweepRangeI8Into(ix *model.ScoringIndex, u []int8, qscale, sumQ float64, rangeLo, rangeHi int, block []float64, st *vecmath.TopKStream) {
	th, full := st.Threshold()
	for lo := rangeLo; lo < rangeHi; lo += len(block) {
		hi := lo + len(block)
		if hi > rangeHi {
			hi = rangeHi
		}
		buf := block[:hi-lo]
		ix.ItemScoresRangeI8Into(u, qscale, sumQ, lo, hi, buf)
		for i, s := range buf {
			if full && s < th {
				continue
			}
			st.Push(lo+i, s)
			th, full = st.Threshold()
		}
	}
}

// sweepRangeI8MaskedInto is the quantized-slab twin of
// sweepRangeMaskedInto, with the same per-block adaptive visitation.
func sweepRangeI8MaskedInto(ix *model.ScoringIndex, u []int8, qscale, sumQ float64, rangeLo, rangeHi int, block []float64, mask *vecmath.Bitset, st *vecmath.TopKStream) {
	th, full := st.Threshold()
	for lo := rangeLo; lo < rangeHi; lo += len(block) {
		hi := lo + len(block)
		if hi > rangeHi {
			hi = rangeHi
		}
		eligible := mask.CountRange(lo, hi)
		switch {
		case eligible == 0:
			continue
		case eligible == hi-lo:
			buf := block[:hi-lo]
			ix.ItemScoresRangeI8Into(u, qscale, sumQ, lo, hi, buf)
			for i, s := range buf {
				if full && s < th {
					continue
				}
				st.Push(lo+i, s)
				th, full = st.Threshold()
			}
		case eligible*4 >= (hi-lo)*3:
			buf := block[:hi-lo]
			ix.ItemScoresRangeI8Into(u, qscale, sumQ, lo, hi, buf)
			for i, s := range buf {
				if !mask.Get(lo + i) {
					continue
				}
				if full && s < th {
					continue
				}
				st.Push(lo+i, s)
				th, full = st.Threshold()
			}
		default:
			mask.ForEachInRange(lo, hi, func(item int) {
				s := ix.ScoreItemI8(item, u, qscale, sumQ)
				if full && s < th {
					return
				}
				st.Push(item, s)
				th, full = st.Threshold()
			})
		}
	}
}

// rescoreEntries pushes the exact float64 score of every retained int8
// candidate into st and reports whether the boundary is certified
// separated — rescoreItems with a float64-typed candidate heap. A
// cancelled rescore reports false; the partial heap must never certify.
func rescoreEntries(done <-chan struct{}, ix *model.ScoringIndex, q []float64, cand *vecmath.TopKStream, st *vecmath.TopKStream, eps float64) bool {
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
	return separatedI8(st, cand, eps)
}

// separatedI8 is separated() for a float64 candidate heap: the exact k-th
// boundary must strictly clear the int8 retention threshold τ by more
// than the certified bound. An unfull candidate heap retained everything;
// a non-finite τ or ε never certifies (the bound covers quantization and
// rounding, not overflow or NaN poisoning).
func separatedI8(st, cand *vecmath.TopKStream, eps float64) bool {
	tau, candFull := cand.Threshold()
	if !candFull {
		return true
	}
	if math.IsInf(tau, 0) || math.IsNaN(tau) || math.IsInf(eps, 0) || math.IsNaN(eps) {
		return false
	}
	boundary, full := st.Threshold()
	return full && boundary > tau+eps
}

// naiveI8 runs the two-stage int8 pipeline from an explicit starting
// candidate budget — the int8 twin of naiveF32, same escalation loop,
// same degeneration to the plain f64 sweep once the budget covers every
// eligible item. A bound that cannot certify at all (+Inf: non-finite
// query, or a factor dimensionality past the exact int32 dot range) goes
// straight to the exact sweep instead of escalating through useless
// quantized passes. Steady-state calls allocate nothing.
func (p *Pool) naiveI8(done <-chan struct{}, c *model.Composed, q []float64, maxWorkers int, mask *vecmath.Bitset, eligible int, st *vecmath.TopKStream, kp0 int) {
	ix := c.Index
	k := st.K()
	if k <= 0 {
		return
	}
	sc := getI8Scratch(q)
	defer i8Scratches.Put(sc)
	eps := ix.ItemErrBoundI8(q, sc.sumAbsErr)
	if math.IsInf(eps, 0) || math.IsNaN(eps) {
		st.Reset(k)
		p.runSweep(done, ix, q, mask, maxWorkers, st)
		return
	}
	for kp := kp0; ; kp *= 2 {
		if canceled(done) {
			return
		}
		if kp >= eligible {
			// the candidate budget covers every eligible item: nothing to
			// prune, run the exact sweep directly
			st.Reset(k)
			p.runSweep(done, ix, q, mask, maxWorkers, st)
			return
		}
		sc.cand.Reset(kp)
		p.runSweepI8(done, ix, sc.u, sc.qscale, sc.sumQ, mask, maxWorkers, kp, &sc.cand)
		if canceled(done) {
			// a cancelled sweep left a truncated candidate set; rescoring it
			// could "certify" a wrong ranking, so bail before stage two
			return
		}
		st.Reset(k)
		if rescoreEntries(done, ix, q, &sc.cand, st, eps) {
			return
		}
		i8Escalations.Add(1)
	}
}

// runSweepI8 is runSweep over the quantized slab into a candidate heap of
// budget kp. The serial claim loop repeats the documented runSweep
// pattern (a shared closure would heap-escape the block buffer).
func (p *Pool) runSweepI8(done <-chan struct{}, ix *model.ScoringIndex, u []int8, qscale, sumQ float64, mask *vecmath.Bitset, maxWorkers, kp int, cand *vecmath.TopKStream) {
	fan := p.fanout(maxWorkers, ix.NumShards())
	if fan <= 1 {
		var block [blockItems]float64
		for s, n := 0, ix.NumShards(); s < n; s++ {
			if canceled(done) {
				return
			}
			lo, hi := ix.Shard(s)
			if mask == nil {
				sweepRangeI8Into(ix, u, qscale, sumQ, lo, hi, block[:], cand)
			} else {
				sweepRangeI8MaskedInto(ix, u, qscale, sumQ, lo, hi, block[:], mask, cand)
			}
		}
		return
	}
	t := p.getSweepTask()
	t.ix, t.qi8, t.qscale, t.sumQ, t.k, t.out, t.mask, t.done = ix, u, qscale, sumQ, kp, cand, mask, done
	t.numShards = int32(ix.NumShards())
	t.next.Store(0)
	p.dispatch(t, fan)
	t.ix, t.qi8, t.out, t.mask, t.done = nil, nil, nil, nil, nil
	p.sweeps.Put(t)
}

// ---- batched multi-query int8 sweep -------------------------------------

// multiI8Scratch is the reusable state of a batched int8 sweep: per-query
// candidate heaps, their pointer view, the quantized queries sliced from
// one flat backing array with their code parameters, and the active-query
// index list the blocked sweep groups over. Pooled like multiF32Scratch.
type multiI8Scratch struct {
	cands      []vecmath.TopKStream
	ptrs       []*vecmath.TopKStream
	ubuf       []int8
	us         [][]int8
	qscales    []float64
	sumQs      []float64
	sumAbsErrs []float64
	active     []int
}

var multiI8Scratches = sync.Pool{New: func() any { return new(multiI8Scratch) }}

// getMultiI8Scratch arms a scratch for the batch: candidate heaps reset
// to each query's over-fetch budget and every query quantized once.
func getMultiI8Scratch(qs [][]float64, outs []*vecmath.TopKStream) *multiI8Scratch {
	sc := multiI8Scratches.Get().(*multiI8Scratch)
	b := len(qs)
	if cap(sc.cands) < b {
		sc.cands = make([]vecmath.TopKStream, b)
		sc.ptrs = make([]*vecmath.TopKStream, b)
		sc.us = make([][]int8, b)
		sc.qscales = make([]float64, b)
		sc.sumQs = make([]float64, b)
		sc.sumAbsErrs = make([]float64, b)
	}
	sc.cands, sc.ptrs, sc.us = sc.cands[:b], sc.ptrs[:b], sc.us[:b]
	sc.qscales, sc.sumQs, sc.sumAbsErrs = sc.qscales[:b], sc.sumQs[:b], sc.sumAbsErrs[:b]
	need := 0
	for _, q := range qs {
		need += len(q)
	}
	if cap(sc.ubuf) < need {
		sc.ubuf = make([]int8, need)
	}
	sc.ubuf = sc.ubuf[:need]
	off := 0
	for i, q := range qs {
		sc.cands[i].Reset(i8OverFetch(outs[i].K()))
		sc.ptrs[i] = &sc.cands[i]
		u := sc.ubuf[off : off+len(q) : off+len(q)]
		sc.qscales[i], sc.sumQs[i], sc.sumAbsErrs[i] = vecmath.QuantizeQuery(u, q)
		sc.us[i] = u
		off += len(q)
	}
	return sc
}

// activeInto fills dst with the indices of queries whose candidate budget
// does not already cover the catalog — the queries the shared quantized
// sweep actually runs for; the rest go straight to the f64 finish path.
func activeI8Into(dst []int, cands []vecmath.TopKStream, items int) []int {
	dst = dst[:0]
	for i := range cands {
		if cands[i].K() < items {
			dst = append(dst, i)
		}
	}
	return dst
}

// sweepShardI8Multi sweeps one shard for the active queries in groups of
// qBlock through the blocked multi-query kernel: each group reads the
// shard's quantized rows once.
func sweepShardI8Multi(ix *model.ScoringIndex, us [][]int8, qscales, sumQs []float64, sts []*vecmath.TopKStream, active []int, lo, hi int) {
	for g := 0; g < len(active); g += qBlock {
		ge := g + qBlock
		if ge > len(active) {
			ge = len(active)
		}
		var gu [qBlock][]int8
		var gqs, gsum [qBlock]float64
		var gst [qBlock]*vecmath.TopKStream
		n := ge - g
		for j := 0; j < n; j++ {
			qi := active[g+j]
			gu[j], gqs[j], gsum[j], gst[j] = us[qi], qscales[qi], sumQs[qi], sts[qi]
		}
		sweepRangeI8MultiInto(ix, gu[:n], gqs[:n], gsum[:n], lo, hi, gst[:n])
	}
}

// sweepRangeI8MultiInto sweeps [rangeLo, rangeHi) once for a group of at
// most qBlock queries: every 4-row block is scored against the whole
// group (ItemScoresRangeI8MultiInto) before the sweep advances. Each
// query's pushes arrive in the same (block-ascending, item-ascending)
// order as its single-query sweep, so each candidate heap retains the
// identical set.
func sweepRangeI8MultiInto(ix *model.ScoringIndex, us [][]int8, qscales, sumQs []float64, rangeLo, rangeHi int, sts []*vecmath.TopKStream) {
	var bufs [qBlock][blockItems]float64
	var dsts [qBlock][]float64
	var th [qBlock]float64
	var full [qBlock]bool
	for qi := range us {
		th[qi], full[qi] = sts[qi].Threshold()
	}
	for lo := rangeLo; lo < rangeHi; lo += blockItems {
		hi := lo + blockItems
		if hi > rangeHi {
			hi = rangeHi
		}
		for qi := range us {
			dsts[qi] = bufs[qi][:hi-lo]
		}
		ix.ItemScoresRangeI8MultiInto(us, qscales, sumQs, lo, hi, dsts[:len(us)])
		for qi := range us {
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

// finishMultiI8 runs the per-query rescore stage of a batched int8 sweep;
// a query whose margin fails to separate escalates alone through the
// serial pipeline at the next budget doubling.
func finishMultiI8(done <-chan struct{}, c *model.Composed, qs [][]float64, outs []*vecmath.TopKStream, sc *multiI8Scratch) {
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
		if sc.cands[i].K() >= n {
			// the candidate heap saw every item; rescore is the whole input
			outs[i].Reset(k)
			var block [blockItems]float64
			sweepRangeInto(ix, q, 0, n, block[:], outs[i])
			continue
		}
		eps := ix.ItemErrBoundI8(q, sc.sumAbsErrs[i])
		outs[i].Reset(k)
		if rescoreEntries(done, ix, q, &sc.cands[i], outs[i], eps) {
			continue
		}
		i8Escalations.Add(1)
		(*Pool)(nil).naiveI8(done, c, q, 1, nil, n, outs[i], sc.cands[i].K()*2)
	}
}

package infer

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/vecmath"
)

// This file is the engine layer of the query-plan executor: the naive
// sweep and the multi-query batch, each taking the full parameterization
// — precision, worker cap, eligibility mask — as arguments, plus the
// cascade and diversified strategies as thin layers over the naive
// engine (a beam-built eligibility mask; a quota scan over an exact
// ranked prefix). Every public entry point funnels through the Plan
// executor into these functions, so a new serving capability is one
// parameter threaded through two engines. All engines are methods on
// *Pool with a nil receiver meaning "serial".

// ---- masked sweeps ------------------------------------------------------

// sweepRangeMaskedInto is sweepRangeInto restricted to items whose mask
// bit is set. Each block adapts to its eligible count: empty blocks are
// skipped without touching their factor rows, fully eligible blocks run
// the original branch-free blocked kernel, mostly eligible blocks are
// scored whole and filtered at push time (the shared-q blocked kernel
// beats per-row gathers while most rows are needed anyway), and sparse
// blocks gather only their eligible rows through the per-row kernel —
// which accumulates in the exact pairwise order of a blocked row, so the
// scores (and therefore the ranking, ties included) are bitwise identical
// whichever path a block takes. Sparse gathers are what keep a
// 95%-excluded scattered mask from paying the whole catalog's bandwidth.
func sweepRangeMaskedInto(ix *model.ScoringIndex, q []float64, rangeLo, rangeHi int, block []float64, mask *vecmath.Bitset, st *vecmath.TopKStream) {
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
			ix.ItemScoresRangeInto(q, lo, hi, buf)
			for i, s := range buf {
				if full && s < th {
					continue
				}
				st.Push(lo+i, s)
				th, full = st.Threshold()
			}
		case eligible*4 >= (hi-lo)*3:
			buf := block[:hi-lo]
			ix.ItemScoresRangeInto(q, lo, hi, buf)
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
				s := ix.ScoreItem(item, q)
				if full && s < th {
					return
				}
				st.Push(item, s)
				th, full = st.Threshold()
			})
		}
	}
}

// sweepRange32MaskedInto is the compact-slab twin of sweepRangeMaskedInto.
func sweepRange32MaskedInto(ix *model.ScoringIndex, q32 []float32, rangeLo, rangeHi int, block []float32, mask *vecmath.Bitset, st *vecmath.TopKStream32) {
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
			ix.ItemScoresRange32Into(q32, lo, hi, buf)
			for i, s := range buf {
				if full && s < th {
					continue
				}
				st.Push(lo+i, s)
				th, full = st.Threshold()
			}
		case eligible*4 >= (hi-lo)*3:
			buf := block[:hi-lo]
			ix.ItemScoresRange32Into(q32, lo, hi, buf)
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
				s := ix.ScoreItem32(item, q32)
				if full && s < th {
					return
				}
				st.Push(item, s)
				th, full = st.Threshold()
			})
		}
	}
}

// ---- fan-out-aware sweep drivers ----------------------------------------

// runSweep streams the f64 score of every eligible item into the armed
// collector, fanning the shard claims across the pool when it pays. The
// done channel is polled at every shard boundary — serial and fanned
// alike — so a fired deadline abandons the sweep within one shard's work;
// the caller decides what to do with the (possibly partial) collector.
//
// The serial claim loop below recurs, with only its per-shard body
// differing, in runSweep32, runSweepI8 and the three executeMulti serial
// arms. The duplication is deliberate: a
// forEachShard(done, ix, func(lo, hi)) helper would capture each
// caller's stack block buffer in a closure, heap-escaping it and
// breaking the zero-alloc-per-query guarantee the serving benches gate.
// A change to the poll policy must be applied at all six sites.
func (p *Pool) runSweep(done <-chan struct{}, ix *model.ScoringIndex, q []float64, mask *vecmath.Bitset, maxWorkers int, st *vecmath.TopKStream) {
	fan := p.fanout(maxWorkers, ix.NumShards())
	if fan <= 1 {
		var block [blockItems]float64
		for s, n := 0, ix.NumShards(); s < n; s++ {
			if canceled(done) {
				return
			}
			lo, hi := ix.Shard(s)
			if mask == nil {
				sweepRangeInto(ix, q, lo, hi, block[:], st)
			} else {
				sweepRangeMaskedInto(ix, q, lo, hi, block[:], mask, st)
			}
		}
		return
	}
	t := p.getSweepTask()
	t.ix, t.q, t.k, t.out, t.mask, t.done = ix, q, st.K(), st, mask, done
	t.numShards = int32(ix.NumShards())
	t.next.Store(0)
	p.dispatch(t, fan)
	t.ix, t.q, t.out, t.mask, t.done = nil, nil, nil, nil, nil
	p.sweeps.Put(t)
}

// runSweep32 is runSweep over the compact f32 slab into a candidate heap
// of budget kp (per participant, merged under the f32 total order).
func (p *Pool) runSweep32(done <-chan struct{}, ix *model.ScoringIndex, q32 []float32, mask *vecmath.Bitset, maxWorkers, kp int, cand *vecmath.TopKStream32) {
	fan := p.fanout(maxWorkers, ix.NumShards())
	if fan <= 1 {
		var block [blockItems]float32
		for s, n := 0, ix.NumShards(); s < n; s++ {
			if canceled(done) {
				return
			}
			lo, hi := ix.Shard(s)
			if mask == nil {
				sweepRange32Into(ix, q32, lo, hi, block[:], cand)
			} else {
				sweepRange32MaskedInto(ix, q32, lo, hi, block[:], mask, cand)
			}
		}
		return
	}
	t := p.getSweepTask()
	t.ix, t.q32, t.k, t.out32, t.mask, t.done = ix, q32, kp, cand, mask, done
	t.numShards = int32(ix.NumShards())
	t.next.Store(0)
	p.dispatch(t, fan)
	t.ix, t.q32, t.out32, t.mask, t.done = nil, nil, nil, nil, nil
	p.sweeps.Put(t)
}

// ---- naive --------------------------------------------------------------

// executeNaive fills the armed collector with the exact f64 top-K of the
// eligible items, at either precision and any fan-out. eligible is the
// mask's surviving item count (NumItems when mask is nil); the f32
// escalation loop stops pruning once its candidate budget covers it.
// pruned routes each precision tier through its branch-and-bound variant
// (prune.go) — same ranking, sublinear work when the bounds bite.
func (p *Pool) executeNaive(done <-chan struct{}, c *model.Composed, q []float64, prec model.Precision, maxWorkers int, mask *vecmath.Bitset, eligible int, st *vecmath.TopKStream, pruned bool) {
	switch prec.Resolve() {
	case model.PrecisionF32:
		if pruned {
			p.prunedF32(done, c, q, maxWorkers, mask, eligible, st, f32OverFetch(st.K()))
			return
		}
		p.naiveF32(done, c, q, maxWorkers, mask, eligible, st, f32OverFetch(st.K()))
	case model.PrecisionInt8:
		if pruned {
			p.prunedI8(done, c, q, maxWorkers, mask, eligible, st, i8OverFetch(st.K()))
			return
		}
		p.naiveI8(done, c, q, maxWorkers, mask, eligible, st, i8OverFetch(st.K()))
	default:
		if pruned {
			p.prunedF64(done, c, q, maxWorkers, mask, eligible, st)
			return
		}
		p.runSweep(done, c.Index, q, mask, maxWorkers, st)
	}
}

// naiveF32 runs the two-stage pipeline from an explicit starting
// candidate budget (a failed shared-batch pass resumes at the next
// doubling instead of repeating work). Steady-state calls allocate
// nothing: query rounding and the candidate heap live in pooled scratch.
func (p *Pool) naiveF32(done <-chan struct{}, c *model.Composed, q []float64, maxWorkers int, mask *vecmath.Bitset, eligible int, st *vecmath.TopKStream, kp0 int) {
	ix := c.Index
	k := st.K()
	if k <= 0 {
		return
	}
	sc := getF32Scratch(q)
	defer f32Scratches.Put(sc)
	eps := ix.ItemErrBound32(q)
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
		p.runSweep32(done, ix, sc.q32, mask, maxWorkers, kp, &sc.cand)
		if canceled(done) {
			// a cancelled sweep left a truncated candidate set; rescoring it
			// could "certify" a wrong ranking, so bail before stage two
			return
		}
		st.Reset(k)
		if rescoreItems(done, ix, q, &sc.cand, st, eps) {
			return
		}
		f32Escalations.Add(1)
	}
}

// ---- multi-query batch --------------------------------------------------

// executeMulti scores a batch of queries in one pass over the shared item
// slab — each cache-sized shard is loaded once and dotted against every
// query — at either precision and any fan-out. Each collector ends up
// byte-identical to its serial single-query f64 ranking. Filtered plans
// do not batch: the shared sweep is one pass at one visitation pattern,
// so callers route filtered queries through executeNaive instead.
func (p *Pool) executeMulti(done <-chan struct{}, c *model.Composed, qs [][]float64, prec model.Precision, maxWorkers int, outs []*vecmath.TopKStream) {
	if len(qs) == 0 {
		return
	}
	ix := c.Index
	fan := p.fanout(maxWorkers, ix.NumShards())
	if prec.Resolve() == model.PrecisionInt8 {
		sc := getMultiI8Scratch(qs, outs)
		defer multiI8Scratches.Put(sc)
		if fan <= 1 {
			// queries whose budget covers the catalog skip the quantized
			// sweep; the finish stage runs them through the f64 path directly
			sc.active = activeI8Into(sc.active, sc.cands, ix.NumItems())
			for s, n := 0, ix.NumShards(); s < n; s++ {
				if canceled(done) {
					return
				}
				lo, hi := ix.Shard(s)
				sweepShardI8Multi(ix, sc.us, sc.qscales, sc.sumQs, sc.ptrs, sc.active, lo, hi)
			}
		} else {
			t := p.getMultiTask()
			t.ix, t.usI8, t.qscalesI8, t.sumQsI8, t.outs, t.done = ix, sc.us, sc.qscales, sc.sumQs, sc.ptrs, done
			t.numShards = int32(ix.NumShards())
			t.next.Store(0)
			p.dispatch(t, fan)
			t.ix, t.usI8, t.qscalesI8, t.sumQsI8, t.outs, t.done = nil, nil, nil, nil, nil, nil
			p.multis.Put(t)
		}
		if canceled(done) {
			// truncated candidate sets must not reach the rescore stage
			return
		}
		finishMultiI8(done, c, qs, outs, sc)
		return
	}
	if prec.Resolve() == model.PrecisionF32 {
		sc := getMultiF32Scratch(qs, outs)
		defer multiF32Scratches.Put(sc)
		if fan <= 1 {
			// a budget covering the catalog means that query goes straight to
			// the f64 sweep in the finish stage; don't pay the f32 sweep for it
			sc.active = activeF32Into(sc.active, sc.cands, ix.NumItems())
			for s, n := 0, ix.NumShards(); s < n; s++ {
				if canceled(done) {
					return
				}
				lo, hi := ix.Shard(s)
				sweepShard32Multi(ix, sc.qs32, sc.ptrs, sc.active, lo, hi)
			}
		} else {
			t := p.getMultiTask()
			t.ix, t.qs32, t.outs32, t.done = ix, sc.qs32, sc.ptrs, done
			t.numShards = int32(ix.NumShards())
			t.next.Store(0)
			p.dispatch(t, fan)
			t.ix, t.qs32, t.outs32, t.done = nil, nil, nil, nil
			p.multis.Put(t)
		}
		if canceled(done) {
			// truncated candidate sets must not reach the rescore stage
			return
		}
		finishMultiF32(done, c, qs, outs, sc.cands)
		return
	}
	if fan <= 1 {
		var block [blockItems]float64
		for s, n := 0, ix.NumShards(); s < n; s++ {
			if canceled(done) {
				return
			}
			lo, hi := ix.Shard(s)
			// query-major within one cache-resident shard: the shard's
			// factor rows are loaded once and scored against every query
			for i, q := range qs {
				sweepRangeInto(ix, q, lo, hi, block[:], outs[i])
			}
		}
		return
	}
	t := p.getMultiTask()
	t.ix, t.qs, t.outs, t.done = ix, qs, outs, done
	t.numShards = int32(ix.NumShards())
	t.next.Store(0)
	p.dispatch(t, fan)
	t.ix, t.qs, t.outs, t.done = nil, nil, nil, nil
	p.multis.Put(t)
}

// ---- cascade ------------------------------------------------------------

// executeCascade runs the §5.1 beam walk, marks the leaves under the kept
// lowest categories that pass the plan filter into a pooled eligibility
// mask, and ranks them through executeNaive — so the cascade inherits the
// naive engine's blocked and masked kernels, precision tiers and their
// certificates, pool fan-out and deadline polls instead of running its
// own. The walk itself always runs serial f64: category levels are tiny,
// and the walk decides WHICH leaves are reached, which must not depend on
// the precision knob. Stats count only eligible leaves.
func (p *Pool) executeCascade(done <-chan struct{}, c *model.Composed, q []float64, cfg CascadeConfig, prec model.Precision, maxWorkers int, cf *compiledFilter, st *vecmath.TopKStream) *Stats {
	cs := cascadeScratches.Get().(*cascadeScratch)
	defer cascadeScratches.Put(cs)
	stats := cs.beam(c, q, cfg, cf)
	p.executeNaive(done, c, q, prec, maxWorkers, &cs.mask, stats.LeavesScored, st, false)
	return stats
}

// ---- diversified --------------------------------------------------------

// divOverFetch is the first ranked-prefix length k' a diversified plan of
// k fetches: room for the quota scan to skip k+64 over-quota items before
// the prefix runs dry and has to be re-fetched.
func divOverFetch(k int) int { return 2*k + 64 }

// diversifyRefetches counts diversified prefixes that ran dry before the
// quota scan filled the page, each one a doubled re-fetch.
var diversifyRefetches atomic.Int64

// DiversifyRefetches returns the process-wide count of diversified
// re-fetch rounds. A climbing count means the quota keeps skipping more
// items than the over-fetched prefix holds — a few categories dominate
// the top of the ranking — and each such request pays extra sweeps.
func DiversifyRefetches() int64 { return diversifyRefetches.Load() }

// refetchHook, when non-nil, runs after each counted re-fetch round; the
// deadline tests cancel a plan between two rounds through it.
var refetchHook func()

// divScratch is the pooled state of a diversified plan: the ranked-prefix
// collector and the per-category quota counters.
type divScratch struct {
	prefix vecmath.TopKStream
	counts []int
}

var divScratches = sync.Pool{New: func() any { return new(divScratch) }}

// executeDiversified fills the armed final collector with the top-K under
// a per-category quota at catDepth, at either precision and any fan-out,
// over the eligible items only. The answer — the first K items a greedy
// scan of the exact (score desc, id asc) ranking takes while skipping
// items whose category already holds its quota — depends only on a
// prefix of that ranking, so the exact top-k' comes from executeNaive
// and one pass of quota counters picks the page. A prefix that runs dry
// before K picks doubles k' and repeats; at k' = eligible the prefix is
// the whole eligible set, so the loop ends and returns fewer than K
// exactly when the quota admits fewer. The quota and depth arrive
// validated (Plan.Validate).
func (p *Pool) executeDiversified(done <-chan struct{}, c *model.Composed, q []float64, maxPerCategory, catDepth int, prec model.Precision, maxWorkers int, mask *vecmath.Bitset, eligible int, final *vecmath.TopKStream) {
	k := final.K()
	if k <= 0 {
		return
	}
	ix := c.Index
	ds := divScratches.Get().(*divScratch)
	defer divScratches.Put(ds)
	width := len(c.Tree.Level(catDepth))
	ds.counts = slices.Grow(ds.counts[:0], width)[:width]
	for kp := divOverFetch(k); ; kp *= 2 {
		if kp > eligible {
			kp = eligible
		}
		ds.prefix.Reset(kp)
		p.executeNaive(done, c, q, prec, maxWorkers, mask, eligible, &ds.prefix, false)
		if canceled(done) {
			return
		}
		clear(ds.counts)
		final.Reset(k)
		for _, s := range ds.prefix.Ranked() {
			pos := ix.LevelPos(ix.ItemCategory(s.ID, catDepth))
			if ds.counts[pos] >= maxPerCategory {
				continue
			}
			ds.counts[pos]++
			final.Push(s.ID, s.Score)
			if final.Len() == k {
				return
			}
		}
		if kp >= eligible {
			return
		}
		diversifyRefetches.Add(1)
		if refetchHook != nil {
			refetchHook()
		}
	}
}

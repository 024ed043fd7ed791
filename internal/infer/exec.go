package infer

import (
	"math"

	"repro/internal/model"
	"repro/internal/vecmath"
)

// This file is the engine layer of the query-plan executor: one function
// per ranking shape (naive sweep, cascade, diversified, multi-query
// batch), each taking the full parameterization — precision, worker cap,
// eligibility mask — as arguments. Every public entry point funnels
// through the Plan executor into these engines, so a new serving
// capability is one parameter threaded through four functions instead of
// sixteen new variants. All engines are methods on *Pool with a nil
// receiver meaning "serial".

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
// differing, in runSweep32, both executeMulti serial arms and both
// executeDiversified serial arms. The duplication is deliberate: a
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

// executeCascade runs the §5.1 beam walk and ranks the surviving leaf
// frontier into the armed collector at either precision and any fan-out.
// The walk itself always runs serial f64 — category levels are tiny and
// the walk decides WHICH leaves are reached, which must not depend on the
// precision knob. A filter drops ineligible leaves from the frontier
// before any leaf is scored (filters apply before the heap), so Stats
// count only eligible leaves.
func (p *Pool) executeCascade(done <-chan struct{}, c *model.Composed, q []float64, cfg CascadeConfig, prec model.Precision, maxWorkers int, cf *compiledFilter, st *vecmath.TopKStream) (*Stats, error) {
	frontier, stats, err := walk(c, q, cfg)
	if err != nil {
		return nil, err
	}
	if cf != nil {
		kept := frontier[:0]
		for _, leaf := range frontier {
			if cf.mask.Get(c.Tree.NodeItem(int(leaf))) {
				kept = append(kept, leaf)
			}
		}
		frontier = kept
	}
	ix := c.Index
	k := st.K()
	chunks := (len(frontier) + leafChunk - 1) / leafChunk
	fan := p.fanout(maxWorkers, chunks)
	switch {
	case prec.Resolve() == model.PrecisionInt8 && k > 0:
		sc := getI8Scratch(q)
		eps := ix.NodeErrBoundI8(q, sc.sumAbsErr)
		for kp := i8OverFetch(k); ; kp *= 2 {
			if canceled(done) {
				break
			}
			if kp >= len(frontier) || math.IsInf(eps, 0) || math.IsNaN(eps) {
				// budget covers the frontier — or the bound cannot certify at
				// all (non-finite query, k past the exact int32 dot range):
				// exact f64 frontier scoring
				st.Reset(k)
				p.scoreFrontier(done, c, q, nil, frontier, fan, st, nil)
				break
			}
			sc.cand.Reset(kp)
			// the quantized frontier pass stays serial: a beam-surviving
			// frontier is far below catalog size, and the sweep polls per
			// leaf chunk like scoreFrontier's serial mode
			stopped := false
			for lo := 0; lo < len(frontier); lo += leafChunk {
				if canceled(done) {
					stopped = true
					break
				}
				hi := lo + leafChunk
				if hi > len(frontier) {
					hi = len(frontier)
				}
				for _, leaf := range frontier[lo:hi] {
					sc.cand.Push(c.Tree.NodeItem(int(leaf)), ix.ScoreNodeI8(int(leaf), sc.u, sc.qscale, sc.sumQ))
				}
			}
			if stopped {
				break
			}
			st.Reset(k)
			if rescoreEntries(done, ix, q, &sc.cand, st, eps) {
				break
			}
			i8Escalations.Add(1)
		}
		i8Scratches.Put(sc)
	case prec.Resolve() == model.PrecisionF32 && k > 0:
		sc := getF32Scratch(q)
		eps := ix.NodeErrBound32(q)
		for kp := f32OverFetch(k); ; kp *= 2 {
			if canceled(done) {
				break
			}
			if kp >= len(frontier) {
				// budget covers the frontier: exact f64 frontier scoring
				st.Reset(k)
				p.scoreFrontier(done, c, q, nil, frontier, fan, st, nil)
				break
			}
			sc.cand.Reset(kp)
			p.scoreFrontier(done, c, nil, sc.q32, frontier, fan, nil, &sc.cand)
			if canceled(done) {
				break
			}
			st.Reset(k)
			if rescoreItems(done, ix, q, &sc.cand, st, eps) {
				break
			}
			f32Escalations.Add(1)
		}
		f32Scratches.Put(sc)
	case fan > 1:
		p.scoreFrontier(done, c, q, nil, frontier, fan, st, nil)
	default:
		for lo := 0; lo < len(frontier); lo += leafChunk {
			if canceled(done) {
				break
			}
			hi := lo + leafChunk
			if hi > len(frontier) {
				hi = len(frontier)
			}
			for _, leaf := range frontier[lo:hi] {
				st.Push(c.Tree.NodeItem(int(leaf)), ix.ScoreNode(int(leaf), q))
			}
		}
	}
	stats.NodesScored += len(frontier)
	stats.LeavesScored = len(frontier)
	return stats, nil
}

// scoreFrontier scores a leaf frontier into exactly one of st (f64 mode,
// q set) or cand (f32 mode, q32 set), chunked across the pool when fan
// allows.
func (p *Pool) scoreFrontier(done <-chan struct{}, c *model.Composed, q []float64, q32 []float32, frontier []int32, fan int, st *vecmath.TopKStream, cand *vecmath.TopKStream32) {
	ix := c.Index
	if fan <= 1 {
		// the frontier can approach catalog size at high keep fractions,
		// so the serial pass polls per leaf chunk like the pooled one
		for lo := 0; lo < len(frontier); lo += leafChunk {
			if canceled(done) {
				return
			}
			hi := lo + leafChunk
			if hi > len(frontier) {
				hi = len(frontier)
			}
			if cand != nil {
				for _, leaf := range frontier[lo:hi] {
					cand.Push(c.Tree.NodeItem(int(leaf)), ix.ScoreNode32(int(leaf), q32))
				}
			} else {
				for _, leaf := range frontier[lo:hi] {
					st.Push(c.Tree.NodeItem(int(leaf)), ix.ScoreNode(int(leaf), q))
				}
			}
		}
		return
	}
	t := p.getLeafTask()
	if cand != nil {
		t.tree, t.ix, t.q32, t.k, t.leaves, t.out32 = c.Tree, ix, q32, cand.K(), frontier, cand
	} else {
		t.tree, t.ix, t.q, t.k, t.leaves, t.out = c.Tree, ix, q, st.K(), frontier, st
	}
	t.done = done
	t.next.Store(0)
	p.dispatch(t, fan)
	t.tree, t.ix, t.q, t.q32, t.leaves, t.out, t.out32, t.done = nil, nil, nil, nil, nil, nil, nil, nil
	p.leaves.Put(t)
}

// ---- diversified --------------------------------------------------------

// executeDiversified fills the armed final collector with the top-K under
// a per-category quota at catDepth, at either precision and any fan-out,
// over the eligible items only. The per-category bounded heaps make the
// greedy score-ordered selection exact without sorting the catalog; the
// f32 mode additionally needs the per-category separation certificate of
// rescoreDiversified before its pruning is trusted. The quota and depth
// arrive validated (Plan.Validate).
func (p *Pool) executeDiversified(done <-chan struct{}, c *model.Composed, q []float64, maxPerCategory, catDepth int, prec model.Precision, maxWorkers int, cf *compiledFilter, final *vecmath.TopKStream) {
	ix := c.Index
	k := final.K()
	perCat := maxPerCategory
	if perCat > k {
		perCat = k
	}
	var mask *vecmath.Bitset
	eligible := ix.NumItems()
	if cf != nil {
		mask, eligible = &cf.mask, cf.eligible
	}
	width := len(c.Tree.Level(catDepth))
	fan := p.fanout(maxWorkers, ix.NumShards())

	// The diversified sweep keeps per-category quota heaps, whose
	// escalation unit is the whole per-category budget; at int8 error
	// magnitude nearly every tight category would escalate, so the int8
	// knob rides the f32 tier here. Still byte-identical — every precision
	// of every strategy is — just without the quantized first pass.
	if prec.Resolve() == model.PrecisionInt8 {
		prec = model.PrecisionF32
	}

	if prec.Resolve() != model.PrecisionF32 {
		// re-arm the collector: the f32 mode's escalation fallback arrives
		// here with the failed attempt's entries still in it
		final.Reset(k)
		if fan <= 1 {
			// one streaming pass, a lazily armed quota heap per touched
			// category, final selection from the retained union
			cats := make([]vecmath.TopKStream, width)
			armed := make([]bool, width)
			for s, n := 0, ix.NumShards(); s < n; s++ {
				if canceled(done) {
					return
				}
				shardLo, shardHi := ix.Shard(s)
				diversifiedSweepRange(ix, q, mask, shardLo, shardHi, perCat, catDepth, cats, armed)
			}
			for pos := range cats {
				if armed[pos] {
					final.Merge(&cats[pos])
				}
			}
			return
		}
		t := p.getDivTask()
		t.armDiv(width, perCat)
		t.ix, t.q, t.catDepth, t.mask, t.done = ix, q, catDepth, mask, done
		t.numShards = int32(ix.NumShards())
		t.next.Store(0)
		p.dispatch(t, fan)
		for pos := range t.gcats {
			if t.garmed[pos] {
				final.Merge(&t.gcats[pos])
			}
		}
		t.ix, t.q, t.mask, t.done = nil, nil, nil, nil
		p.divs.Put(t)
		return
	}

	sc := getF32Scratch(q)
	defer f32Scratches.Put(sc)
	eps := ix.ItemErrBound32(q)
	cats := make([]vecmath.TopKStream, width)
	var cats32 []vecmath.TopKStream32
	var armed []bool
	if fan <= 1 {
		cats32 = make([]vecmath.TopKStream32, width)
		armed = make([]bool, width)
	}
	for perp := f32OverFetch(perCat); ; perp *= 2 {
		if canceled(done) {
			return
		}
		if perp >= eligible {
			// every category retains all its eligible items: no pruning left
			p.executeDiversified(done, c, q, maxPerCategory, catDepth, model.PrecisionF64, maxWorkers, cf, final)
			return
		}
		var ok bool
		if fan <= 1 {
			for i := range armed {
				armed[i] = false
			}
			for s, n := 0, ix.NumShards(); s < n; s++ {
				if canceled(done) {
					return
				}
				shardLo, shardHi := ix.Shard(s)
				diversifiedSweepRange32(ix, sc.q32, mask, shardLo, shardHi, perp, catDepth, cats32, armed)
			}
			ok = rescoreDiversified(done, ix, q, cats32, cats, armed, perCat, k, eps, final)
		} else {
			t := p.getDivTask()
			t.armDiv32(width, perp)
			t.ix, t.q32, t.catDepth, t.mask, t.done = ix, sc.q32, catDepth, mask, done
			t.numShards = int32(ix.NumShards())
			t.next.Store(0)
			p.dispatch(t, fan)
			if canceled(done) {
				// the dispatched sweep stopped early; its truncated category
				// heaps must not reach the certificate
				t.ix, t.q32, t.mask, t.done = nil, nil, nil, nil
				p.divs.Put(t)
				return
			}
			ok = rescoreDiversified(done, ix, q, t.gcats32, cats, t.garmed, perCat, k, eps, final)
			t.ix, t.q32, t.mask, t.done = nil, nil, nil, nil
			p.divs.Put(t)
		}
		if ok {
			return
		}
		f32Escalations.Add(1)
	}
}

// diversifiedSweepRange streams the eligible items of [rangeLo, rangeHi)
// into their categories' lazily armed quota heaps — the shared loop body
// of the serial whole-catalog diversified sweep and each shard claim of
// the pooled one, so filter visitation changes land in exactly one place
// per precision.
func diversifiedSweepRange(ix *model.ScoringIndex, q []float64, mask *vecmath.Bitset, rangeLo, rangeHi, perCat, catDepth int, cats []vecmath.TopKStream, armed []bool) {
	var block [blockItems]float64
	for lo := rangeLo; lo < rangeHi; lo += blockItems {
		hi := lo + blockItems
		if hi > rangeHi {
			hi = rangeHi
		}
		if mask != nil && !mask.AnyInRange(lo, hi) {
			continue
		}
		buf := block[:hi-lo]
		ix.ItemScoresRangeInto(q, lo, hi, buf)
		for i, s := range buf {
			item := lo + i
			if mask != nil && !mask.Get(item) {
				continue
			}
			pos := ix.LevelPos(ix.ItemCategory(item, catDepth))
			if !armed[pos] {
				cats[pos].Reset(perCat)
				armed[pos] = true
			}
			cats[pos].Push(item, s)
		}
	}
}

// diversifiedSweepRange32 is diversifiedSweepRange over the compact f32
// slab with per-category candidate heaps of the over-fetched budget.
func diversifiedSweepRange32(ix *model.ScoringIndex, q32 []float32, mask *vecmath.Bitset, rangeLo, rangeHi, perCat, catDepth int, cats []vecmath.TopKStream32, armed []bool) {
	var block [blockItems]float32
	for lo := rangeLo; lo < rangeHi; lo += blockItems {
		hi := lo + blockItems
		if hi > rangeHi {
			hi = rangeHi
		}
		if mask != nil && !mask.AnyInRange(lo, hi) {
			continue
		}
		buf := block[:hi-lo]
		ix.ItemScoresRange32Into(q32, lo, hi, buf)
		for i, s := range buf {
			item := lo + i
			if mask != nil && !mask.Get(item) {
				continue
			}
			pos := ix.LevelPos(ix.ItemCategory(item, catDepth))
			if !armed[pos] {
				cats[pos].Reset(perCat)
				armed[pos] = true
			}
			cats[pos].Push(item, s)
		}
	}
}

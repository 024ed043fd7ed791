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
// — tier, worker cap, eligibility mask — as arguments, plus the cascade
// and diversified strategies as thin layers over the naive engine (a
// beam-built eligibility mask; a quota scan over an exact ranked prefix).
// Every public entry point funnels through the Plan executor into these
// functions, so a new serving capability is one parameter threaded
// through two engines. All engines are methods on *Pool with a nil
// receiver meaning "serial".

// ---- naive --------------------------------------------------------------

// executeNaive fills the armed collector with the exact f64 top-K of the
// eligible items, at any precision and fan-out. eligible is the mask's
// surviving item count (NumItems when mask is nil). pruned runs stage one
// as the branch-and-bound descent (prune.go) — same ranking, sublinear
// work when the bounds bite.
func (p *Pool) executeNaive(done <-chan struct{}, c *model.Composed, q []float64, prec model.Precision, maxWorkers int, mask *vecmath.Bitset, eligible int, st *vecmath.TopKStream, pruned bool) {
	t := tierOf(prec)
	p.sweepTier(done, c, q, t, maxWorkers, mask, eligible, st, t.overFetch(st.K()), pruned)
}

// sweepTier is the one escalation loop: it runs tier t's stage one from
// candidate budget kp0 (a failed shared-batch pass resumes at the next
// doubling instead of repeating work), rescores, and doubles the budget
// until the certificate separates (tier.go). The f64 tier — and any tier
// whose ε is non-finite for this query, or whose budget covers the
// eligible items — sweeps straight into st. A pruned plan whose prune ε
// is non-finite, or whose collector covers the eligible set (nothing
// could ever prune), runs the dense sweep of its tier instead, counted in
// PruneStats.Fallbacks. Steady-state calls allocate nothing.
func (p *Pool) sweepTier(done <-chan struct{}, c *model.Composed, q []float64, t tier, maxWorkers int, mask *vecmath.Bitset, eligible int, st *vecmath.TopKStream, kp0 int, pruned bool) {
	ix := c.Index
	k := st.K()
	if k <= 0 || ix.NumItems() == 0 {
		return
	}
	sc := tierScratches.Get().(*tierScratch)
	defer sc.release()
	tq := &sc.tq
	tq.prepare(ix, t, q)
	var epsPrune float64
	if pruned {
		epsPrune = ix.ItemPruneBound(q)
		if k >= eligible || !finite(epsPrune) {
			pruneFallbacks.Add(1)
			pruned = false
		}
	}
	for kp := kp0; ; kp *= 2 {
		if canceled(done) {
			return
		}
		if !staged(tq, kp, eligible) {
			tq.prepare(ix, tierF64, q)
			st.Reset(k)
			p.stageOne(done, c, tq, maxWorkers, mask, st, pruned, epsPrune)
			return
		}
		sc.cand.Reset(kp)
		// the prune allowance adds the tier's scoring error, so a pruned
		// item's tier score also sits strictly below the candidate threshold
		pruned = p.stageOne(done, c, tq, maxWorkers, mask, &sc.cand, pruned, epsPrune+tq.eps)
		if canceled(done) {
			// a cancelled sweep left a truncated candidate set; rescoring it
			// could "certify" a wrong ranking, so bail before stage two
			return
		}
		st.Reset(k)
		if rescore(done, ix, q, &sc.cand, st, tq.eps) {
			return
		}
		t.escalations().Add(1)
	}
}

// stageOne streams tq's tier score of every eligible item into the armed
// collector: the dense sweep, or — pruned — the branch-and-bound descent
// with total prune allowance eps, which hands a walk that bails at its
// loose-bounds checkpoint back to the dense sweep. It reports whether the
// query should keep pruning: a bailed walk means its bounds are too loose
// for this query, so the later escalation passes run dense.
func (p *Pool) stageOne(done <-chan struct{}, c *model.Composed, tq *tierQuery, maxWorkers int, mask *vecmath.Bitset, out *vecmath.TopKStream, pruned bool, eps float64) bool {
	if pruned && p.prunedSweep(done, c, tq, maxWorkers, mask, out, eps) != descendBailed {
		return true
	}
	p.runSweep(done, c.Index, tq, mask, maxWorkers, out)
	return false
}

// runSweep streams tq's tier score of every eligible item into the armed
// collector, fanning the shard claims across the pool when it pays. The
// done channel is polled at every shard boundary — serial and fanned
// alike — so a fired deadline abandons the sweep within one shard's work;
// the caller decides what to do with the (possibly partial) collector.
//
// The serial claim loop below recurs, with only its per-shard body
// differing, in executeMulti and sweepRanges. The duplication is
// deliberate: a forEachShard(done, ix, func(lo, hi)) helper would capture
// each caller's stack block buffer in a closure, heap-escaping it and
// breaking the zero-alloc-per-query guarantee the serving benches gate.
// A change to the poll policy must be applied at all three sites and in
// the two task bodies of parallel.go.
func (p *Pool) runSweep(done <-chan struct{}, ix *model.ScoringIndex, tq *tierQuery, mask *vecmath.Bitset, maxWorkers int, st *vecmath.TopKStream) {
	fan := p.fanout(maxWorkers, ix.NumShards())
	if fan <= 1 {
		var b blockBuf
		for s, n := 0, ix.NumShards(); s < n; s++ {
			if canceled(done) {
				return
			}
			lo, hi := ix.Shard(s)
			sweepRange(ix, tq, lo, hi, &b, mask, st)
		}
		return
	}
	p.fanSweep(done, ix, tq, mask, nil, fan, st)
}

// ---- multi-query batch --------------------------------------------------

// multiScratch is the reusable state of a batched sweep: the prepared
// queries, the reduced tiers' per-query candidate heaps, the heaps the
// shared sweep pushes into (the candidates, or the final collectors at
// f64), and the indices of the queries the shared sweep runs for. Pooled
// so steady-state batched serving allocates nothing.
type multiScratch struct {
	tqs    []tierQuery
	cands  []vecmath.TopKStream
	ptrs   []*vecmath.TopKStream
	active []int
}

var multiScratches = sync.Pool{New: func() any { return new(multiScratch) }}

// arm prepares every query at tier t and points the shared sweep at its
// heap. A reduced-tier query the stage cannot help — its budget covers
// the catalog, or its bound cannot certify — is left out of active; the
// finish stage runs it through the exact tier directly.
func (sc *multiScratch) arm(ix *model.ScoringIndex, t tier, qs [][]float64, outs []*vecmath.TopKStream) {
	b := len(qs)
	if cap(sc.tqs) < b {
		sc.tqs = make([]tierQuery, b)
		sc.cands = make([]vecmath.TopKStream, b)
		sc.ptrs = make([]*vecmath.TopKStream, b)
	}
	sc.tqs, sc.cands, sc.ptrs, sc.active = sc.tqs[:b], sc.cands[:b], sc.ptrs[:b], sc.active[:0]
	for i, q := range qs {
		tq := &sc.tqs[i]
		tq.prepare(ix, t, q)
		sc.ptrs[i] = outs[i]
		if t != tierF64 {
			sc.cands[i].Reset(t.overFetch(outs[i].K()))
			sc.ptrs[i] = &sc.cands[i]
			if !staged(tq, sc.cands[i].K(), ix.NumItems()) {
				continue
			}
		}
		sc.active = append(sc.active, i)
	}
}

func (sc *multiScratch) release() {
	clear(sc.ptrs)
	for i := range sc.tqs {
		sc.tqs[i].q = nil
	}
	multiScratches.Put(sc)
}

// executeMulti scores a batch of queries in one pass over the shared item
// slab — each cache-sized shard is loaded once and dotted against every
// query — at any precision and fan-out. Each collector ends up
// byte-identical to its serial single-query f64 ranking. Filtered plans
// do not batch: the shared sweep is one pass at one visitation pattern,
// so callers route filtered queries through executeNaive instead.
func (p *Pool) executeMulti(done <-chan struct{}, c *model.Composed, qs [][]float64, prec model.Precision, maxWorkers int, outs []*vecmath.TopKStream) {
	if len(qs) == 0 {
		return
	}
	ix := c.Index
	t := tierOf(prec)
	sc := multiScratches.Get().(*multiScratch)
	defer sc.release()
	sc.arm(ix, t, qs, outs)
	fan := p.fanout(maxWorkers, ix.NumShards())
	if fan <= 1 {
		for s, n := 0, ix.NumShards(); s < n; s++ {
			if canceled(done) {
				return
			}
			lo, hi := ix.Shard(s)
			sweepGroups(ix, sc.tqs, sc.active, lo, hi, sc.ptrs)
		}
	} else {
		mt := p.getMultiTask()
		mt.ix, mt.tqs, mt.active, mt.outs, mt.done = ix, sc.tqs, sc.active, sc.ptrs, done
		mt.numShards = int32(ix.NumShards())
		mt.next.Store(0)
		p.dispatch(mt, fan)
		mt.ix, mt.tqs, mt.active, mt.outs, mt.done = nil, nil, nil, nil, nil
		p.multis.Put(mt)
	}
	if t == tierF64 || canceled(done) {
		// f64 swept straight into the collectors; truncated candidate sets
		// must not reach the rescore stage
		return
	}
	finishMulti(done, c, sc, outs)
}

// finishMulti runs the per-query rescore stage of a batched reduced-tier
// sweep. A query whose margin fails to separate escalates alone through
// sweepTier at the next budget doubling — the shared sweep is not
// repeated for the batch — and one the shared sweep skipped goes there at
// its own budget, which sends it to the exact tier. The done channel
// gates the per-query re-sweeps; a fired deadline abandons the remaining
// queries (the caller discards the batch).
func finishMulti(done <-chan struct{}, c *model.Composed, sc *multiScratch, outs []*vecmath.TopKStream) {
	n := c.Index.NumItems()
	for i, st := range outs {
		if canceled(done) {
			return
		}
		k := st.K()
		if k <= 0 {
			continue
		}
		tq := &sc.tqs[i]
		kp := sc.cands[i].K()
		st.Reset(k)
		if staged(tq, kp, n) {
			if rescore(done, c.Index, tq.q, &sc.cands[i], st, tq.eps) {
				continue
			}
			tq.tier.escalations().Add(1)
			kp *= 2
		}
		(*Pool)(nil).sweepTier(done, c, tq.q, tq.tier, 1, nil, n, st, kp, false)
	}
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

package infer

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/vecmath"
)

// This file is the engine layer of the query-plan executor: the naive
// sweep, taking the full parameterization — tier, worker cap,
// eligibility mask — as arguments, plus the cascade and diversified
// strategies as thin layers over it (a beam-built eligibility mask; a
// quota scan over an exact ranked prefix). Every public entry point
// funnels through the Plan executor into these functions, so a new
// serving capability is one parameter threaded through one engine. All
// engines are methods on *Pool with a nil receiver meaning "serial".

// ---- naive --------------------------------------------------------------

// executeNaive fills the armed collector with the exact f64 top-K of the
// eligible items: the category sweep (sweep.go) first, and the dense
// sweep of the plan's tier when the sweep hands the query back. A plan
// whose collector covers the eligible set has nothing to skip and runs
// dense directly. Steady-state calls allocate nothing.
func (p *Pool) executeNaive(done <-chan struct{}, c *model.Composed, q []float64, prec model.Precision, maxWorkers int, cf *compiledFilter, eligible int, st *vecmath.TopKStream) {
	if k := st.K(); k <= 0 || k >= eligible || !categorySweep(done, c.Index, q, cf, st) {
		p.executeDense(done, c, q, prec, maxWorkers, maskOf(cf), eligible, st)
	}
}

// executeDense fills the armed collector with the exact f64 top-K of the
// eligible items (mask's surviving count is eligible; NumItems when mask
// is nil) by sweeping every one, at any precision and fan-out.
//
// It is the one escalation loop: the precision's tier runs stage one
// into a candidate heap of its over-fetch budget, stage two rescores the
// candidates exactly, and the budget doubles until the certificate
// separates (tier.go). The f64 tier — and any tier whose ε is non-finite
// for this query, or whose budget covers the eligible items — sweeps
// straight into st.
func (p *Pool) executeDense(done <-chan struct{}, c *model.Composed, q []float64, prec model.Precision, maxWorkers int, mask *vecmath.Bitset, eligible int, st *vecmath.TopKStream) {
	ix := c.Index
	k := st.K()
	if k <= 0 || ix.NumItems() == 0 {
		return
	}
	sc := tierScratches.Get().(*tierScratch)
	defer sc.release()
	tq := &sc.tq
	tq.prepare(ix, tierOf(prec), q)
	for kp := overFetch(k); ; kp *= 2 {
		if canceled(done) {
			return
		}
		if !staged(tq, kp, eligible) {
			tq.prepare(ix, tierF64, q)
			st.Reset(k)
			p.runSweep(done, ix, tq, mask, maxWorkers, st)
			return
		}
		sc.cand.Reset(kp)
		p.runSweep(done, ix, tq, mask, maxWorkers, &sc.cand)
		if canceled(done) {
			// a cancelled sweep left a truncated candidate set; rescoring it
			// could "certify" a wrong ranking, so bail before stage two
			return
		}
		st.Reset(k)
		if rescore(done, ix, q, &sc.cand, st, tq.eps) {
			return
		}
		i8Escalations.Add(1)
	}
}

// runSweep streams tq's tier score of every eligible item into the armed
// collector, fanning the shard claims across the pool when it pays. The
// done channel is polled at every shard boundary — serial and fanned
// alike — so a fired deadline abandons the sweep within one shard's work;
// the caller decides what to do with the (possibly partial) collector.
//
// A change to the poll policy must be applied here and in sweepTask.run
// (parallel.go).
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
	p.fanSweep(done, ix, tq, mask, fan, st)
}

// ---- cascade ------------------------------------------------------------

// executeCascade runs the §5.1 beam walk, marks the leaves under the kept
// lowest categories that pass the plan filter into a pooled eligibility
// mask, and ranks them through executeDense — so the cascade inherits the
// dense engine's blocked and masked kernels, precision tiers and their
// certificates, pool fan-out and deadline polls instead of running its
// own. The walk itself always runs serial f64: category levels are tiny,
// and the walk decides WHICH leaves are reached, which must not depend on
// the precision knob. Stats count only eligible leaves.
func (p *Pool) executeCascade(done <-chan struct{}, c *model.Composed, q []float64, cfg CascadeConfig, prec model.Precision, maxWorkers int, cf *compiledFilter, st *vecmath.TopKStream) *Stats {
	cs := cascadeScratches.Get().(*cascadeScratch)
	defer cascadeScratches.Put(cs)
	stats := cs.beam(c, q, cfg, cf)
	p.executeDense(done, c, q, prec, maxWorkers, &cs.mask, stats.LeavesScored, st)
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
func (p *Pool) executeDiversified(done <-chan struct{}, c *model.Composed, q []float64, maxPerCategory, catDepth int, prec model.Precision, maxWorkers int, cf *compiledFilter, eligible int, final *vecmath.TopKStream) {
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
		p.executeNaive(done, c, q, prec, maxWorkers, cf, eligible, &ds.prefix)
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

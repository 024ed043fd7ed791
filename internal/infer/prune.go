package infer

import (
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

// Taxonomy-guided branch-and-bound retrieval: instead of sweeping every
// eligible item, descend the category tree best-first and skip whole
// subtrees that provably cannot place an item in the result.
//
// The machinery rests on the per-subtree score envelopes ScoringIndex
// builds at Compose() time: SubtreeBound(node, q) dominates the exact f64
// score of every item under node, up to the certified rounding allowance
// ItemPruneBound(q). The descent keeps a max-priority queue of subtrees
// ordered by bound. Each pop either (a) prunes — the collector is full and
// the subtree's bound plus the serving tier's total ε is strictly below
// the current k-th heap score, so no item inside could have been retained;
// (b) expands — the subtree is large and the bound-evaluation budget has
// room; or (c) sweeps its items. Subtrees whose raw item ids happen to be
// contiguous sweep through the exact same blocked kernels the dense sweep
// uses; interleaved subtrees gather-score their contiguous span of the
// index's depth-first item order (ScoringIndex.DFSItems) one item at a
// time — the per-item scorers are documented bitwise-identical to the
// blocked kernels, so which path visits an item never changes its score.
//
// Byte-identity with the dense f64 path follows from two facts. First, a
// bounded TopKStream retains exactly the top-k of its pushed items under
// the (score desc, lower ID) total order, independent of push order — the
// same invariant the parallel shard merge relies on. Second, a pruned
// subtree's items all score strictly below the heap threshold at prune
// time, which never decreases afterwards, so pushing them could not have
// changed the retained set. Every item is visited exactly once: the queue
// starts at the root (whose DFS span is the whole catalog) and a node is
// only ever replaced by all of its children, whose DFS spans partition its
// own by construction. The reduced-precision tiers run the identical
// descent over their own slabs as stage one, into the candidate heap,
// with the tier's scoring error ε added to the prune ε so a pruned item's
// tier score also sits strictly below the candidate threshold; the
// unchanged rescore certificate (tier.go's separated) then decides
// exactness and escalates on failure, so certify-or-escalate discipline
// is preserved end to end.
//
// When pruning cannot pay, the descent gets out of the way instead of
// limping through the catalog in gather order. Plans whose collector
// covers the eligible set, or whose ε is non-finite, never start the
// walk. A walk that does start re-examines itself once, at the moment
// the collector first fills: if nothing has been pruned and the queue's
// already-prunable mass (entries whose bound sits below the fresh
// threshold) covers less than a quarter of the items still queued, the
// bounds are too loose for this query — the descent bails, the caller
// discards the partial collector and runs the plain dense sweep. The
// checkpoint fires before any range can be deferred, so a bail costs
// only the items swept up to the first heap fill plus the bound
// evaluations spent — the price of the ≤1.05x dense-fallback guarantee —
// while a genuinely skewed world passes the checkpoint untouched.

// pruneSubtrees counts subtrees discarded by the branch-and-bound descent
// across all pruned plans; pruneItems counts the catalog items inside
// them (the work the dense sweep would have done), pruneBoundEvals the
// SubtreeBound evaluations spent, and pruneFallbacks the pruned plans
// that ran the dense sweep instead (collector covered the eligible set,
// a non-certifiable ε, or a loose-bounds bail at the first-fill
// checkpoint).
var (
	pruneSubtrees   atomic.Int64
	pruneItems      atomic.Int64
	pruneBoundEvals atomic.Int64
	pruneFallbacks  atomic.Int64
)

// PruneStats is a snapshot of the process-wide branch-and-bound counters,
// the observability mirror of F32Escalations/I8Escalations for the pruned
// path. ItemsPruned versus the catalog size is the fraction of dense
// sweep work the taxonomy bounds saved; a high Fallbacks count means
// requests ask for pruning that the plan shape (huge K, tiny filters) or
// the score distribution cannot deliver.
type PruneStats struct {
	// SubtreesPruned counts subtrees discarded with a bound certificate.
	SubtreesPruned int64
	// ItemsPruned counts the catalog items inside pruned subtrees.
	ItemsPruned int64
	// BoundEvals counts SubtreeBound evaluations (two dot products each).
	BoundEvals int64
	// Fallbacks counts pruned plans that ran the dense sweep instead —
	// the collector covered the eligible set, the ε was non-certifiable,
	// or the first-fill checkpoint found the bounds too loose to pay.
	Fallbacks int64
}

// PruneCounters returns the process-wide branch-and-bound counters.
func PruneCounters() PruneStats {
	return PruneStats{
		SubtreesPruned: pruneSubtrees.Load(),
		ItemsPruned:    pruneItems.Load(),
		BoundEvals:     pruneBoundEvals.Load(),
		Fallbacks:      pruneFallbacks.Load(),
	}
}

const (
	// prunedLeafCutoff is the subtree size at or below which the descent
	// sweeps instead of expanding: one block's worth of items costs about
	// as much to score as a handful of child bound evaluations, so finer
	// descent cannot pay.
	prunedLeafCutoff = blockItems

	// prunedSeedItems is how many items the descent sweeps inline before
	// deferring surviving ranges to the pool: the seed raises the heap
	// threshold serially (pruning decisions compound best-first), then the
	// leftover ranges — the bulk of an unprunable catalog — fan out.
	prunedSeedItems = 2048
)

// prunedBudget caps SubtreeBound evaluations per descent. Each evaluation
// costs roughly two dot products, so a budget of numItems/64 bounds the
// descent overhead near 3% of a dense sweep. Until the loose-bounds
// checkpoint has passed, expansion runs under the far smaller
// probeBudget — what a bailing descent wastes is probe-sized, not
// budget-sized, which is how the ≤1.05x dense-fallback guarantee holds.
func prunedBudget(numItems int) int { return numItems/64 + 64 }

// probeBudget is the expansion allowance before the loose-bounds
// checkpoint: enough to differentiate the queue a couple of levels down
// (so prunableMass sees real per-subtree bounds, not just the root's),
// small enough that a bail wastes well under 1% of a dense sweep.
func probeBudget(numItems int) int64 { return int64(prunedBudget(numItems))/8 + 32 }

// boundedSubtree is one priority-queue entry: a contiguous subtree and
// its query-specific score upper bound.
type boundedSubtree struct {
	bound float64
	node  int32
}

// itemRange is one unit of subtree sweeping: a contiguous raw item range
// [lo, hi) when gather is false, a span of the depth-first item order (to
// gather-score item by item) when gather is true.
type itemRange struct {
	lo, hi int32
	gather bool
}

// nodeRange is the unit covering node's subtree, whose depth-first span
// is [dlo, dhi): its raw item range when that is contiguous — the blocked
// kernels the dense sweep uses — and a gather over the span otherwise.
// The per-item scorers are bitwise identical to the blocked kernels, so
// which path visits an item never changes its score.
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

// pruneState is the reusable per-descent state: the subtree priority
// queue, the deferred range list, the prepared query (whose exact q the
// bounds are evaluated against) and the collector it sweeps into, locally
// batched counters, and the block buffer the range sweeps score into.
// Pooled so steady-state pruned serving allocates nothing.
type pruneState struct {
	pq     []boundedSubtree
	ranges []itemRange

	ix   *model.ScoringIndex
	mask *vecmath.Bitset
	tq   tierQuery
	st   *vecmath.TopKStream

	statSubtrees, statItems, statBoundEvals int64

	buf blockBuf
}

var pruneStates = sync.Pool{New: func() any { return new(pruneState) }}

// flushStats adds the locally batched counters to the process-wide
// atomics once per descent, keeping atomic traffic off the hot loop.
func (ps *pruneState) flushStats() {
	if ps.statSubtrees != 0 {
		pruneSubtrees.Add(ps.statSubtrees)
		ps.statSubtrees = 0
	}
	if ps.statItems != 0 {
		pruneItems.Add(ps.statItems)
		ps.statItems = 0
	}
	if ps.statBoundEvals != 0 {
		pruneBoundEvals.Add(ps.statBoundEvals)
		ps.statBoundEvals = 0
	}
}

// sweep scores every item of r into the collector.
func (ps *pruneState) sweep(r itemRange) {
	r.sweep(ps.ix, &ps.tq, &ps.buf, ps.mask, ps.st)
}

// sweepProbe gather-scores the depth-first span [dlo, dhi) one item at a
// time, stopping as soon as the collector fills, and returns the index it
// stopped at (dhi if the collector never filled). Only the pre-checkpoint
// phase of a descent uses it, so the per-item fullness polling is paid on
// at most the first k pushes of the walk.
func (ps *pruneState) sweepProbe(dlo, dhi int) int {
	dfs := ps.ix.DFSItems()
	for p := dlo; p < dhi; p++ {
		ps.tq.gather(ps.ix, dfs[p:p+1], ps.mask, ps.st)
		if _, full := ps.st.Threshold(); full {
			return p + 1
		}
	}
	return dhi
}

// pqPush inserts into the bound-ordered max-heap. NaN bounds (possible
// only with non-finite factor slabs) sift arbitrarily; correctness never
// depends on heap order — every popped node is re-checked against the
// prune condition individually.
func (ps *pruneState) pqPush(e boundedSubtree) {
	pq := append(ps.pq, e)
	i := len(pq) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(pq[parent].bound < pq[i].bound) {
			break
		}
		pq[parent], pq[i] = pq[i], pq[parent]
		i = parent
	}
	ps.pq = pq
}

// pqPop removes and returns the max-bound entry.
func (ps *pruneState) pqPop() boundedSubtree {
	pq := ps.pq
	top := pq[0]
	n := len(pq) - 1
	pq[0] = pq[n]
	pq = pq[:n]
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && pq[l].bound > pq[m].bound {
			m = l
		}
		if r < n && pq[r].bound > pq[m].bound {
			m = r
		}
		if m == i {
			break
		}
		pq[i], pq[m] = pq[m], pq[i]
		i = m
	}
	ps.pq = pq
	return top
}

// descend outcomes: the walk ran to completion (the collector holds the
// exact retained set over every visited item), was canceled mid-walk, or
// bailed at the loose-bounds checkpoint — in the latter two cases the
// collector holds partial state the caller must discard.
const (
	descendDone = iota
	descendCanceled
	descendBailed
)

// prunableMass reports whether the subtrees already prunable at
// threshold th — queued entries whose bound plus ε sits strictly below
// it — cover at least a quarter of the items still in the queue. Below
// that, finishing the walk mostly gather-sweeps unprunable spans, which
// costs more than the dense blocked sweep it would replace.
func (ps *pruneState) prunableMass(eps, th float64) bool {
	var prunable, total int64
	for _, e := range ps.pq {
		lo, hi := ps.ix.DFSSpan(int(e.node))
		w := int64(hi - lo)
		total += w
		if e.bound+eps < th {
			prunable += w
		}
	}
	return prunable*4 >= total
}

// descend runs the best-first branch-and-bound walk. eps is the tier's
// total prune allowance: ItemPruneBound(q) for the f64 tier, plus the
// tier scoring error (ItemErrBound32/ItemErrBoundI8) for a
// reduced-precision stage-one heap, so a pruned item's tier score is
// strictly below the stage-one threshold too. When wantDefer is set and
// the heap has filled over a seed's worth of inline sweeping, surviving
// ranges are appended to ps.ranges for the caller to fan out instead of
// swept inline.
func (ps *pruneState) descend(done <-chan struct{}, tree *taxonomy.Tree, eps float64, wantDefer bool) int {
	ix := ps.ix
	budget := int64(prunedBudget(ix.NumItems()))
	// expansion runs under the probe allowance until the loose-bounds
	// checkpoint passes; a bailing walk never spends the full budget
	expand := probeBudget(ix.NumItems())
	if expand > budget {
		expand = budget
	}
	ps.pq = ps.pq[:0]
	ps.ranges = ps.ranges[:0]
	root := tree.Root()
	ps.statBoundEvals++
	ps.pqPush(boundedSubtree{bound: ix.SubtreeBound(root, ps.tq.q), node: int32(root)})
	swept := 0
	deferring := false
	bailChecked := false
	for len(ps.pq) > 0 {
		if canceled(done) {
			return descendCanceled
		}
		top := ps.pqPop()
		node := int(top.node)
		dlo, dhi := ix.DFSSpan(node)
		// prune: the collector is full and no item under node can beat (or
		// tie, by the strict inequality) its k-th score. The threshold only
		// rises, so the certificate holds against the final ranking too.
		if th, full := ps.st.Threshold(); full && top.bound+eps < th {
			ps.statSubtrees++
			ps.statItems += int64(dhi - dlo)
			continue
		}
		if dhi-dlo > prunedLeafCutoff && ps.statBoundEvals < expand {
			children := tree.Children(node)
			// expansion must shrink the work meaningfully: each child bound
			// costs ~two dot products. Empty subtrees are skipped — their
			// spans hold nothing and their identity envelopes must not be
			// evaluated — so the pushed spans still partition the parent's.
			if len(children)*4 <= dhi-dlo {
				for _, ch := range children {
					if clo, chi := ix.DFSSpan(int(ch)); clo == chi {
						continue
					}
					ps.statBoundEvals++
					ps.pqPush(boundedSubtree{bound: ix.SubtreeBound(int(ch), ps.tq.q), node: ch})
				}
				continue
			}
		}
		if deferring {
			ps.ranges = append(ps.ranges, nodeRange(ix, node, dlo, dhi))
			continue
		}
		if !bailChecked {
			// the one loose-bounds checkpoint: sweep just far enough to
			// fill the collector — the threshold is then live, so the
			// queue's bounds finally mean something. Nothing pruned yet
			// and almost nothing prunable means the envelopes cannot beat
			// this query's score range; bail before sinking real work.
			p := ps.sweepProbe(dlo, dhi)
			if th, full := ps.st.Threshold(); full {
				bailChecked = true
				if ps.statItems == 0 && !ps.prunableMass(eps, th) {
					return descendBailed
				}
				expand = budget
			}
			ps.sweep(itemRange{int32(p), int32(dhi), true})
		} else {
			ps.sweep(nodeRange(ix, node, dlo, dhi))
		}
		swept += dhi - dlo
		if wantDefer && !deferring && swept >= prunedSeedItems {
			if _, full := ps.st.Threshold(); full {
				deferring = true
			}
		}
	}
	return descendDone
}

// prunedSweep is stage one as the branch-and-bound descent: descend with
// total prune allowance eps, then sweep the deferred ranges — out ends
// byte-identical to runSweep's. It returns the descent outcome; a bailed
// walk is counted in PruneStats.Fallbacks and leaves out re-armed empty
// for the caller's dense sweep.
func (p *Pool) prunedSweep(done <-chan struct{}, c *model.Composed, tq *tierQuery, maxWorkers int, mask *vecmath.Bitset, out *vecmath.TopKStream, eps float64) int {
	ix := c.Index
	ps := pruneStates.Get().(*pruneState)
	ps.ix, ps.mask, ps.tq, ps.st = ix, mask, *tq, out
	res := ps.descend(done, c.Tree, eps, p.fanout(maxWorkers, ix.NumShards()) > 1)
	if res == descendDone {
		p.sweepRanges(done, ps, maxWorkers)
	}
	ps.flushStats()
	ps.ix, ps.mask, ps.tq, ps.st = nil, nil, tierQuery{}, nil
	pruneStates.Put(ps)
	if res == descendBailed {
		// loose bounds: discard the partial collector; the caller runs the
		// blocked dense sweep the descent would otherwise have gather-mimicked
		pruneFallbacks.Add(1)
		out.Reset(out.K())
	}
	return res
}

// sweepRanges sweeps the descent's deferred ranges, fanning them across
// the pool when it pays (the surviving ranges are the claimable work
// units, byte-identical to sweeping them serially by the bounded-heap
// merge invariant); the serial path drains them inline.
func (p *Pool) sweepRanges(done <-chan struct{}, ps *pruneState, maxWorkers int) {
	fan := p.fanout(maxWorkers, len(ps.ranges))
	if fan <= 1 {
		for _, r := range ps.ranges {
			if canceled(done) {
				return
			}
			ps.sweep(r)
		}
		return
	}
	p.fanSweep(done, ps.ix, &ps.tq, ps.mask, ps.ranges, fan, ps.st)
}

package infer

import (
	"math"
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
// descent over their own slabs into the stage-one candidate heap, with
// the tier's scoring error (ItemErrBound32 / ItemErrBoundI8) added to the
// prune ε so a pruned item's tier score also sits strictly below the
// stage-one threshold; the unchanged rescore certificates of §5.7/§5.10
// (separated / separatedI8) then decide exactness and escalate on
// failure, so certify-or-escalate discipline is preserved end to end.
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

// itemRange is one span deferred for pooled sweeping: a contiguous raw
// item range [lo, hi) when gather is false, a span of the depth-first item
// order (to gather-score item by item) when gather is true.
type itemRange struct {
	lo, hi int32
	gather bool
}

// pruneState is the reusable per-descent state: the subtree priority
// queue, the deferred range list, the tier wiring (exactly one of st/st32
// receives pushes; q is always the exact f64 query the bounds are
// evaluated against), locally batched counters, and the block buffers the
// range sweeps score into. Pooled so steady-state pruned serving
// allocates nothing.
type pruneState struct {
	pq     []boundedSubtree
	ranges []itemRange

	ix           *model.ScoringIndex
	mask         *vecmath.Bitset
	q            []float64
	st           *vecmath.TopKStream
	q32          []float32
	st32         *vecmath.TopKStream32
	u            []int8
	qscale, sumQ float64

	statSubtrees, statItems, statBoundEvals int64

	block     [blockItems]float64
	block32   [blockItems]float32
	survivors i8Survivors
}

var pruneStates = sync.Pool{New: func() any { return new(pruneState) }}

func getPruneState() *pruneState { return pruneStates.Get().(*pruneState) }

func putPruneState(ps *pruneState) {
	ps.ix, ps.mask, ps.q, ps.st, ps.q32, ps.st32, ps.u = nil, nil, nil, nil, nil, nil, nil
	pruneStates.Put(ps)
}

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

// threshold returns the active collector's k-th score in float64 (the
// space SubtreeBound lives in; widening a float32 threshold is exact).
func (ps *pruneState) threshold() (float64, bool) {
	if ps.st32 != nil {
		th, full := ps.st32.Threshold()
		return float64(th), full
	}
	return ps.st.Threshold()
}

// sweepRange scores the contiguous item span [lo, hi) into the active
// collector through the tier's blocked kernel — the same kernels the
// dense sweep uses, so scores are bitwise identical whichever path
// visits an item.
func (ps *pruneState) sweepRange(lo, hi int) {
	switch {
	case ps.st32 != nil:
		if ps.mask == nil {
			sweepRange32Into(ps.ix, ps.q32, lo, hi, ps.block32[:], ps.st32)
		} else {
			sweepRange32MaskedInto(ps.ix, ps.q32, lo, hi, ps.block32[:], ps.mask, ps.st32)
		}
	case ps.u != nil:
		sweepRangeI8Into(ps.ix, ps.u, ps.qscale, ps.sumQ, lo, hi, &ps.survivors, ps.mask, ps.st)
	default:
		if ps.mask == nil {
			sweepRangeInto(ps.ix, ps.q, lo, hi, ps.block[:], ps.st)
		} else {
			sweepRangeMaskedInto(ps.ix, ps.q, lo, hi, ps.block[:], ps.mask, ps.st)
		}
	}
}

// gatherRange scores the depth-first span [lo, hi) of ix.DFSItems() one
// item at a time through the tier's per-item scorer — bitwise identical to
// the blocked kernels by the scorers' documented contract — for subtrees
// whose raw item ids interleave with their siblings'.
func (ps *pruneState) gatherRange(lo, hi int) {
	gatherSpan(ps.ix, ps.ix.DFSItems()[lo:hi], ps.mask, ps.q, ps.st, ps.q32, ps.st32, ps.u, ps.qscale, ps.sumQ)
}

// gatherSpan is the tier dispatch shared by the serial descent and the
// pooled range workers: exactly one of st32 (f32 tier) / u+st (int8 tier)
// / st alone (f64 tier) is active, mirroring pruneState's wiring.
func gatherSpan(ix *model.ScoringIndex, span []int32, mask *vecmath.Bitset, q []float64, st *vecmath.TopKStream, q32 []float32, st32 *vecmath.TopKStream32, u []int8, qscale, sumQ float64) {
	switch {
	case st32 != nil:
		for _, it := range span {
			item := int(it)
			if mask != nil && !mask.Get(item) {
				continue
			}
			st32.Push(item, ix.ScoreItem32(item, q32))
		}
	case u != nil:
		for _, it := range span {
			item := int(it)
			if mask != nil && !mask.Get(item) {
				continue
			}
			st.Push(item, ix.ScoreItemI8(item, u, qscale, sumQ))
		}
	default:
		for _, it := range span {
			item := int(it)
			if mask != nil && !mask.Get(item) {
				continue
			}
			st.Push(item, ix.ScoreItem(item, q))
		}
	}
}

// sweepProbe gather-scores the depth-first span [dlo, dhi) one item at a
// time, stopping as soon as the collector fills, and returns the index it
// stopped at (dhi if the collector never filled). Only the pre-checkpoint
// phase of a descent uses it, so the per-item fullness polling is paid on
// at most the first k pushes of the walk.
func (ps *pruneState) sweepProbe(dlo, dhi int) int {
	dfs := ps.ix.DFSItems()
	for p := dlo; p < dhi; p++ {
		gatherSpan(ps.ix, dfs[p:p+1], ps.mask, ps.q, ps.st, ps.q32, ps.st32, ps.u, ps.qscale, ps.sumQ)
		if _, full := ps.threshold(); full {
			return p + 1
		}
	}
	return dhi
}

// sweepNode scores every item in node's subtree into the active collector,
// through the blocked kernels when the node's raw item range is contiguous
// and through the depth-first gather otherwise.
func (ps *pruneState) sweepNode(node, dlo, dhi int) {
	if lo, hi, contiguous := ps.ix.ItemRange(node); contiguous {
		ps.sweepRange(lo, hi)
		return
	}
	ps.gatherRange(dlo, dhi)
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
	ps.pqPush(boundedSubtree{bound: ix.SubtreeBound(root, ps.q), node: int32(root)})
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
		if th, full := ps.threshold(); full && top.bound+eps < th {
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
					ps.pqPush(boundedSubtree{bound: ix.SubtreeBound(int(ch), ps.q), node: ch})
				}
				continue
			}
		}
		if deferring {
			if lo, hi, contiguous := ix.ItemRange(node); contiguous {
				ps.ranges = append(ps.ranges, itemRange{int32(lo), int32(hi), false})
			} else {
				ps.ranges = append(ps.ranges, itemRange{int32(dlo), int32(dhi), true})
			}
			continue
		}
		if !bailChecked {
			// the one loose-bounds checkpoint: sweep just far enough to
			// fill the collector — the threshold is then live, so the
			// queue's bounds finally mean something. Nothing pruned yet
			// and almost nothing prunable means the envelopes cannot beat
			// this query's score range; bail before sinking real work.
			p := ps.sweepProbe(dlo, dhi)
			if th, full := ps.threshold(); full {
				bailChecked = true
				if ps.statItems == 0 && !ps.prunableMass(eps, th) {
					return descendBailed
				}
				expand = budget
			}
			if p < dhi {
				ps.gatherRange(p, dhi)
			}
		} else {
			ps.sweepNode(node, dlo, dhi)
		}
		swept += dhi - dlo
		if wantDefer && !deferring && swept >= prunedSeedItems {
			if _, full := ps.threshold(); full {
				deferring = true
			}
		}
	}
	return descendDone
}

// pruneTask is the fan-out state of the pooled pruned sweep: the descent's
// surviving ranges become the claimable work units (mirroring sweepTask's
// shard claiming), each participant sweeps its claims into a per-worker
// heap through the tier picked by the set fields, and partials merge into
// out/out32 — byte-identical to sweeping the ranges serially, by the
// bounded-heap merge invariant.
type pruneTask struct {
	taskBase
	ix     *model.ScoringIndex
	ranges []itemRange
	dfs    []int32
	q      []float64
	k      int
	q32    []float32
	out32  *vecmath.TopKStream32
	qi8    []int8
	qscale float64
	sumQ   float64
	mask   *vecmath.Bitset
	done   <-chan struct{}
	next   atomic.Int32
	mu     sync.Mutex
	out    *vecmath.TopKStream
}

func (t *pruneTask) run(sc *scratch) {
	if t.qi8 != nil {
		st := &sc.st
		st.Reset(t.k)
		var sv i8Survivors
		for {
			if canceled(t.done) {
				break
			}
			r := int(t.next.Add(1)) - 1
			if r >= len(t.ranges) {
				break
			}
			lo, hi := int(t.ranges[r].lo), int(t.ranges[r].hi)
			if t.ranges[r].gather {
				gatherSpan(t.ix, t.dfs[lo:hi], t.mask, nil, st, nil, nil, t.qi8, t.qscale, t.sumQ)
			} else {
				sweepRangeI8Into(t.ix, t.qi8, t.qscale, t.sumQ, lo, hi, &sv, t.mask, st)
			}
		}
		if st.Len() > 0 {
			t.mu.Lock()
			t.out.Merge(st)
			t.mu.Unlock()
		}
		return
	}
	if t.out32 != nil {
		st := &sc.st32
		st.Reset(t.k)
		var block [blockItems]float32
		for {
			if canceled(t.done) {
				break
			}
			r := int(t.next.Add(1)) - 1
			if r >= len(t.ranges) {
				break
			}
			lo, hi := int(t.ranges[r].lo), int(t.ranges[r].hi)
			if t.ranges[r].gather {
				gatherSpan(t.ix, t.dfs[lo:hi], t.mask, nil, nil, t.q32, st, nil, 0, 0)
			} else if t.mask == nil {
				sweepRange32Into(t.ix, t.q32, lo, hi, block[:], st)
			} else {
				sweepRange32MaskedInto(t.ix, t.q32, lo, hi, block[:], t.mask, st)
			}
		}
		if st.Len() > 0 {
			t.mu.Lock()
			t.out32.Merge(st)
			t.mu.Unlock()
		}
		return
	}
	st := &sc.st
	st.Reset(t.k)
	var block [blockItems]float64
	for {
		if canceled(t.done) {
			break
		}
		r := int(t.next.Add(1)) - 1
		if r >= len(t.ranges) {
			break
		}
		lo, hi := int(t.ranges[r].lo), int(t.ranges[r].hi)
		if t.ranges[r].gather {
			gatherSpan(t.ix, t.dfs[lo:hi], t.mask, t.q, st, nil, nil, nil, 0, 0)
		} else if t.mask == nil {
			sweepRangeInto(t.ix, t.q, lo, hi, block[:], st)
		} else {
			sweepRangeMaskedInto(t.ix, t.q, lo, hi, block[:], t.mask, st)
		}
	}
	if st.Len() > 0 {
		t.mu.Lock()
		t.out.Merge(st)
		t.mu.Unlock()
	}
}

func (p *Pool) getPruneTask() *pruneTask {
	t, _ := p.prunes.Get().(*pruneTask)
	if t == nil {
		t = new(pruneTask)
	}
	return t
}

// dispatchRanges sweeps the descent's deferred ranges, fanning them across
// the pool when it pays; the serial path simply drains them inline.
func (p *Pool) dispatchRanges(done <-chan struct{}, ps *pruneState, maxWorkers int) {
	if len(ps.ranges) == 0 {
		return
	}
	fan := p.fanout(maxWorkers, len(ps.ranges))
	if fan <= 1 {
		for _, r := range ps.ranges {
			if canceled(done) {
				return
			}
			if r.gather {
				ps.gatherRange(int(r.lo), int(r.hi))
			} else {
				ps.sweepRange(int(r.lo), int(r.hi))
			}
		}
		return
	}
	t := p.getPruneTask()
	t.ix, t.ranges, t.dfs, t.mask, t.done = ps.ix, ps.ranges, ps.ix.DFSItems(), ps.mask, done
	switch {
	case ps.st32 != nil:
		t.q32, t.k, t.out32 = ps.q32, ps.st32.K(), ps.st32
	case ps.u != nil:
		t.qi8, t.qscale, t.sumQ, t.k, t.out = ps.u, ps.qscale, ps.sumQ, ps.st.K(), ps.st
	default:
		t.q, t.k, t.out = ps.q, ps.st.K(), ps.st
	}
	t.next.Store(0)
	p.dispatch(t, fan)
	t.ix, t.ranges, t.dfs, t.q, t.q32, t.qi8, t.out, t.out32, t.mask, t.done = nil, nil, nil, nil, nil, nil, nil, nil, nil, nil
	p.prunes.Put(t)
}

// wantDefer decides whether a descent should hand surviving ranges to the
// pool instead of sweeping everything inline, using the same fan-out
// arithmetic as the dense sweep.
func (p *Pool) wantDefer(maxWorkers int, ix *model.ScoringIndex) bool {
	return p.fanout(maxWorkers, ix.NumShards()) > 1
}

// prunedF64 is the exact-tier branch-and-bound sweep: descend, sweep the
// survivors, done — the collector ends byte-identical to runSweep's. Plans
// whose collector covers the eligible set (the heap could never fill below
// the catalog, so nothing can prune) and non-certifiable ε fall back to
// the dense sweep, counted in PruneStats.Fallbacks.
func (p *Pool) prunedF64(done <-chan struct{}, c *model.Composed, q []float64, maxWorkers int, mask *vecmath.Bitset, eligible int, st *vecmath.TopKStream) {
	ix := c.Index
	if st.K() <= 0 || ix.NumItems() == 0 {
		return
	}
	eps := ix.ItemPruneBound(q)
	if st.K() >= eligible || math.IsInf(eps, 0) || math.IsNaN(eps) {
		pruneFallbacks.Add(1)
		p.runSweep(done, ix, q, mask, maxWorkers, st)
		return
	}
	ps := getPruneState()
	ps.ix, ps.mask, ps.q, ps.st = ix, mask, q, st
	res := ps.descend(done, c.Tree, eps, p.wantDefer(maxWorkers, ix))
	if res == descendDone {
		p.dispatchRanges(done, ps, maxWorkers)
	}
	ps.flushStats()
	putPruneState(ps)
	if res == descendBailed {
		// loose bounds: discard the partial collector and run the blocked
		// dense sweep the descent would otherwise have gather-mimicked
		pruneFallbacks.Add(1)
		st.Reset(st.K())
		p.runSweep(done, ix, q, mask, maxWorkers, st)
	}
}

// prunedF32 is naiveF32 with the stage-one candidate sweep replaced by the
// branch-and-bound descent over the compact slab. The prune ε adds the f32
// scoring error to the f64 allowance, so every pruned item's f32 score is
// strictly below the candidate threshold — the retained candidate set is
// exactly the dense f32 sweep's, and the unchanged separation certificate
// (rescoreItems/separated) decides exactness, escalating the budget on
// failure just like the dense pipeline.
func (p *Pool) prunedF32(done <-chan struct{}, c *model.Composed, q []float64, maxWorkers int, mask *vecmath.Bitset, eligible int, st *vecmath.TopKStream, kp0 int) {
	ix := c.Index
	k := st.K()
	if k <= 0 {
		return
	}
	if ix.NumItems() == 0 {
		return
	}
	epsPrune := ix.ItemPruneBound(q)
	if math.IsInf(epsPrune, 0) || math.IsNaN(epsPrune) {
		// the bound cannot certify for this query; the dense two-stage
		// pipeline handles the non-finite regime via its own escalation
		pruneFallbacks.Add(1)
		p.naiveF32(done, c, q, maxWorkers, mask, eligible, st, kp0)
		return
	}
	sc := getF32Scratch(q)
	defer f32Scratches.Put(sc)
	eps32 := ix.ItemErrBound32(q)
	ps := getPruneState()
	defer putPruneState(ps)
	ps.ix, ps.mask, ps.q, ps.q32 = ix, mask, q, sc.q32
	for kp := kp0; ; kp *= 2 {
		if canceled(done) {
			ps.flushStats()
			return
		}
		if kp >= eligible {
			// the candidate budget covers every eligible item: stage one
			// cannot prune candidates, so run the exact pruned f64 path
			st.Reset(k)
			p.prunedF64(done, c, q, maxWorkers, mask, eligible, st)
			return
		}
		sc.cand.Reset(kp)
		ps.st32 = &sc.cand
		switch ps.descend(done, c.Tree, epsPrune+eps32, p.wantDefer(maxWorkers, ix)) {
		case descendCanceled:
			ps.flushStats()
			return
		case descendBailed:
			// loose bounds: hand this query to the dense two-stage pipeline
			// at the current candidate budget, discarding the partial heap
			ps.flushStats()
			pruneFallbacks.Add(1)
			st.Reset(k)
			p.naiveF32(done, c, q, maxWorkers, mask, eligible, st, kp)
			return
		}
		p.dispatchRanges(done, ps, maxWorkers)
		ps.flushStats()
		if canceled(done) {
			// a cancelled sweep left a truncated candidate set; rescoring it
			// could "certify" a wrong ranking, so bail before stage two
			return
		}
		st.Reset(k)
		if rescoreItems(done, ix, q, &sc.cand, st, eps32) {
			return
		}
		f32Escalations.Add(1)
	}
}

// prunedI8 is naiveI8 with the quantized stage-one sweep replaced by the
// branch-and-bound descent, mirroring prunedF32 with the int8 error bound
// folded into the prune ε and the int8 certificate (rescoreEntries/
// separatedI8) unchanged. A non-certifiable int8 bound goes to the exact
// pruned f64 path — the bounds still prune there even when quantization
// cannot certify.
func (p *Pool) prunedI8(done <-chan struct{}, c *model.Composed, q []float64, maxWorkers int, mask *vecmath.Bitset, eligible int, st *vecmath.TopKStream, kp0 int) {
	ix := c.Index
	k := st.K()
	if k <= 0 || ix.NumItems() == 0 {
		return
	}
	sc := getI8Scratch(q)
	defer i8Scratches.Put(sc)
	epsI8 := ix.ItemErrBoundI8(q, sc.sumAbsErr)
	epsPrune := ix.ItemPruneBound(q)
	if math.IsInf(epsI8, 0) || math.IsNaN(epsI8) || math.IsInf(epsPrune, 0) || math.IsNaN(epsPrune) {
		st.Reset(k)
		p.prunedF64(done, c, q, maxWorkers, mask, eligible, st)
		return
	}
	ps := getPruneState()
	defer putPruneState(ps)
	ps.ix, ps.mask, ps.q = ix, mask, q
	ps.u, ps.qscale, ps.sumQ = sc.u, sc.qscale, sc.sumQ
	for kp := kp0; ; kp *= 2 {
		if canceled(done) {
			ps.flushStats()
			return
		}
		if kp >= eligible {
			st.Reset(k)
			// ps.st still points at the candidate heap; the f64 fallback
			// builds its own state, so clear the tier wiring first
			ps.u = nil
			p.prunedF64(done, c, q, maxWorkers, mask, eligible, st)
			return
		}
		sc.cand.Reset(kp)
		ps.st = &sc.cand
		switch ps.descend(done, c.Tree, epsPrune+epsI8, p.wantDefer(maxWorkers, ix)) {
		case descendCanceled:
			ps.flushStats()
			return
		case descendBailed:
			ps.flushStats()
			pruneFallbacks.Add(1)
			st.Reset(k)
			p.naiveI8(done, c, q, maxWorkers, mask, eligible, st, kp)
			return
		}
		p.dispatchRanges(done, ps, maxWorkers)
		ps.flushStats()
		if canceled(done) {
			return
		}
		st.Reset(k)
		if rescoreEntries(done, ix, q, &sc.cand, st, epsI8) {
			return
		}
		i8Escalations.Add(1)
	}
}

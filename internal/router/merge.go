package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/api"
	"repro/internal/vecmath"
)

// route runs one already-validated, already-folded request through the
// topology: rewrite for the shards, scatter, classify the outcomes,
// merge, and cut the requested page. It returns either the merged
// response or the typed error to answer with.
//
// The rewrite is what makes the merge exact: every shard is asked for
// the full pre-pagination heap (k' = min(K+Offset, items), offset' = 0)
// and the router applies the Offset cut after merging — a shard cannot
// know which of its items the global page starts at. The clamp to the
// catalog size mirrors infer.Plan.heapSize, so an absurd K costs the
// wire no more than the catalog.
func (r *Router) route(ctx context.Context, t *topology, wr api.RecommendRequest, passQuery string) (api.RecommendResponse, *api.ErrorDetail) {
	heapSize := wr.K + wr.Offset
	if heapSize > t.model.Items {
		heapSize = t.model.Items
	}
	shardReq := wr
	shardReq.K, shardReq.Offset = heapSize, 0
	body, err := json.Marshal(shardReq)
	if err != nil {
		return api.RecommendResponse{}, &api.ErrorDetail{Code: api.CodeInternal, Message: err.Error()}
	}

	results := r.scatter(ctx, t, body, passQuery)
	oks := make([]*api.RecommendResponse, 0, len(results))
	failed := 0
	for _, res := range results {
		switch {
		case res.clientErr != nil:
			// the request is malformed on every shard alike; hand the
			// shard's own typed envelope through verbatim
			return api.RecommendResponse{}, res.clientErr
		case res.err != nil:
			failed++
		default:
			oks = append(oks, res.ok)
		}
	}
	if failed > 0 {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			r.deadlines.Add(1)
			return api.RecommendResponse{}, &api.ErrorDetail{Code: api.CodeDeadlineExceeded, Message: "request deadline exceeded, retry later", RetryAfter: 1}
		}
		if !r.cfg.DegradedPartial || len(oks) == 0 {
			return api.RecommendResponse{}, &api.ErrorDetail{
				Code:       api.CodeShardUnavailable,
				Message:    fmt.Sprintf("%d of %d shards unavailable", failed, len(results)),
				RetryAfter: 1,
			}
		}
	}
	// one model, one ranking: responses from different snapshot contents
	// must never be merged, however briefly a rolling SIGHUP mixes them
	modelID := oks[0].ModelID
	for _, ok := range oks[1:] {
		if ok.ModelID != modelID {
			r.epochMismatch.Add(1)
			return api.RecommendResponse{}, &api.ErrorDetail{
				Code:       api.CodeEpochMismatch,
				Message:    "shards answered from different model snapshots mid-reload, retry shortly",
				RetryAfter: 1,
			}
		}
	}

	ranked, cats := mergeShards(wr, oks, heapSize)
	if wr.Offset >= len(ranked) {
		ranked = ranked[:0]
	} else {
		ranked = ranked[wr.Offset:]
	}
	resp := api.RecommendResponse{
		Items:    make([]api.Item, len(ranked)),
		Epoch:    minResponseEpoch(oks),
		ModelID:  modelID,
		Degraded: failed > 0,
	}
	for i, s := range ranked {
		resp.Items[i] = api.Item{Item: s.ID, Score: s.Score, Category: cats[s.ID]}
	}
	if resp.Degraded {
		r.degraded.Add(1)
	}
	return resp, nil
}

// mergeShards folds the per-shard rankings into the global
// pre-pagination ranking, byte-identical to a single node's.
//
// Naive and cascade rankings merge through one vecmath.TopKStream: the
// shard pages are the per-range bounded heaps of a partitioned sweep,
// and merging bounded heaps under the score-then-lower-ID total order
// equals one serial stream over the union (the TopKStream.Merge lemma).
//
// Diversified rankings re-apply the per-category quota selection of
// infer.executeDiversified — whose greedy quota scan of the exact
// ranking equals the top-heapSize of the union of every category's own
// top-min(MaxPerCategory, heapSize) — in that union form: per-category
// bounded heaps fed from the returned items, merged into one final heap,
// keyed by the category annotation the shards attach to each item. Shard pages of size heapSize suffice: if
// a shard's final heap dropped an item x that survived its local quota,
// then heapSize quota-surviving items beat x on that shard, and each of
// them either survives the global quota too or is displaced in its
// category's global top-perCat by still-better items — either way
// heapSize globally-surviving items beat x, so x was never in the
// global page.
//
// The returned category map carries each merged item's quota category
// for re-annotation (empty for non-diversified requests).
func mergeShards(wr api.RecommendRequest, oks []*api.RecommendResponse, heapSize int) ([]vecmath.Scored, map[int]int32) {
	if wr.Strategy == "diversified" && wr.MaxPerCategory > 0 {
		perCat := wr.MaxPerCategory
		if perCat > heapSize {
			perCat = heapSize
		}
		cats := make(map[int]int32)
		quota := make(map[int32]*vecmath.TopKStream)
		for _, ok := range oks {
			for _, it := range ok.Items {
				cats[it.Item] = it.Category
				h := quota[it.Category]
				if h == nil {
					h = vecmath.NewTopKStream(perCat)
					quota[it.Category] = h
				}
				h.Push(it.Item, it.Score)
			}
		}
		final := vecmath.NewTopKStream(heapSize)
		for _, h := range quota {
			// merge order over the map is irrelevant: a bounded heap's
			// retained set depends only on the pushed multiset, and the
			// score-then-lower-ID order is strict
			final.Merge(h)
		}
		return final.Ranked(), cats
	}
	final := vecmath.NewTopKStream(heapSize)
	for _, ok := range oks {
		for _, it := range ok.Items {
			final.Push(it.Item, it.Score)
		}
	}
	return final.Ranked(), nil
}

// minResponseEpoch is the epoch the merged result is current at: the
// minimum snapshot generation across the responses that fed the merge —
// the same value the router's cache stamps entries with.
func minResponseEpoch(oks []*api.RecommendResponse) uint64 {
	min := oks[0].Epoch
	for _, ok := range oks[1:] {
		if ok.Epoch < min {
			min = ok.Epoch
		}
	}
	return min
}

// cacheKey canonicalizes a folded request into its cache identity.
// Pruned is result-neutral (the branch-and-bound rankings are
// byte-identical) and the pass-through query knobs (workers, precision)
// never reach the key, so requests differing only in execution knobs
// share an entry — exactly the policy of the single-node cache.
func cacheKey(wr api.RecommendRequest) string {
	wr.Pruned = false
	b, _ := json.Marshal(wr)
	return string(b)
}

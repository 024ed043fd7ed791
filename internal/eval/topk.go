package eval

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/model"
	"repro/internal/vecmath"
)

// TopKResult carries the cut-off ranking metrics at a fixed k. The paper
// reports AUC and meanRank; production recommenders are judged at a cut,
// so the library also provides the standard trio.
type TopKResult struct {
	K int
	// Precision is |top-k ∩ positives| / k, averaged over users.
	Precision float64
	// Recall is |top-k ∩ positives| / |positives|, averaged over users.
	Recall float64
	// HitRate is the fraction of users with at least one positive in the
	// top-k.
	HitRate float64
	// NDCG is the normalized discounted cumulative gain at k (binary
	// relevance), averaged over users.
	NDCG float64
	// Users is how many users contributed.
	Users int
}

// EvaluateTopK computes precision/recall/hit-rate at cut k over each
// user's first test transaction, using the same context protocol as
// Evaluate. It runs single-threaded on the exact f64 sweep;
// EvaluateTopKPlan shards users over goroutines and takes any plan.
func EvaluateTopK(c *model.Composed, history, test *dataset.Dataset, k int) (TopKResult, error) {
	return EvaluateTopKPlan(c, history, test, 1, infer.Plan{K: k, Precision: model.PrecisionF64, MaxWorkers: 1})
}

// EvaluateTopKPlan is the fully general entry point: the caller supplies
// the per-user plan (precision, pruned retrieval, filters) and the
// evaluator shards users over workers goroutines (<= 0 uses GOMAXPROCS),
// mirroring the §6.2 user-sharded evaluation, and runs one copy of the
// plan per user. Each worker owns a query buffer and a bounded top-k heap
// and evaluates an interleaved user slice; per-worker partial sums are
// reduced in worker order, so the result is deterministic for a given
// worker count. Plan.K must be positive; MaxWorkers should stay 1 —
// users are already sharded over goroutines here, so the per-query sweep
// stays serial. Every ranking-equivalent plan (any precision, pruned or
// dense) yields identical metrics; the choice only moves throughput.
func EvaluateTopKPlan(c *model.Composed, history, test *dataset.Dataset, workers int, pl infer.Plan) (TopKResult, error) {
	k := pl.K
	if k <= 0 {
		return TopKResult{}, fmt.Errorf("eval: k must be positive, got %d", k)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > test.NumUsers() {
		workers = test.NumUsers()
	}
	if workers < 1 {
		workers = 1
	}
	partials := make([]TopKResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			part := &partials[w]
			part.K = k
			q := make([]float64, c.K())
			st := vecmath.NewTopKStream(k)
			for u := w; u < test.NumUsers(); u += workers {
				evaluateTopKUser(c, history, test, u, k, q, st, pl, part)
			}
		}(w)
	}
	wg.Wait()
	res := TopKResult{K: k}
	for _, part := range partials {
		res.Precision += part.Precision
		res.Recall += part.Recall
		res.HitRate += part.HitRate
		res.NDCG += part.NDCG
		res.Users += part.Users
	}
	if res.Users > 0 {
		n := float64(res.Users)
		res.Precision /= n
		res.Recall /= n
		res.HitRate /= n
		res.NDCG /= n
	}
	return res, nil
}

// evaluateTopKUser scores one user's first test transaction into part,
// accumulating unnormalized metric sums.
func evaluateTopKUser(c *model.Composed, history, test *dataset.Dataset, u, k int, q []float64, st *vecmath.TopKStream, pl infer.Plan, part *TopKResult) {
	baskets := test.Users[u].Baskets
	if len(baskets) == 0 {
		return
	}
	seq := history.Users[u].Baskets
	c.BuildQueryInto(u, c.PrevBaskets(seq, len(seq)), q)
	// run the plan into a reused bounded heap instead of materializing a
	// catalog-sized score array per user
	res, err := infer.ExecuteInto(context.Background(), c, q, pl, st)
	if err != nil {
		// the plan is constant and k was validated above; nothing per-user
		// can fail here
		panic(err)
	}
	top := res.Items

	positives := baskets[0]
	hits := 0
	var dcg float64
	for rank, t := range top {
		if positives.Contains(int32(t.ID)) {
			hits++
			dcg += 1 / log2(float64(rank+2))
		}
	}
	var idcg float64
	ideal := len(positives)
	if ideal > k {
		ideal = k
	}
	for rank := 0; rank < ideal; rank++ {
		idcg += 1 / log2(float64(rank+2))
	}
	part.Precision += float64(hits) / float64(k)
	part.Recall += float64(hits) / float64(len(positives))
	if idcg > 0 {
		part.NDCG += dcg / idcg
	}
	if hits > 0 {
		part.HitRate++
	}
	part.Users++
}

func log2(x float64) float64 { return math.Log2(x) }

package infer

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

// Property: a pruned naive plan returns pages byte-identical to the
// brute-force oracle — and therefore to the unpruned plan — across
// {serial, Pool} × {f64, f32, int8}, shard sizes, worker counts, k,
// offsets, filters and every tie regime. The tie regimes double as the
// adversarial bound surface: with zeroed factors (tieRaw%4 != 0) every
// per-dimension envelope is exactly tight and every subtree bound sits
// within one bias step of the k-th score, so the engine must survive
// bounds that barely (or never) clear the prune threshold.
func TestQuickPrunedMatchesOracle(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	f := func(seed uint16, shardRaw, kRaw, sizeRaw, tieRaw uint8, fltRaw uint16) bool {
		c, q := f32World(t, uint64(seed)+811, shardRaw, kRaw, sizeRaw, tieRaw)
		var flt *Filter
		if fltRaw%3 != 0 { // mix unfiltered and filtered descents
			flt = randomFilter(c, fltRaw)
		}
		eligible := eligibleSet(c, flt)
		scores := make(map[int]float64)
		for item, ok := range eligible {
			if ok {
				scores[item] = c.Index.ScoreItem(item, q)
			}
		}
		k := 1 + int(kRaw)%12
		offset := int(fltRaw>>9) % 5
		want := rankEligible(scores, k, offset)
		pl := Plan{K: k, Offset: offset, Filter: flt, Pruned: true, MaxWorkers: int(shardRaw) % 5}
		return executeAll(t, pool, c, q, pl, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: when k reaches or exceeds the eligible catalog the pruned
// engine must take the dense fallback and still return the oracle page.
func TestQuickPrunedFallbackMatchesOracle(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	f := func(seed uint16, shardRaw, kRaw, sizeRaw, tieRaw uint8) bool {
		c, q := f32World(t, uint64(seed)+977, shardRaw, kRaw, sizeRaw, tieRaw)
		scores := make(map[int]float64)
		for item := 0; item < c.NumItems(); item++ {
			scores[item] = c.Index.ScoreItem(item, q)
		}
		for _, k := range []int{c.NumItems(), c.NumItems() + 3} {
			want := rankEligible(scores, k, 0)
			pl := Plan{K: k, Pruned: true}
			if !executeAll(t, pool, c, q, pl, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// prunedSkewedWorld builds a world where one level-1 subtree dominates by
// a wide bias margin, so the branch-and-bound descent provably discards
// the sibling subtrees once the candidate heap fills from the favored one.
func prunedSkewedWorld(t *testing.T) (*model.Composed, []float64) {
	t.Helper()
	rng := vecmath.NewRNG(4242)
	tree, err := taxonomy.Generate(taxonomy.GenConfig{
		CategoryLevels: []int{8, 64},
		Items:          4000,
		Skew:           0.3,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.New(tree, 3, model.Params{
		K: 6, TaxonomyLevels: 3, Alpha: 1, InitStd: 0.05, UseBias: true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Compose folds every level's offsets regardless of the trained band,
	// so a hand-set level-1 bias skews the whole subtree beneath it.
	fav := tree.Level(1)[0]
	for _, n := range tree.Level(1) {
		if n == fav {
			m.Bias.Row(int(n))[0] = 5
		} else {
			m.Bias.Row(int(n))[0] = -5
		}
	}
	c := m.Compose()
	q := make([]float64, 6)
	for i := range q {
		q[i] = rng.NormFloat64() * 0.1
	}
	return c, q
}

// On the skewed world the pruned engine must both match the dense page
// byte-for-byte and actually prune: subtree and item counters advance for
// every precision tier.
func TestPrunedSkewedWorldPrunesAndMatches(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	c, q := prunedSkewedWorld(t)
	for _, prec := range []model.Precision{model.PrecisionF64, model.PrecisionF32, model.PrecisionInt8} {
		for _, workers := range []int{0, 4} {
			dense := Plan{K: 10, Precision: prec, MaxWorkers: workers}
			pruned := dense
			pruned.Pruned = true
			want, err := pool.Execute(context.Background(), c, q, dense)
			if err != nil {
				t.Fatal(err)
			}
			before := PruneCounters()
			got, err := pool.Execute(context.Background(), c, q, pruned)
			if err != nil {
				t.Fatal(err)
			}
			after := PruneCounters()
			if !samePage(want.Items, got.Items) {
				t.Fatalf("pruned page diverged (prec=%v workers=%d):\nwant %v\ngot  %v",
					prec, workers, want.Items, got.Items)
			}
			if after.SubtreesPruned <= before.SubtreesPruned {
				t.Fatalf("no subtrees pruned on skewed world (prec=%v workers=%d)", prec, workers)
			}
			if after.ItemsPruned <= before.ItemsPruned {
				t.Fatalf("no items pruned on skewed world (prec=%v workers=%d)", prec, workers)
			}
			if after.BoundEvals <= before.BoundEvals {
				t.Fatalf("no bounds evaluated (prec=%v workers=%d)", prec, workers)
			}
		}
	}
}

// prunedDeferWorld builds an 8192-item world whose first four level-1
// subtrees carry a +5 bias and the other four −5: the descent passes the
// loose-bounds checkpoint (half the catalog is prunable once the heap
// fills), then sweeps the favored half past prunedSeedItems, so with a
// multi-shard pool it defers the remaining ranges to the workers. With
// contiguous set the taxonomy is built from a parent array whose every
// subtree spans a raw item-id range, so the deferred ranges take the
// blocked kernels; otherwise generated ids interleave and they gather.
func prunedDeferWorld(t *testing.T, contiguous bool) (*model.Composed, []float64) {
	t.Helper()
	const cats, subs, items = 8, 64, 8192
	rng := vecmath.NewRNG(6161)
	var tree *taxonomy.Tree
	var err error
	if contiguous {
		parents := make([]int, 1+cats+subs+items)
		parents[0] = taxonomy.NoParent
		for j := 0; j < subs; j++ {
			parents[1+cats+j] = 1 + j/(subs/cats)
		}
		for i := 0; i < items; i++ {
			parents[1+cats+subs+i] = 1 + cats + i/(items/subs)
		}
		tree, err = taxonomy.NewFromParents(parents)
	} else {
		tree, err = taxonomy.Generate(taxonomy.GenConfig{CategoryLevels: []int{cats, subs}, Items: items, Skew: 0.3}, rng)
	}
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.New(tree, 3, model.Params{K: 6, TaxonomyLevels: 3, Alpha: 1, InitStd: 0.05, UseBias: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range tree.Level(1) {
		m.Bias.Row(int(n))[0] = 5
		if i >= cats/2 {
			m.Bias.Row(int(n))[0] = -5
		}
	}
	c := m.Compose()
	c.Index.SetShardItems(512)
	if lo, hi, ok := c.Index.ItemRange(int(tree.Level(1)[1])); ok != contiguous {
		t.Fatalf("contiguous=%v world has level-1 range [%d,%d) contiguous=%v", contiguous, lo, hi, ok)
	}
	q := make([]float64, 6)
	for i := range q {
		q[i] = rng.NormFloat64() * 0.1
	}
	return c, q
}

// Property: a pooled pruned descent that defers its surviving ranges to
// the workers — contiguous ranges through the blocked kernels, interleaved
// ones through gathers — returns the brute-force oracle page at every
// tier, with and without a filter mask.
func TestPrunedDeferredRangesMatchOracle(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	for _, contiguous := range []bool{false, true} {
		c, q := prunedDeferWorld(t, contiguous)
		// the mask leaves mostly eligible blocks below item 2048 and sparse
		// ones above it, so both masked block paths run
		mask := &Filter{DenyNodes: []int32{c.Tree.Level(1)[7]}}
		for i := 0; i < c.NumItems(); i++ {
			if (i < 2048) == (i%5 == 0) {
				mask.ExcludeItems = append(mask.ExcludeItems, int32(i))
			}
		}
		for _, flt := range []*Filter{nil, mask} {
			eligible := eligibleSet(c, flt)
			scores := make(map[int]float64)
			for item, ok := range eligible {
				if ok {
					scores[item] = c.Index.ScoreItem(item, q)
				}
			}
			for _, k := range []int{1, 20} {
				pl := Plan{K: k, Offset: 2, Filter: flt, Pruned: true}
				if !executeAll(t, pool, c, q, pl, rankEligible(scores, k, 2)) {
					t.Fatalf("contiguous=%v filtered=%v k=%d diverged from the oracle", contiguous, flt != nil, k)
				}
			}
		}
	}
}

// The dense fallback (k covers the catalog) must bump the fallback
// counter and leave the page identical to the dense sweep.
func TestPrunedFallbackCounter(t *testing.T) {
	c, q := f32World(t, 5150, 7, 3, 2, 0)
	k := c.NumItems() + 1
	want := serialF64(t, c, q, Plan{K: k}).Items
	before := PruneCounters()
	st := vecmath.NewTopKStream(k)
	var p *Pool
	p.execInto(context.Background(), c, q, Plan{K: k, Pruned: true}, st)
	if after := PruneCounters(); after.Fallbacks <= before.Fallbacks {
		t.Fatal("fallback counter did not advance")
	}
	if got := st.Ranked(); !samePage(want, got) {
		t.Fatalf("fallback page diverged:\nwant %v\ngot  %v", want, got)
	}
}

// Pruned is a naive-only knob: every other strategy must fail validation,
// and a pruned plan in a batch must answer its per-query Execute page.
func TestPrunedPlanValidation(t *testing.T) {
	c, q := f32World(t, 6006, 1, 2, 1, 0)
	cc := UniformCascade(c.Tree.Depth(), 0.5)
	for _, st := range []Strategy{StrategyCascade, StrategyDiversified} {
		pl := Plan{K: 3, Strategy: st, Pruned: true, Cascade: &cc,
			Diversify: &Diversify{MaxPerCategory: 1, CatDepth: 1}}
		if _, err := (*Pool)(nil).Execute(context.Background(), c, q, pl); err == nil {
			t.Fatalf("strategy %v accepted a pruned plan", st)
		}
	}
	pool := NewPool(2)
	defer pool.Close()
	pl := Plan{K: 3, Pruned: true}
	got, err := pool.ExecuteBatch(context.Background(), c, [][]float64{q}, []Plan{pl})
	if err != nil {
		t.Fatal(err)
	}
	want, err := pool.Execute(context.Background(), c, q, pl)
	if err != nil {
		t.Fatal(err)
	}
	if !samePage(want.Items, got[0].Items) {
		t.Fatalf("pruned batch plan diverged:\nwant %v\ngot  %v", want.Items, got[0].Items)
	}
}

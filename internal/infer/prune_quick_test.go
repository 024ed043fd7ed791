package infer

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

// Property: a naive plan — the category sweep, with its checkpoint bail
// to the dense tiers — returns pages byte-identical to the brute-force
// oracle across {serial, Pool} × {f64, int8}, shard sizes, worker
// counts, k, offsets, filters and every tie regime. The tie regimes
// double as the adversarial bound surface: with zeroed factors
// (tieRaw%4 != 0) every ball has radius zero and every category bound
// sits within one bias step of the k-th score, so the sweep must survive
// bounds that barely (or never) clear the threshold.
func TestQuickPrunedMatchesOracle(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	f := func(seed uint16, shardRaw, kRaw, sizeRaw, tieRaw uint8, fltRaw uint16) bool {
		c, q := tierWorld(t, uint64(seed)+811, shardRaw, kRaw, sizeRaw, tieRaw)
		var flt *Filter
		if fltRaw%3 != 0 { // mix unfiltered and filtered sweeps
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
		c, q := tierWorld(t, uint64(seed)+977, shardRaw, kRaw, sizeRaw, tieRaw)
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
// a wide bias margin, so the category sweep provably skips the sibling
// subtrees' categories once the heap fills from the favored one.
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

// On the skewed world the category sweep must both match the
// brute-force page byte-for-byte and actually skip: category and item
// counters advance at every precision tier and fan-out.
func TestPrunedSkewedWorldPrunesAndMatches(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	c, q := prunedSkewedWorld(t)
	scores := make(map[int]float64)
	for item := 0; item < c.NumItems(); item++ {
		scores[item] = c.Index.ScoreItem(item, q)
	}
	want := rankEligible(scores, 10, 0)
	for _, prec := range []model.Precision{model.PrecisionF64, model.PrecisionInt8} {
		for _, workers := range []int{0, 4} {
			before := PruneCounters()
			got, err := pool.Execute(context.Background(), c, q, Plan{K: 10, Precision: prec, MaxWorkers: workers, Pruned: true})
			if err != nil {
				t.Fatal(err)
			}
			after := PruneCounters()
			if !samePage(want, got.Items) {
				t.Fatalf("page diverged (prec=%v workers=%d):\nwant %v\ngot  %v", prec, workers, want, got.Items)
			}
			if after.CategoriesSkipped <= before.CategoriesSkipped {
				t.Fatalf("no categories skipped on skewed world (prec=%v workers=%d)", prec, workers)
			}
			if after.ItemsPruned <= before.ItemsPruned {
				t.Fatalf("no items skipped on skewed world (prec=%v workers=%d)", prec, workers)
			}
			if after.BoundEvals <= before.BoundEvals {
				t.Fatalf("no bounds evaluated (prec=%v workers=%d)", prec, workers)
			}
		}
	}
}

// sweepRangeWorld builds an 8192-item world whose first level-1 subtree
// carries a +5 bias and the other seven −5, so the category sweep passes
// its checkpoint and skips the disfavored seven eighths. With contiguous
// set the taxonomy is built from a parent array whose every subtree spans
// a raw item-id range, so the swept categories take the blocked kernels;
// otherwise generated ids interleave and they gather.
func sweepRangeWorld(t *testing.T, contiguous bool) (*model.Composed, []float64) {
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
		if i >= 1 {
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

// Property: the category sweep — contiguous categories through the
// blocked kernels, interleaved ones through gathers — returns the
// brute-force oracle page on pooled and serial executors, with and
// without a filter mask, and skips the disfavored part of the catalog.
func TestCategorySweepRangesMatchOracle(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	for _, contiguous := range []bool{false, true} {
		c, q := sweepRangeWorld(t, contiguous)
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
				before := PruneCounters()
				pl := Plan{K: k, Offset: 2, Filter: flt}
				if !executeAll(t, pool, c, q, pl, rankEligible(scores, k, 2)) {
					t.Fatalf("contiguous=%v filtered=%v k=%d diverged from the oracle", contiguous, flt != nil, k)
				}
				if after := PruneCounters(); after.ItemsPruned-before.ItemsPruned < int64(c.NumItems()/2) {
					t.Fatalf("contiguous=%v filtered=%v k=%d skipped %d items, want at least half the catalog",
						contiguous, flt != nil, k, after.ItemsPruned-before.ItemsPruned)
				}
			}
		}
	}
}

// On a random-init world the bounds are loose: the checkpoint must bail
// at the first heap fill, bump the fallback counter and leave the page
// identical to the dense f64 sweep at every tier.
func TestPrunedFallbackCounter(t *testing.T) {
	c, q := tierWorld(t, 5150, 7, 3, 2, 0)
	want := serialF64(t, c, q, Plan{K: 5}).Items
	for _, prec := range []model.Precision{model.PrecisionF64, model.PrecisionInt8} {
		before := PruneCounters()
		st := vecmath.NewTopKStream(5)
		var p *Pool
		p.execInto(context.Background(), c, q, Plan{K: 5, Precision: prec}, st)
		if after := PruneCounters(); after.Fallbacks <= before.Fallbacks {
			t.Fatalf("%v: fallback counter did not advance", prec)
		}
		if got := st.Ranked(); !samePage(want, got) {
			t.Fatalf("%v: fallback page diverged:\nwant %v\ngot  %v", prec, want, got)
		}
	}
}

// Pruned is a validated no-op: every strategy accepts it and answers the
// page it answers without it, and a pruned plan in a batch answers its
// per-query Execute page.
func TestPrunedPlanValidation(t *testing.T) {
	c, q := tierWorld(t, 6006, 1, 2, 1, 0)
	cc := UniformCascade(c.Tree.Depth(), 0.5)
	for _, st := range []Strategy{StrategyNaive, StrategyCascade, StrategyDiversified} {
		pl := Plan{K: 3, Strategy: st, Cascade: &cc, Diversify: &Diversify{MaxPerCategory: 1, CatDepth: 1}}
		if st != StrategyCascade {
			pl.Cascade = nil
		}
		if st != StrategyDiversified {
			pl.Diversify = nil
		}
		want, err := (*Pool)(nil).Execute(context.Background(), c, q, pl)
		if err != nil {
			t.Fatal(err)
		}
		pl.Pruned = true
		got, err := (*Pool)(nil).Execute(context.Background(), c, q, pl)
		if err != nil {
			t.Fatalf("strategy %v rejected a pruned plan: %v", st, err)
		}
		if !samePage(want.Items, got.Items) {
			t.Fatalf("strategy %v: pruned page diverged:\nwant %v\ngot  %v", st, want.Items, got.Items)
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

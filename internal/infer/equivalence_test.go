package infer

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

// The reference implementations below are the pre-index full-scan paths
// (materialize a catalog-sized []Scored, rank it, then select). The
// streaming index-backed rewrites must reproduce their rankings exactly,
// including tie-breaks.

func legacyNaive(c *model.Composed, q []float64, k int) []vecmath.Scored {
	scores := make([]vecmath.Scored, c.NumItems())
	for item := 0; item < c.NumItems(); item++ {
		scores[item] = vecmath.Scored{ID: item, Score: legacyNodeScore(c, q, c.Tree.ItemNode(item))}
	}
	return vecmath.TopK(scores, k)
}

func legacyNodeScore(c *model.Composed, q []float64, node int) float64 {
	s := vecmath.Dot(q, c.EffNode.Row(node))
	if c.P.UseBias {
		s += c.EffBias.Row(node)[0]
	}
	return s
}

func legacyCascade(c *model.Composed, q []float64, cfg CascadeConfig, k int) ([]vecmath.Scored, *Stats, error) {
	tree := c.Tree
	if err := cfg.Validate(tree.Depth()); err != nil {
		return nil, nil, err
	}
	stats := &Stats{}
	frontier := append([]int32(nil), tree.Level(1)...)
	for d := 1; d < tree.Depth(); d++ {
		scored := make([]vecmath.Scored, len(frontier))
		for i, node := range frontier {
			scored[i] = vecmath.Scored{ID: int(node), Score: legacyNodeScore(c, q, int(node))}
		}
		stats.NodesScored += len(scored)
		levelSize := len(tree.Level(d))
		keep := int(math.Ceil(cfg.KeepFrac[d-1] * float64(levelSize)))
		if keep < 1 {
			keep = 1
		}
		top := vecmath.TopK(scored, keep)
		stats.KeptPerLevel = append(stats.KeptPerLevel, len(top))
		frontier = frontier[:0]
		for _, s := range top {
			frontier = append(frontier, tree.Children(s.ID)...)
		}
	}
	candidates := make([]vecmath.Scored, len(frontier))
	for i, leaf := range frontier {
		candidates[i] = vecmath.Scored{ID: tree.NodeItem(int(leaf)), Score: legacyNodeScore(c, q, int(leaf))}
	}
	stats.NodesScored += len(frontier)
	stats.LeavesScored = len(frontier)
	return vecmath.TopK(candidates, k), stats, nil
}

func legacyDiversified(c *model.Composed, q []float64, k, maxPerCategory, catDepth int) []vecmath.Scored {
	return legacyDiversifiedWhere(c, q, k, maxPerCategory, catDepth, nil)
}

// legacyDiversifiedWhere is legacyDiversified over the items eligible
// admits (nil admits every item): the full-scan greedy quota walk with
// ineligible items dropped before they can take a pick or a quota slot.
func legacyDiversifiedWhere(c *model.Composed, q []float64, k, maxPerCategory, catDepth int, eligible func(item int) bool) []vecmath.Scored {
	all := legacyNaive(c, q, c.NumItems())
	quota := make(map[int]int)
	out := make([]vecmath.Scored, 0, k)
	for _, s := range all {
		if len(out) == k {
			break
		}
		if eligible != nil && !eligible(s.ID) {
			continue
		}
		cat := c.Tree.AncestorAtDepth(c.Tree.ItemNode(s.ID), catDepth)
		if quota[cat] >= maxPerCategory {
			continue
		}
		quota[cat]++
		out = append(out, s)
	}
	return out
}

func assertSameRanking(t *testing.T, name string, got, want []vecmath.Scored) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d vs %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("%s rank %d: id %d vs %d", name, i, got[i].ID, want[i].ID)
		}
		if math.Abs(got[i].Score-want[i].Score) > 1e-12 {
			t.Fatalf("%s rank %d: score %v vs %v", name, i, got[i].Score, want[i].Score)
		}
	}
}

// tiedComposed builds a snapshot whose items produce many exactly equal
// scores (quantized factors), exercising deterministic tie-breaking.
func tiedComposed(t *testing.T, useBias bool) *model.Composed {
	t.Helper()
	tree := taxonomy.MustGenerate(taxonomy.GenConfig{
		CategoryLevels: []int{4, 12, 36},
		Items:          400,
		Skew:           0.4,
	}, vecmath.NewRNG(3))
	m, err := model.New(tree, 10, model.Params{K: 8, TaxonomyLevels: 4, InitStd: 0.3, Alpha: 1, UseBias: useBias}, vecmath.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	// quantize every offset so distinct items collide on scores
	for _, mat := range []*vecmath.Matrix{m.Node, m.Bias} {
		data := mat.Data()
		for i, v := range data {
			data[i] = math.Round(v*2) / 2
		}
	}
	return m.Compose()
}

func TestNaiveMatchesLegacyFullScan(t *testing.T) {
	for _, useBias := range []bool{false, true} {
		c := tiedComposed(t, useBias)
		q := query(c.K())
		for _, k := range []int{1, 10, 137, c.NumItems(), c.NumItems() + 5} {
			assertSameRanking(t, "naive", serialF64(t, c, q, Plan{K: k}).Items, legacyNaive(c, q, k))
		}
	}
}

func TestCascadeMatchesLegacy(t *testing.T) {
	for _, useBias := range []bool{false, true} {
		c := tiedComposed(t, useBias)
		q := query(c.K())
		for _, f := range []float64{0.1, 0.3, 0.5, 1.0} {
			cfg := UniformCascade(c.Tree.Depth(), f)
			res := serialF64(t, c, q, Plan{Strategy: StrategyCascade, K: 25, Cascade: &cfg})
			got, gotStats := res.Items, res.Stats
			want, wantStats, err := legacyCascade(c, q, cfg, 25)
			if err != nil {
				t.Fatal(err)
			}
			assertSameRanking(t, "cascade", got, want)
			if gotStats.NodesScored != wantStats.NodesScored ||
				gotStats.LeavesScored != wantStats.LeavesScored {
				t.Fatalf("f=%v stats differ: %+v vs %+v", f, gotStats, wantStats)
			}
			for i := range wantStats.KeptPerLevel {
				if gotStats.KeptPerLevel[i] != wantStats.KeptPerLevel[i] {
					t.Fatalf("f=%v kept[%d] %d vs %d", f, i, gotStats.KeptPerLevel[i], wantStats.KeptPerLevel[i])
				}
			}
		}
	}
}

func TestCascadeScoresMatchesLegacyReachability(t *testing.T) {
	c := tiedComposed(t, false)
	q := query(c.K())
	cfg := UniformCascade(c.Tree.Depth(), 0.4)
	scores, _, err := CascadeScores(c, q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// reached set and scores must agree with the legacy walk's frontier
	_, wantStats, err := legacyCascade(c, q, cfg, c.NumItems())
	if err != nil {
		t.Fatal(err)
	}
	reached := 0
	for item, s := range scores {
		if math.IsInf(s, -1) {
			continue
		}
		reached++
		want := legacyNodeScore(c, q, c.Tree.ItemNode(item))
		if math.Abs(s-want) > 1e-12 {
			t.Fatalf("item %d: %v vs %v", item, s, want)
		}
	}
	if reached != wantStats.LeavesScored {
		t.Fatalf("reached %d vs legacy %d", reached, wantStats.LeavesScored)
	}
}

func TestDiversifiedMatchesLegacyGreedy(t *testing.T) {
	for _, useBias := range []bool{false, true} {
		c := tiedComposed(t, useBias)
		q := query(c.K())
		for _, maxPer := range []int{1, 2, 5, 1 << 30} {
			for _, depth := range []int{1, 2, c.Tree.Depth() - 1} {
				for _, k := range []int{1, 8, 30} {
					got := serialF64(t, c, q, Plan{Strategy: StrategyDiversified, K: k,
						Diversify: &Diversify{MaxPerCategory: maxPer, CatDepth: depth}}).Items
					want := legacyDiversified(c, q, k, maxPer, depth)
					assertSameRanking(t, "diversified", got, want)
				}
			}
		}
	}
}

// Plan validation rejects K=0, but the engines must still treat an
// empty collector as an empty ranking, as the full scan does; execInto
// runs them without the validation step.
func TestZeroKMatchesLegacyEmptyResult(t *testing.T) {
	c := tiedComposed(t, false)
	q := query(c.K())
	cfg := UniformCascade(c.Tree.Depth(), 0.5)
	for _, pl := range []Plan{{}, {Strategy: StrategyCascade, Cascade: &cfg}} {
		res, err := (*Pool)(nil).execInto(context.Background(), c, q, pl, vecmath.NewTopKStream(0))
		if err != nil {
			t.Fatal(err)
		}
		assertSameRanking(t, pl.Strategy.String()+" k=0", res.Items, legacyNaive(c, q, 0))
	}
}

func TestNaiveIntoReusesCollector(t *testing.T) {
	c := tiedComposed(t, false)
	q := query(c.K())
	pl := Plan{K: 12, Precision: model.PrecisionF64}
	st := vecmath.NewTopKStream(12)
	ranked := func() []vecmath.Scored {
		res, err := ExecuteInto(context.Background(), c, q, pl, st)
		if err != nil {
			t.Fatal(err)
		}
		return res.Items
	}
	first := append([]vecmath.Scored(nil), ranked()...)
	assertSameRanking(t, "executeinto-reuse", ranked(), first)
	assertSameRanking(t, "executeinto-vs-fullscan", first, legacyNaive(c, q, 12))
}

// refetchComposed builds a world whose ranking is led by two categories:
// every item under the first two depth-2 nodes outscores the rest of the
// catalog, so a quota at depth 2 has to skip a few hundred items before
// it can fill a page, and a quota at depth 1 (four categories) admits
// fewer items in total than a page of ten holds.
func refetchComposed(t *testing.T) *model.Composed {
	t.Helper()
	tree := taxonomy.MustGenerate(taxonomy.GenConfig{
		CategoryLevels: []int{4, 16, 64},
		Items:          2000,
		Skew:           0.4,
	}, vecmath.NewRNG(17))
	m, err := model.New(tree, 4, model.Params{K: 8, TaxonomyLevels: 4, InitStd: 0.3, Alpha: 1, UseBias: true}, vecmath.NewRNG(19))
	if err != nil {
		t.Fatal(err)
	}
	m.Bias.Row(int(tree.Level(2)[0]))[0] = 50
	m.Bias.Row(int(tree.Level(2)[1]))[0] = 40
	c := m.Compose()
	c.Index.SetShardItems(128)
	return c
}

// refetchFilters are the filter shapes the re-fetch matrix runs: none,
// category allow/deny, item exclusion, and a shard-style catalog range.
func refetchFilters(c *model.Composed) map[string]*Filter {
	tree := c.Tree
	var excl []int32
	for item := 0; item < c.NumItems(); item += 3 {
		excl = append(excl, int32(item))
	}
	return map[string]*Filter{
		"none":       nil,
		"allow/deny": {AllowNodes: []int32{tree.Level(1)[0], tree.Level(1)[2]}, DenyNodes: []int32{tree.Level(3)[0]}},
		"exclude":    {ExcludeItems: excl},
		"range":      {RangeLo: 300, RangeHi: 1700},
	}
}

// eligibleWhere is the slow-path eligibility predicate of f, range
// included.
func eligibleWhere(c *model.Composed, f *Filter) func(item int) bool {
	set := eligibleSet(c, f)
	return func(item int) bool {
		return set[item] && (!f.Ranged() || (item >= f.RangeLo && item < f.RangeHi))
	}
}

// pageOf cuts the [offset, offset+k) page out of a ranked slice.
func pageOf(ranked []vecmath.Scored, k, offset int) []vecmath.Scored {
	if offset >= len(ranked) {
		return nil
	}
	ranked = ranked[offset:]
	if k < len(ranked) {
		ranked = ranked[:k]
	}
	return ranked
}

// On the re-fetch world, diversified and cascade plans must equal the
// full-scan references at every precision × filter × fan-out × page cell
// — byte-identical to the serial f64 plan and ID-identical to the legacy
// walk. The depth-2 quota's first prefix runs dry and must double; the
// depth-1 quota admits fewer than K items, so the prefix doubles until it
// covers every eligible item and the page comes back short.
func TestDiversifiedRefetchMatchesLegacy(t *testing.T) {
	c := refetchComposed(t)
	q := query(c.K())
	pool := NewPool(4)
	defer pool.Close()
	cfg := UniformCascade(c.Tree.Depth(), 0.3)
	const k = 10
	before := DiversifyRefetches()
	for name, f := range refetchFilters(c) {
		eligible := eligibleWhere(c, f)
		reached, _, err := legacyCascade(c, q, cfg, c.NumItems())
		if err != nil {
			t.Fatal(err)
		}
		var reachedEligible []vecmath.Scored
		for _, s := range reached {
			if eligible(s.ID) {
				reachedEligible = append(reachedEligible, s)
			}
		}
		for _, offset := range []int{0, 20} {
			var plans []Plan
			var wants [][]vecmath.Scored
			for _, d := range []Diversify{{MaxPerCategory: 2, CatDepth: 2}, {MaxPerCategory: 2, CatDepth: 1}} {
				d := d
				plans = append(plans, Plan{Strategy: StrategyDiversified, K: k, Offset: offset, Diversify: &d, Filter: f})
				wants = append(wants, pageOf(legacyDiversifiedWhere(c, q, k+offset, d.MaxPerCategory, d.CatDepth, eligible), k, offset))
			}
			plans = append(plans, Plan{Strategy: StrategyCascade, K: k, Offset: offset, Cascade: &cfg, Filter: f})
			wants = append(wants, pageOf(reachedEligible, k, offset))
			for i, pl := range plans {
				ref := serialF64(t, c, q, pl)
				cell := fmt.Sprintf("%s/%v/offset=%d/plan=%d", name, pl.Strategy, offset, i)
				assertSameRanking(t, cell, ref.Items, wants[i])
				if pl.Strategy == StrategyCascade && ref.Stats.LeavesScored != len(reachedEligible) {
					t.Fatalf("%s: %d leaves scored, want %d eligible reached", cell, ref.Stats.LeavesScored, len(reachedEligible))
				}
				for _, prec := range []model.Precision{model.PrecisionF64, model.PrecisionInt8} {
					for _, workers := range []int{1, 2, 4} {
						pl.Precision, pl.MaxWorkers = prec, workers
						got, err := pool.Execute(context.Background(), c, q, pl)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got.Items, ref.Items) || !reflect.DeepEqual(got.Stats, ref.Stats) {
							t.Fatalf("%s %v workers=%d diverged:\nwant %v\ngot  %v", cell, prec, workers, ref.Items, got.Items)
						}
					}
				}
			}
		}
	}
	// the depth-1 quota caps the unfiltered page below K
	d := Diversify{MaxPerCategory: 2, CatDepth: 1}
	if n := len(serialF64(t, c, q, Plan{Strategy: StrategyDiversified, K: k, Diversify: &d}).Items); n != 8 {
		t.Fatalf("4 categories x quota 2 returned %d items, want 8", n)
	}
	if DiversifyRefetches() == before {
		t.Fatal("re-fetch world never re-fetched a diversified prefix")
	}
}

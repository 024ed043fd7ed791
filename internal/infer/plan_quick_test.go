package infer

import (
	"context"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/vecmath"
)

// randomFilter derives a filter from the raw quick-check bytes: allow and
// deny nodes drawn from random taxonomy levels plus a pseudo-random item
// exclusion set. Roughly a quarter of draws produce an empty filter so the
// unfiltered path stays covered.
func randomFilter(c *model.Composed, fltRaw uint16) *Filter {
	if fltRaw%4 == 0 {
		return nil
	}
	tree := c.Tree
	f := &Filter{}
	pick := func(seed uint32) int32 {
		d := 1 + int(seed)%(tree.Depth()) // any depth below the root, leaves included
		level := tree.Level(d)
		return level[int(seed>>3)%len(level)]
	}
	if fltRaw%3 != 0 {
		f.AllowNodes = append(f.AllowNodes, pick(uint32(fltRaw)*2654435761))
		if fltRaw%5 == 0 {
			f.AllowNodes = append(f.AllowNodes, pick(uint32(fltRaw)*40503+7))
		}
	}
	if fltRaw%2 == 0 {
		f.DenyNodes = append(f.DenyNodes, pick(uint32(fltRaw)*97+13))
	}
	step := 1 + int(fltRaw)%7
	for item := int(fltRaw) % step; item < tree.NumItems(); item += step * 3 {
		f.ExcludeItems = append(f.ExcludeItems, int32(item))
	}
	return f
}

// eligibleSet replays the filter semantics the slow way: ancestor-path
// membership checks per item, no index machinery.
func eligibleSet(c *model.Composed, f *Filter) map[int]bool {
	tree := c.Tree
	underAny := func(item int, nodes []int32) bool {
		for cur := tree.ItemNode(item); ; cur = tree.Parent(cur) {
			for _, n := range nodes {
				if int(n) == cur {
					return true
				}
			}
			if cur == tree.Root() {
				return false
			}
		}
	}
	out := make(map[int]bool)
	for item := 0; item < tree.NumItems(); item++ {
		ok := true
		if f != nil {
			if len(f.AllowNodes) > 0 && !underAny(item, f.AllowNodes) {
				ok = false
			}
			if ok && len(f.DenyNodes) > 0 && underAny(item, f.DenyNodes) {
				ok = false
			}
		}
		out[item] = ok
	}
	if f != nil {
		for _, it := range f.ExcludeItems {
			out[int(it)] = false
		}
	}
	return out
}

// rankEligible sorts the given (item, score) universe under the executor's
// total order and returns the [offset, offset+k) page.
func rankEligible(scores map[int]float64, k, offset int) []vecmath.Scored {
	all := make([]vecmath.Scored, 0, len(scores))
	for item, s := range scores {
		all = append(all, vecmath.Scored{ID: item, Score: s})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].ID < all[j].ID
	})
	if offset >= len(all) {
		return []vecmath.Scored{}
	}
	all = all[offset:]
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// samePage compares a brute-force page with an executed one, treating
// nil/empty interchangeably.
func samePage(want, got []vecmath.Scored) bool {
	if len(want) != len(got) {
		return false
	}
	for i := range want {
		if want[i] != got[i] {
			return false
		}
	}
	return true
}

// executeAll runs one plan across {serial, Pool} × {f64, f32, int8} and
// reports whether every combination produced the identical page.
func executeAll(t *testing.T, pool *Pool, c *model.Composed, q []float64, pl Plan, want []vecmath.Scored) bool {
	t.Helper()
	for _, prec := range []model.Precision{model.PrecisionF64, model.PrecisionF32, model.PrecisionInt8} {
		for _, p := range []*Pool{nil, pool} {
			pl.Precision = prec
			res, err := p.Execute(context.Background(), c, q, pl)
			if err != nil {
				t.Logf("execute (%v, pool=%v): %v", prec, p != nil, err)
				return false
			}
			if !samePage(want, res.Items) {
				t.Logf("plan diverged (%v, pool=%v, strategy=%v):\nwant %v\ngot  %v",
					prec, p != nil, pl.Strategy, want, res.Items)
				return false
			}
		}
	}
	return true
}

// Property: a filtered naive plan equals the brute-force filter-then-rank
// oracle, byte-identically, across {serial, Pool} × {f64, f32}, shard
// sizes, offsets and every tie regime.
func TestQuickFilteredNaivePlanMatchesOracle(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	f := func(seed uint16, shardRaw, kRaw, sizeRaw, tieRaw uint8, fltRaw uint16) bool {
		c, q := f32World(t, uint64(seed)+307, shardRaw, kRaw, sizeRaw, tieRaw)
		flt := randomFilter(c, fltRaw)
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
		pl := Plan{K: k, Offset: offset, Filter: flt}
		if !executeAll(t, pool, c, q, pl, want) {
			return false
		}
		// the executor must also report the oracle's eligible count
		res, err := pool.Execute(context.Background(), c, q, pl)
		if err != nil || res.Eligible != len(scores) {
			t.Logf("eligible count %d, oracle %d (err %v)", res.Eligible, len(scores), err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: a filtered diversified plan equals the greedy score-ordered
// quota oracle across all four execution modes.
func TestQuickFilteredDiversifiedPlanMatchesOracle(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	f := func(seed uint16, shardRaw, kRaw, sizeRaw, tieRaw uint8, fltRaw uint16) bool {
		c, q := f32World(t, uint64(seed)+409, shardRaw, kRaw, sizeRaw, tieRaw)
		flt := randomFilter(c, fltRaw)
		eligible := eligibleSet(c, flt)
		k := 1 + int(kRaw)%10
		offset := int(fltRaw>>10) % 4
		maxPer := 1 + int(tieRaw)%4
		catDepth := 1 + int(fltRaw)%(c.Tree.Depth()-1)
		// greedy oracle: walk eligible items in rank order, honoring the
		// per-category quota, collect k+offset picks, drop the first offset
		all := []vecmath.Scored{}
		for item, ok := range eligible {
			if ok {
				all = append(all, vecmath.Scored{ID: item, Score: c.Index.ScoreItem(item, q)})
			}
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].Score != all[j].Score {
				return all[i].Score > all[j].Score
			}
			return all[i].ID < all[j].ID
		})
		taken := map[int]int{}
		var picks []vecmath.Scored
		for _, s := range all {
			if len(picks) == k+offset {
				break
			}
			cat := c.Index.ItemCategory(s.ID, catDepth)
			if taken[cat] >= maxPer {
				continue
			}
			taken[cat]++
			picks = append(picks, s)
		}
		if offset >= len(picks) {
			picks = []vecmath.Scored{}
		} else {
			picks = picks[offset:]
		}
		pl := Plan{
			Strategy:  StrategyDiversified,
			K:         k,
			Offset:    offset,
			Diversify: &Diversify{MaxPerCategory: maxPer, CatDepth: catDepth},
			Filter:    flt,
		}
		return executeAll(t, pool, c, q, pl, picks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: a filtered cascade plan ranks exactly the eligible reached
// leaves — CascadeScores' reachability filtered then ranked — across all
// four execution modes, with Stats counting only eligible leaves.
func TestQuickFilteredCascadePlanMatchesOracle(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	f := func(seed uint16, shardRaw, kRaw, sizeRaw, tieRaw uint8, fltRaw uint16) bool {
		c, q := f32World(t, uint64(seed)+511, shardRaw, kRaw, sizeRaw, tieRaw)
		flt := randomFilter(c, fltRaw)
		eligible := eligibleSet(c, flt)
		cfg := UniformCascade(c.Tree.Depth(), 0.2+float64(tieRaw%8)/10)
		full, _, err := CascadeScores(c, q, cfg)
		if err != nil {
			return false
		}
		scores := make(map[int]float64)
		for item, s := range full {
			if eligible[item] && !math.IsInf(s, -1) {
				scores[item] = s
			}
		}
		k := 1 + int(kRaw)%12
		offset := int(fltRaw>>9) % 4
		want := rankEligible(scores, k, offset)
		pl := Plan{Strategy: StrategyCascade, K: k, Offset: offset, Cascade: &cfg, Filter: flt}
		if !executeAll(t, pool, c, q, pl, want) {
			return false
		}
		res, err := pool.Execute(context.Background(), c, q, pl)
		if err != nil || res.Stats == nil || res.Stats.LeavesScored != len(scores) {
			t.Logf("cascade stats %+v, want %d eligible leaves (err %v)", res.Stats, len(scores), err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// ExecuteBatch must hand every plan of a batch exactly its per-query
// Execute page — filtered and mixed-precision plans included.
func TestExecuteBatchMatchesPerQuery(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()
	c, base := f32World(t, 131, 17, 4, 2, 0)
	rng := vecmath.NewRNG(977)
	qs := make([][]float64, 5)
	pls := make([]Plan, 5)
	for i := range qs {
		qs[i] = append([]float64(nil), base...)
		for j := range qs[i] {
			qs[i][j] += rng.NormFloat64() * 1e-3
		}
		pls[i] = Plan{K: 3 + i, Offset: i % 3}
	}
	for _, p := range []*Pool{nil, pool} {
		results, err := p.ExecuteBatch(context.Background(), c, qs, pls)
		if err != nil {
			t.Fatal(err)
		}
		for i := range results {
			want, err := p.Execute(context.Background(), c, qs[i], pls[i])
			if err != nil {
				t.Fatal(err)
			}
			if !samePage(want.Items, results[i].Items) {
				t.Fatalf("batch query %d diverged", i)
			}
		}
	}
	mixed := append([]Plan(nil), pls...)
	mixed[2].Filter = &Filter{ExcludeItems: []int32{0}}
	mixed[1].Precision = model.PrecisionF64
	results, err := pool.ExecuteBatch(context.Background(), c, qs, mixed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		want, err := pool.Execute(context.Background(), c, qs[i], mixed[i])
		if err != nil {
			t.Fatal(err)
		}
		if !samePage(want.Items, results[i].Items) || want.Eligible != results[i].Eligible {
			t.Fatalf("filtered/mixed-precision batch query %d diverged", i)
		}
	}
}

// Plan validation must reject malformed plans with descriptive errors and
// leave K-larger-than-catalog to heap semantics (the serve boundary owns
// that limit).
func TestPlanValidation(t *testing.T) {
	c, q := f32World(t, 151, 11, 3, 1, 0)
	for name, pl := range map[string]Plan{
		"zero k":            {K: 0},
		"negative k":        {K: -7},
		"negative offset":   {K: 5, Offset: -1},
		"k+offset overflow": {K: math.MaxInt64 / 2, Offset: math.MaxInt64/2 + 2},
		"negative workers":  {K: 5, MaxWorkers: -2},
		"cascade no cfg":    {Strategy: StrategyCascade, K: 5},
		"diversify no cfg":  {Strategy: StrategyDiversified, K: 5},
		"bad quota":         {Strategy: StrategyDiversified, K: 5, Diversify: &Diversify{MaxPerCategory: 0}},
		"bad cat depth":     {Strategy: StrategyDiversified, K: 5, Diversify: &Diversify{MaxPerCategory: 1, CatDepth: 99}},
		"unknown strategy":  {Strategy: Strategy(9), K: 5},
		"bad allow node":    {K: 5, Filter: &Filter{AllowNodes: []int32{int32(c.Tree.NumNodes())}}},
		"bad deny node":     {K: 5, Filter: &Filter{DenyNodes: []int32{-1}}},
		"bad exclude item":  {K: 5, Filter: &Filter{ExcludeItems: []int32{int32(c.NumItems())}}},
	} {
		if _, err := Execute(context.Background(), c, q, pl); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	res, err := Execute(context.Background(), c, q, Plan{K: c.NumItems() + 10})
	if err != nil {
		t.Fatalf("k beyond catalog must use heap semantics at this layer: %v", err)
	}
	if len(res.Items) != c.NumItems() {
		t.Fatalf("over-catalog k returned %d items", len(res.Items))
	}
	// everything-excluded filter yields an empty page, not an error
	res, err = Execute(context.Background(), c, q, Plan{K: 3, Filter: &Filter{DenyNodes: []int32{int32(c.Tree.Root())}}})
	if err != nil || len(res.Items) != 0 || res.Eligible != 0 {
		t.Fatalf("deny-all: items %d eligible %d err %v", len(res.Items), res.Eligible, err)
	}
}

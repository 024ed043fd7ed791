package infer

import (
	"context"
	"testing"
)

func TestDiversifiedRespectsQuota(t *testing.T) {
	c := composed(t)
	q := query(c.K())
	catDepth := c.Tree.Depth() - 1
	out := serialF64(t, c, q, Plan{Strategy: StrategyDiversified, K: 20,
		Diversify: &Diversify{MaxPerCategory: 2, CatDepth: catDepth}}).Items
	if len(out) != 20 {
		t.Fatalf("got %d items", len(out))
	}
	counts := map[int]int{}
	for _, s := range out {
		cat := c.Tree.AncestorAtDepth(c.Tree.ItemNode(s.ID), catDepth)
		counts[cat]++
		if counts[cat] > 2 {
			t.Fatalf("category %d exceeded quota", cat)
		}
	}
	// scores still descending
	for i := 1; i < len(out); i++ {
		if out[i].Score > out[i-1].Score {
			t.Fatal("diversified list must stay score-ordered")
		}
	}
}

func TestDiversifiedUnlimitedQuotaEqualsNaive(t *testing.T) {
	c := composed(t)
	q := query(c.K())
	out := serialF64(t, c, q, Plan{Strategy: StrategyDiversified, K: 15,
		Diversify: &Diversify{MaxPerCategory: 1 << 30, CatDepth: 1}}).Items
	naive := serialF64(t, c, q, Plan{K: 15}).Items
	for i := range naive {
		if out[i].ID != naive[i].ID {
			t.Fatal("huge quota must reduce to the plain ranking")
		}
	}
}

func TestDiversifiedCoversMoreCategories(t *testing.T) {
	c := composed(t)
	q := query(c.K())
	catDepth := c.Tree.Depth() - 1
	countCats := func(ids []int) int {
		set := map[int]bool{}
		for _, id := range ids {
			set[c.Tree.AncestorAtDepth(c.Tree.ItemNode(id), catDepth)] = true
		}
		return len(set)
	}
	naive := serialF64(t, c, q, Plan{K: 20}).Items
	div := serialF64(t, c, q, Plan{Strategy: StrategyDiversified, K: 20,
		Diversify: &Diversify{MaxPerCategory: 1, CatDepth: catDepth}}).Items
	var naiveIDs, divIDs []int
	for _, s := range naive {
		naiveIDs = append(naiveIDs, s.ID)
	}
	for _, s := range div {
		divIDs = append(divIDs, s.ID)
	}
	if countCats(divIDs) < countCats(naiveIDs) {
		t.Fatalf("diversified list covers %d categories, naive %d", countCats(divIDs), countCats(naiveIDs))
	}
	if countCats(divIDs) != len(divIDs) {
		t.Fatalf("quota 1 must give all-distinct categories, got %d of %d", countCats(divIDs), len(divIDs))
	}
}

func TestDiversifiedValidation(t *testing.T) {
	c := composed(t)
	q := query(c.K())
	// CatDepth 0 is the plan's "lowest category level" default, so the
	// out-of-range depths below the first level are the negative ones
	for want, d := range map[string]Diversify{
		"quota 0":                {MaxPerCategory: 0, CatDepth: 1},
		"negative catDepth":      {MaxPerCategory: 1, CatDepth: -1},
		"catDepth == leaf depth": {MaxPerCategory: 1, CatDepth: c.Tree.Depth()},
	} {
		pl := Plan{Strategy: StrategyDiversified, K: 5, Diversify: &d}
		if _, err := Execute(context.Background(), c, q, pl); err == nil {
			t.Fatalf("expected error for %s", want)
		}
	}
}

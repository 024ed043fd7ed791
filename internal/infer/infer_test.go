package infer

import (
	"context"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

func composed(t *testing.T) *model.Composed {
	t.Helper()
	tree := taxonomy.MustGenerate(taxonomy.GenConfig{
		CategoryLevels: []int{4, 12, 36},
		Items:          400,
		Skew:           0.4,
	}, vecmath.NewRNG(3))
	m, err := model.New(tree, 10, model.Params{K: 8, TaxonomyLevels: 4, InitStd: 0.3, Alpha: 1}, vecmath.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	return m.Compose()
}

func query(k int) []float64 {
	q := make([]float64, k)
	rng := vecmath.NewRNG(11)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	return q
}

// serialF64 runs pl as a serial f64 plan — the plain exact sweep — and
// returns its result: the bitwise reference every faster precision tier,
// fan-out and batch shape must reproduce, tie-breaks included.
func serialF64(t *testing.T, c *model.Composed, q []float64, pl Plan) Result {
	t.Helper()
	pl.Precision, pl.MaxWorkers = model.PrecisionF64, 1
	res, err := Execute(context.Background(), c, q, pl)
	if err != nil {
		t.Fatalf("serial f64 %v plan: %v", pl.Strategy, err)
	}
	return res
}

func TestNaiveTopKOrdering(t *testing.T) {
	c := composed(t)
	q := query(c.K())
	top := serialF64(t, c, q, Plan{K: 10}).Items
	if len(top) != 10 {
		t.Fatalf("len = %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Score > top[i-1].Score {
			t.Fatal("not sorted descending")
		}
	}
	// the best item must truly be the argmax
	best := top[0]
	for item := 0; item < c.NumItems(); item++ {
		if s := vecmath.Dot(q, c.ItemFactor(item)); s > best.Score {
			t.Fatalf("item %d scores %v above reported best %v", item, s, best.Score)
		}
	}
}

func TestCascadeFullKeepMatchesNaive(t *testing.T) {
	c := composed(t)
	q := query(c.K())
	cfg := UniformCascade(c.Tree.Depth(), 1.0)
	casc := serialF64(t, c, q, Plan{Strategy: StrategyCascade, K: 20, Cascade: &cfg})
	cascTop, stats := casc.Items, casc.Stats
	naiveTop := serialF64(t, c, q, Plan{K: 20}).Items
	if len(cascTop) != len(naiveTop) {
		t.Fatalf("lengths differ: %d vs %d", len(cascTop), len(naiveTop))
	}
	for i := range naiveTop {
		if cascTop[i].ID != naiveTop[i].ID {
			t.Fatalf("rank %d: cascade %v vs naive %v", i, cascTop[i], naiveTop[i])
		}
		if math.Abs(cascTop[i].Score-naiveTop[i].Score) > 1e-12 {
			t.Fatalf("rank %d scores differ", i)
		}
	}
	if stats.LeavesScored != c.NumItems() {
		t.Fatalf("full keep should score all leaves, got %d", stats.LeavesScored)
	}
}

func TestCascadePrunesWork(t *testing.T) {
	c := composed(t)
	q := query(c.K())
	full, _, err := CascadeScores(c, q, UniformCascade(c.Tree.Depth(), 1.0))
	if err != nil {
		t.Fatal(err)
	}
	fullCfg, smallCfg := UniformCascade(c.Tree.Depth(), 1.0), UniformCascade(c.Tree.Depth(), 0.2)
	statsFull := serialF64(t, c, q, Plan{Strategy: StrategyCascade, K: 10, Cascade: &fullCfg}).Stats
	statsSmall := serialF64(t, c, q, Plan{Strategy: StrategyCascade, K: 10, Cascade: &smallCfg}).Stats
	if statsSmall.NodesScored >= statsFull.NodesScored {
		t.Fatalf("k=20%% should do less work: %d vs %d", statsSmall.NodesScored, statsFull.NodesScored)
	}
	if statsSmall.LeavesScored >= statsFull.LeavesScored {
		t.Fatal("k=20% should score fewer leaves")
	}
	_ = full
}

func TestCascadeScoresMatchNaiveOnReachedItems(t *testing.T) {
	c := composed(t)
	q := query(c.K())
	scores, stats, err := CascadeScores(c, q, UniformCascade(c.Tree.Depth(), 0.5))
	if err != nil {
		t.Fatal(err)
	}
	reached := 0
	for item, s := range scores {
		if math.IsInf(s, -1) {
			continue
		}
		reached++
		want := vecmath.Dot(q, c.ItemFactor(item))
		if math.Abs(s-want) > 1e-12 {
			t.Fatalf("item %d: cascade score %v vs direct %v", item, s, want)
		}
	}
	if reached != stats.LeavesScored {
		t.Fatalf("reached %d != LeavesScored %d", reached, stats.LeavesScored)
	}
}

func TestCascadeMonotoneCandidates(t *testing.T) {
	// growing the leaf-level keep (holding upper levels at 100%) must only
	// add candidates — the Figure 8(d) monotonicity argument.
	c := composed(t)
	q := query(c.K())
	depth := c.Tree.Depth()
	prevReached := -1
	for _, k3 := range []float64{0.1, 0.3, 0.6, 1.0} {
		cfg := UniformCascade(depth, 1.0)
		cfg.KeepFrac[depth-2] = k3
		stats := serialF64(t, c, q, Plan{Strategy: StrategyCascade, K: 10, Cascade: &cfg}).Stats
		if stats.LeavesScored < prevReached {
			t.Fatalf("candidate set shrank as k3 grew: %d -> %d", prevReached, stats.LeavesScored)
		}
		prevReached = stats.LeavesScored
	}
}

func TestCascadeBeamContainsTopCategoriesChildren(t *testing.T) {
	c := composed(t)
	q := query(c.K())
	cfg := UniformCascade(c.Tree.Depth(), 0.5)
	scores, _, err := CascadeScores(c, q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// the best top-level category's best leaf item must be reachable
	best := c.LevelScores(q, 1)
	top := vecmath.TopK(best, 1)[0]
	found := false
	for item := 0; item < c.NumItems(); item++ {
		if c.Tree.AncestorAtDepth(c.Tree.ItemNode(item), 1) == top.ID && !math.IsInf(scores[item], -1) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no leaf under the best top-level category was scored")
	}
}

func TestCascadeConfigValidation(t *testing.T) {
	c := composed(t)
	q := query(c.K())
	for want, kf := range map[string][]float64{
		"length error":        {0.5},
		"range error for 0":   {0.5, 0, 0.5},
		"range error for > 1": {0.5, 1.5, 0.5},
	} {
		pl := Plan{Strategy: StrategyCascade, K: 5, Cascade: &CascadeConfig{KeepFrac: kf}}
		if _, err := Execute(context.Background(), c, q, pl); err == nil {
			t.Fatalf("expected %s", want)
		}
	}
}

func TestCascadeKeepsAtLeastOneNodePerLevel(t *testing.T) {
	c := composed(t)
	q := query(c.K())
	cfg := UniformCascade(c.Tree.Depth(), 0.001)
	stats := serialF64(t, c, q, Plan{Strategy: StrategyCascade, K: 5, Cascade: &cfg}).Stats
	for lvl, kept := range stats.KeptPerLevel {
		if kept < 1 {
			t.Fatalf("level %d kept %d nodes", lvl, kept)
		}
	}
	if stats.LeavesScored == 0 {
		t.Fatal("tiny keep fractions must still reach some leaves")
	}
}

func TestStructuredRanking(t *testing.T) {
	c := composed(t)
	q := query(c.K())
	sr := Structured(c, q, 15)
	if len(sr.Levels) != c.Tree.Depth()-1 {
		t.Fatalf("Levels = %d, want %d", len(sr.Levels), c.Tree.Depth()-1)
	}
	for d, level := range sr.Levels {
		if len(level) != len(c.Tree.Level(d+1)) {
			t.Fatalf("level %d incomplete", d)
		}
		for i := 1; i < len(level); i++ {
			if level[i].Score > level[i-1].Score {
				t.Fatalf("level %d not sorted", d)
			}
		}
	}
	if len(sr.Items) != 15 {
		t.Fatalf("Items = %d", len(sr.Items))
	}
	// structured item list must equal naive
	naive := serialF64(t, c, q, Plan{K: 15}).Items
	for i := range naive {
		if sr.Items[i].ID != naive[i].ID {
			t.Fatal("structured items differ from naive")
		}
	}
}

func TestUniformCascadeShape(t *testing.T) {
	cfg := UniformCascade(4, 0.3)
	if len(cfg.KeepFrac) != 3 {
		t.Fatalf("KeepFrac len = %d, want 3", len(cfg.KeepFrac))
	}
	for _, f := range cfg.KeepFrac {
		if f != 0.3 {
			t.Fatal("wrong fraction")
		}
	}
}

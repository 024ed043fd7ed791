package infer

import (
	"context"
	"reflect"
	"runtime/debug"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

// f32World builds a random world in one of several score regimes. tieRaw
// selects the adversarial surface: dense random scores, exact ties
// (zero factors), grouped bias ties, and — the regime the two-stage
// pipeline exists to survive — near-ties spaced below float32 resolution,
// where the f32 sweep cannot separate the boundary and must escalate.
func f32World(t *testing.T, seed uint64, shardRaw, kRaw, sizeRaw, tieRaw uint8) (*model.Composed, []float64) {
	t.Helper()
	rng := vecmath.NewRNG(seed)
	top := 2 + int(sizeRaw)%4
	tree, err := taxonomy.Generate(taxonomy.GenConfig{
		CategoryLevels: []int{top, top * 3},
		Items:          top*3 + 20 + int(sizeRaw)*5,
		Skew:           0.3,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	p := model.Params{
		K:              1 + int(kRaw)%8,
		TaxonomyLevels: 1 + int(sizeRaw)%4,
		Alpha:          1,
		InitStd:        0.2,
		UseBias:        tieRaw%2 == 0,
	}
	switch tieRaw % 4 {
	case 1:
		p.InitStd = 0 // every score identical: pure tie-break ranking
	case 2:
		p.InitStd = 0
		p.UseBias = true // grouped ties through shared ancestor biases
	case 3:
		p.InitStd = 0
		p.UseBias = true // near-ties below f32 resolution (set below)
	}
	m, err := model.New(tree, 3, p, rng)
	if err != nil {
		t.Fatal(err)
	}
	if p.UseBias {
		for n := 0; n < tree.NumNodes(); n++ {
			if !m.TrainedNode(n) {
				continue
			}
			if tieRaw%4 == 3 {
				// adversarial: scores differ by ~1e-12, far below what a
				// float32 sweep can distinguish at magnitude ~1
				m.Bias.Row(n)[0] = 1 + float64(n)*1e-12
			} else {
				m.Bias.Row(n)[0] = float64(rng.Intn(3)) * 0.5
			}
		}
	}
	c := m.Compose()
	c.Index.SetShardItems(1 + int(shardRaw)%97)
	q := make([]float64, p.K)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	if tieRaw%4 != 0 {
		vecmath.Zero(q) // collapse scores onto the bias surface
	}
	return c, q
}

// Property: the two-stage f32 pipeline returns rankings byte-identical to
// the f64 path — order and tie-breaks included — for naive, cascaded,
// diversified and batched sweeps, serial and pool-sharded, across shard
// sizes, worker counts, k and all tie regimes.
func TestQuickF32MatchesF64(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	ctx := context.Background()
	f := func(seed uint16, shardRaw, kRaw, sizeRaw, tieRaw uint8) bool {
		c, q := f32World(t, uint64(seed)+101, shardRaw, kRaw, sizeRaw, tieRaw)
		for _, k := range []int{1, 1 + int(kRaw)%10, c.NumItems(), c.NumItems() + 5} {
			want := serialF64(t, c, q, Plan{K: k}).Items
			got, err := Execute(ctx, c, q, Plan{K: k, Precision: model.PrecisionF32})
			if err != nil || !reflect.DeepEqual(want, got.Items) {
				t.Logf("serial f32 naive diverged (k=%d)", k)
				return false
			}
			for _, workers := range []int{2, 4} {
				got, err := pool.Execute(ctx, c, q, Plan{K: k, Precision: model.PrecisionF32, MaxWorkers: workers})
				if err != nil || !reflect.DeepEqual(want, got.Items) {
					t.Logf("pooled f32 naive diverged (k=%d workers=%d)", k, workers)
					return false
				}
			}
		}
		k := 1 + int(kRaw)%15
		cfg := UniformCascade(c.Tree.Depth(), 0.2+float64(tieRaw%8)/10)
		casc := Plan{Strategy: StrategyCascade, K: k, Cascade: &cfg}
		want := serialF64(t, c, q, casc)
		casc.Precision = model.PrecisionF32
		got, err := Execute(ctx, c, q, casc)
		if err != nil || !reflect.DeepEqual(want.Items, got.Items) || !reflect.DeepEqual(want.Stats, got.Stats) {
			t.Log("serial f32 cascade diverged")
			return false
		}
		got, err = pool.Execute(ctx, c, q, casc)
		if err != nil || !reflect.DeepEqual(want.Items, got.Items) || !reflect.DeepEqual(want.Stats, got.Stats) {
			t.Log("pooled f32 cascade diverged")
			return false
		}
		maxPer := 1 + int(tieRaw)%4
		catDepth := 1 + int(tieRaw)%(c.Tree.Depth()-1)
		div := Plan{Strategy: StrategyDiversified, K: k, Diversify: &Diversify{MaxPerCategory: maxPer, CatDepth: catDepth}}
		wantDiv := serialF64(t, c, q, div).Items
		div.Precision = model.PrecisionF32
		got, err = Execute(ctx, c, q, div)
		if err != nil || !reflect.DeepEqual(wantDiv, got.Items) {
			t.Log("serial f32 diversified diverged")
			return false
		}
		got, err = pool.Execute(ctx, c, q, div)
		if err != nil || !reflect.DeepEqual(wantDiv, got.Items) {
			t.Log("pooled f32 diversified diverged")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: an f32 batch gives every query of the batch exactly its
// serial f64 ranking, serial and pooled.
func TestQuickMultiF32MatchesF64(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()
	f := func(seed uint16, shardRaw, kRaw, batchRaw, tieRaw uint8) bool {
		c, base := f32World(t, uint64(seed)+211, shardRaw, kRaw, batchRaw, tieRaw)
		batch := 1 + int(batchRaw)%6
		qs := make([][]float64, batch)
		pls := make([]Plan, batch)
		rng := vecmath.NewRNG(uint64(seed) + 977)
		for i := range qs {
			qs[i] = append([]float64(nil), base...)
			for j := range qs[i] {
				qs[i][j] += rng.NormFloat64() * 1e-3
			}
			k := 1 + (int(kRaw)+i)%12
			if i == 0 {
				// force one query whose over-fetch budget covers the
				// catalog: it must skip the f32 sweep and still come back
				// exact through the f64 finish path
				k = c.NumItems() + 2
			}
			pls[i] = Plan{K: k, Precision: model.PrecisionF32}
		}
		for _, p := range []*Pool{nil, pool} {
			results, err := p.ExecuteBatch(context.Background(), c, qs, pls)
			if err != nil {
				t.Logf("f32 batch (pool=%v): %v", p != nil, err)
				return false
			}
			for i := range results {
				if !reflect.DeepEqual(serialF64(t, c, qs[i], pls[i]).Items, results[i].Items) {
					t.Logf("f32 batch query %d diverged (pool=%v)", i, p != nil)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// A catalog whose scores differ by less than float32 resolution must
// force the margin-escalation path — and still come back exact.
func TestF32EscalationNearTiesStaysExact(t *testing.T) {
	tree := taxonomy.MustGenerate(taxonomy.GenConfig{CategoryLevels: []int{4, 16}, Items: 600, Skew: 0}, vecmath.NewRNG(3))
	p := model.Params{K: 4, TaxonomyLevels: 3, Alpha: 1, InitStd: 0, UseBias: true}
	m, err := model.New(tree, 2, p, vecmath.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	// leaf biases 1 + node·1e-13: every pairwise gap is below f32 ulp at
	// magnitude 1 (~6e-8), so no finite margin short of the catalog can
	// certify the boundary
	for n := 0; n < tree.NumNodes(); n++ {
		if m.TrainedNode(n) {
			m.Bias.Row(n)[0] = 1 + float64(n)*1e-13
		}
	}
	c := m.Compose()
	c.Index.SetShardItems(37)
	q := make([]float64, p.K) // zero query: scores collapse onto biases
	before := F32Escalations()
	want := serialF64(t, c, q, Plan{K: 10}).Items
	pl := Plan{K: 10, Precision: model.PrecisionF32}
	got, err := Execute(context.Background(), c, q, pl)
	if err != nil || !reflect.DeepEqual(want, got.Items) {
		t.Fatalf("escalated ranking diverged (err %v):\nwant %v\ngot  %v", err, want, got.Items)
	}
	if F32Escalations() == before {
		t.Fatal("near-tie catalog did not trigger a margin escalation")
	}
	pool := NewPool(4)
	defer pool.Close()
	got, err = pool.Execute(context.Background(), c, q, pl)
	if err != nil || !reflect.DeepEqual(want, got.Items) {
		t.Fatal("pooled escalated ranking diverged")
	}
}

// The serial two-stage pipeline must not allocate on the steady-state
// serving path.
func TestNaiveF32IntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	tree := taxonomy.MustGenerate(taxonomy.GenConfig{CategoryLevels: []int{4, 16}, Items: 2000, Skew: 0.3}, vecmath.NewRNG(5))
	m, err := model.New(tree, 2, model.Params{K: 16, TaxonomyLevels: 3, Alpha: 1, InitStd: 0.2}, vecmath.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	c := m.Compose()
	q := make([]float64, 16)
	rng := vecmath.NewRNG(7)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	// a GC empties sync.Pools, which would show up as a spurious scratch
	// refill; the serving claim is "no allocation given a warm pool"
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	pl := Plan{K: 10, Precision: model.PrecisionF32}
	st := vecmath.NewTopKStream(10)
	ctx := context.Background()
	if _, err := ExecuteInto(ctx, c, q, pl, st); err != nil { // warm the scratch pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ExecuteInto(ctx, c, q, pl, st); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("f32 ExecuteInto allocated %.1f objects per query, want 0", allocs)
	}
}

// allocWorld builds a world of the given catalog size with the same
// four-level taxonomy and query at every size, for allocation checks
// that must not depend on the catalog.
func allocWorld(t *testing.T, items int) (*model.Composed, []float64) {
	t.Helper()
	tree := taxonomy.MustGenerate(taxonomy.GenConfig{CategoryLevels: []int{4, 16, 64}, Items: items, Skew: 0.3}, vecmath.NewRNG(5))
	m, err := model.New(tree, 2, model.Params{K: 16, TaxonomyLevels: 4, Alpha: 1, InitStd: 0.2}, vecmath.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	q := make([]float64, 16)
	rng := vecmath.NewRNG(7)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	return m.Compose(), q
}

// warmAllocs runs pl into st once to warm the scratch pools, then
// returns the steady-state allocations per ExecuteInto.
func warmAllocs(t *testing.T, c *model.Composed, q []float64, pl Plan, st *vecmath.TopKStream) float64 {
	t.Helper()
	ctx := context.Background()
	if _, err := ExecuteInto(ctx, c, q, pl, st); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(20, func() {
		if _, err := ExecuteInto(ctx, c, q, pl, st); err != nil {
			t.Fatal(err)
		}
	})
}

// Diversified plans ride the naive two-stage pipelines, with the ranked
// prefix and the quota counters in pooled scratch, so the f32 and int8
// tiers must not allocate on a warm pool either.
func TestDiversifiedIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	c, q := allocWorld(t, 2000)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, prec := range []model.Precision{model.PrecisionF32, model.PrecisionInt8} {
		pl := Plan{Strategy: StrategyDiversified, K: 10, Precision: prec, Diversify: &Diversify{MaxPerCategory: 2}}
		if allocs := warmAllocs(t, c, q, pl, vecmath.NewTopKStream(10)); allocs > 0 {
			t.Fatalf("%v diversified ExecuteInto allocated %.1f objects per query, want 0", prec, allocs)
		}
	}
}

// A warm cascade allocates only the Stats it returns: the beam frontier,
// level heap and leaf mask are pooled, so the count must be the same on
// a 2k-item and a 20k-item catalog of the same depth.
func TestCascadeIntoAllocsIndependentOfCatalog(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, prec := range []model.Precision{model.PrecisionF64, model.PrecisionF32, model.PrecisionInt8} {
		var allocs [2]float64
		for i, items := range []int{2000, 20000} {
			c, q := allocWorld(t, items)
			cfg := UniformCascade(c.Tree.Depth(), 0.4)
			pl := Plan{Strategy: StrategyCascade, K: 10, Precision: prec, Cascade: &cfg}
			allocs[i] = warmAllocs(t, c, q, pl, vecmath.NewTopKStream(10))
		}
		// the Stats struct and its KeptPerLevel slice
		if allocs[0] != allocs[1] || allocs[0] > 2 {
			t.Fatalf("%v cascade allocated %.1f objects per query at 2k items and %.1f at 20k, want the same ≤2", prec, allocs[0], allocs[1])
		}
	}
}

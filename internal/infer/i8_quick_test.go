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

// execI8 runs a naive int8 plan and returns the ranked page, failing the
// property on executor errors.
func execI8(t *testing.T, p *Pool, c *model.Composed, q []float64, k, workers int) []vecmath.Scored {
	t.Helper()
	res, err := p.Execute(context.Background(), c, q, Plan{Precision: model.PrecisionInt8, K: k, MaxWorkers: workers})
	if err != nil {
		t.Logf("int8 execute (k=%d workers=%d): %v", k, workers, err)
		return nil
	}
	return res.Items
}

// Property: the two-stage int8 pipeline returns rankings byte-identical
// to the f64 path — order and tie-breaks included — serial and
// pool-sharded, across shard sizes, worker counts, k (including k at and
// past the catalog, where the candidate heap covers every item and the
// quantized sweep is skipped entirely) and all tie regimes. The near-tie
// regime (gaps ~1e-12, far below any quantization error bound) cannot be
// separated by the int8 sweep and must come back exact through
// escalation into the plain f64 sweep.
func TestQuickI8MatchesF64(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	f := func(seed uint16, shardRaw, kRaw, sizeRaw, tieRaw uint8) bool {
		c, q := f32World(t, uint64(seed)+601, shardRaw, kRaw, sizeRaw, tieRaw)
		for _, k := range []int{1, 1 + int(kRaw)%10, c.NumItems(), c.NumItems() + 5} {
			want := serialF64(t, c, q, Plan{K: k}).Items
			if got := execI8(t, nil, c, q, k, 0); !reflect.DeepEqual(want, got) {
				t.Logf("serial int8 naive diverged (k=%d):\nwant %v\ngot  %v", k, want, got)
				return false
			}
			for _, workers := range []int{2, 4} {
				if got := execI8(t, pool, c, q, k, workers); !reflect.DeepEqual(want, got) {
					t.Logf("pooled int8 naive diverged (k=%d workers=%d)", k, workers)
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

// Property: an int8 batch gives every query of the batch exactly its
// serial f64 ranking, serial and pooled — the bounded candidate heaps and
// the per-query rescore/escalation finish must compose without breaking a
// single tie-break.
func TestQuickMultiI8MatchesF64(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()
	f := func(seed uint16, shardRaw, kRaw, batchRaw, tieRaw uint8) bool {
		c, base := f32World(t, uint64(seed)+701, shardRaw, kRaw, batchRaw, tieRaw)
		batch := 1 + int(batchRaw)%6
		qs := make([][]float64, batch)
		pls := make([]Plan, batch)
		rng := vecmath.NewRNG(uint64(seed) + 877)
		for i := range qs {
			qs[i] = append([]float64(nil), base...)
			for j := range qs[i] {
				qs[i][j] += rng.NormFloat64() * 1e-3
			}
			k := 1 + (int(kRaw)+i)%12
			if i == 0 {
				// force one query whose candidate budget covers the catalog:
				// it must skip the int8 sweep and still come back exact
				// through the f64 finish path
				k = c.NumItems() + 2
			}
			pls[i] = Plan{Precision: model.PrecisionInt8, K: k}
		}
		for _, p := range []*Pool{nil, pool} {
			results, err := p.ExecuteBatch(context.Background(), c, qs, pls)
			if err != nil {
				t.Logf("int8 batch (pool=%v): %v", p != nil, err)
				return false
			}
			for i := range results {
				if want := serialF64(t, c, qs[i], pls[i]).Items; !reflect.DeepEqual(want, results[i].Items) {
					t.Logf("int8 batch query %d diverged (pool=%v)", i, p != nil)
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

// A catalog whose factor-driven score gaps (~1e-9) sit far below the
// quantization error bound (~1e-2, set by the per-row code step of the
// irregular factor values) must force the int8 margin-escalation path
// and still come back exact, counting the escalation. The near-ties
// have to live in the factors: biases pass through the int8 combine in
// full f64 precision, so bias-only ties are separated exactly without
// ever escalating.
func TestI8EscalationNearTiesStaysExact(t *testing.T) {
	tree := taxonomy.MustGenerate(taxonomy.GenConfig{CategoryLevels: []int{4, 16}, Items: 600, Skew: 0}, vecmath.NewRNG(3))
	p := model.Params{K: 4, TaxonomyLevels: 3, Alpha: 1, InitStd: 0}
	m, err := model.New(tree, 2, p, vecmath.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < tree.NumNodes(); n++ {
		if m.TrainedNode(n) {
			row := m.Node.Row(n)
			// irregular values that don't land on the int8 code grid, with
			// a per-node perturbation far smaller than the code step
			row[0] = 0.9 + float64(n)*1e-9
			row[1] = 0.37
			row[2] = -0.21
			row[3] = 0.53
		}
	}
	c := m.Compose()
	c.Index.SetShardItems(37)
	q := []float64{0.8, -0.5, 0.9, 0.33}
	before := I8Escalations()
	want := serialF64(t, c, q, Plan{K: 10}).Items
	got := execI8(t, nil, c, q, 10, 0)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("escalated int8 ranking diverged:\nwant %v\ngot  %v", want, got)
	}
	if I8Escalations() == before {
		t.Fatal("near-tie catalog did not trigger an int8 margin escalation")
	}
	pool := NewPool(4)
	defer pool.Close()
	if got := execI8(t, pool, c, q, 10, 0); !reflect.DeepEqual(want, got) {
		t.Fatal("pooled escalated int8 ranking diverged")
	}
}

// The serial int8 pipeline must not allocate on the steady-state serving
// path (given a warm scratch pool and materialized quantized slabs).
func TestExecuteI8ZeroAlloc(t *testing.T) {
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
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// the platform-default plan (the fused int8 sweep on SIMD hosts), the
	// explicit tier, and the pruned descent over the fused range sweep
	for _, pl := range []Plan{
		{K: 10},
		{K: 10, Precision: model.PrecisionInt8},
		{K: 10, Precision: model.PrecisionInt8, Pruned: true},
	} {
		if allocs := warmAllocs(t, c, q, pl, vecmath.NewTopKStream(10)); allocs > 0 {
			t.Fatalf("%v (pruned=%v) ExecuteInto allocated %.1f objects per query, want 0", pl.Precision.Resolve(), pl.Pruned, allocs)
		}
	}
}

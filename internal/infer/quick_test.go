package infer

import (
	"context"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

// Property: the sharded parallel sweep reproduces the serial TopKStream
// ranking byte-for-byte — order and tie-breaks included — across random
// shard sizes, worker counts, k, catalog sizes and tie regimes. This is
// the contract the parallel serving path stands on.
func TestQuickShardedMergeMatchesSerial(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	f := func(seed uint16, shardRaw, kRaw, sizeRaw, tieRaw uint8) bool {
		rng := vecmath.NewRNG(uint64(seed) + 11)
		top := 2 + int(sizeRaw)%4
		tree, err := taxonomy.Generate(taxonomy.GenConfig{
			CategoryLevels: []int{top, top * 3},
			Items:          top*3 + 20 + int(sizeRaw)*7,
			Skew:           0.3,
		}, rng)
		if err != nil {
			return false
		}
		p := model.Params{
			K:              1 + int(kRaw)%8,
			TaxonomyLevels: 1 + int(sizeRaw)%4,
			MarkovOrder:    0,
			Alpha:          1,
			InitStd:        0.2,
			UseBias:        tieRaw%2 == 0,
		}
		// tieRaw picks a tie regime: dense random scores, all-tied (zero
		// factors, so every item's score is exactly equal), or grouped ties
		// (zero factors + per-node biases shared through common ancestors).
		switch tieRaw % 3 {
		case 1:
			p.InitStd = 0
		case 2:
			p.InitStd = 0
			p.UseBias = true
		}
		m, err := model.New(tree, 3, p, rng)
		if err != nil {
			return false
		}
		if p.UseBias {
			for n := 0; n < tree.NumNodes(); n++ {
				if m.TrainedNode(n) {
					// quantized biases so distinct categories still collide
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
		if tieRaw%4 == 3 {
			vecmath.Zero(q) // zero query: every score collapses to the bias
		}
		for _, k := range []int{1, 1 + int(kRaw)%10, tree.NumItems(), tree.NumItems() + 5} {
			want := serialF64(t, c, q, Plan{K: k}).Items
			for _, workers := range []int{2, 3, 4} {
				res, err := pool.Execute(context.Background(), c, q, Plan{K: k, Precision: model.PrecisionF64, MaxWorkers: workers})
				if err != nil || !reflect.DeepEqual(want, res.Items) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: a batch gives every query of the batch exactly its
// single-query serial ranking.
func TestQuickMultiQuerySweepMatchesSerial(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()
	f := func(seed uint16, shardRaw, kRaw, batchRaw uint8) bool {
		rng := vecmath.NewRNG(uint64(seed) + 23)
		tree, err := taxonomy.Generate(taxonomy.GenConfig{
			CategoryLevels: []int{3, 9},
			Items:          40 + int(shardRaw),
			Skew:           0.3,
		}, rng)
		if err != nil {
			return false
		}
		p := model.Params{K: 1 + int(kRaw)%6, TaxonomyLevels: 2, Alpha: 1, InitStd: 0.3}
		m, err := model.New(tree, 3, p, rng)
		if err != nil {
			return false
		}
		c := m.Compose()
		c.Index.SetShardItems(1 + int(shardRaw)%31)
		batch := 1 + int(batchRaw)%6
		qs := make([][]float64, batch)
		pls := make([]Plan, batch)
		for i := range qs {
			qs[i] = make([]float64, p.K)
			for j := range qs[i] {
				qs[i][j] = rng.NormFloat64()
			}
			pls[i] = Plan{K: 1 + (int(kRaw)+i)%12, Precision: model.PrecisionF64}
		}
		for _, exec := range []*Pool{nil, pool} {
			results, err := exec.ExecuteBatch(context.Background(), c, qs, pls)
			if err != nil {
				return false
			}
			for i := range results {
				if !reflect.DeepEqual(serialF64(t, c, qs[i], pls[i]).Items, results[i].Items) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: parallel Cascade and Diversified match their serial
// counterparts exactly, stats included, for random shard sizes and
// beam/quota settings.
func TestQuickParallelCascadeDiversifiedMatchSerial(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	f := func(seed uint16, shardRaw, kRaw, cfgRaw uint8) bool {
		rng := vecmath.NewRNG(uint64(seed) + 31)
		tree, err := taxonomy.Generate(taxonomy.GenConfig{
			CategoryLevels: []int{3, 8, 20},
			Items:          80 + int(shardRaw),
			Skew:           0.4,
		}, rng)
		if err != nil {
			return false
		}
		p := model.Params{K: 1 + int(kRaw)%6, TaxonomyLevels: 3, Alpha: 1, InitStd: 0.25}
		m, err := model.New(tree, 3, p, rng)
		if err != nil {
			return false
		}
		c := m.Compose()
		c.Index.SetShardItems(1 + int(shardRaw)%53)
		q := make([]float64, p.K)
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		k := 1 + int(kRaw)%15

		keep := 0.2 + float64(cfgRaw%8)/10
		cfg := UniformCascade(tree.Depth(), keep)
		casc := Plan{Strategy: StrategyCascade, K: k, Cascade: &cfg}
		want := serialF64(t, c, q, casc)
		// override leaf chunking implicitly via small frontiers: parallel
		// path must agree whether or not it actually fanned out
		casc.Precision = model.PrecisionF64
		got, err := pool.Execute(context.Background(), c, q, casc)
		if err != nil {
			return false
		}
		if !reflect.DeepEqual(want.Items, got.Items) || !reflect.DeepEqual(want.Stats, got.Stats) {
			return false
		}

		maxPer := 1 + int(cfgRaw)%4
		catDepth := 1 + int(cfgRaw)%(tree.Depth()-1)
		div := Plan{Strategy: StrategyDiversified, K: k, Precision: model.PrecisionF64,
			Diversify: &Diversify{MaxPerCategory: maxPer, CatDepth: catDepth}}
		wantDiv := serialF64(t, c, q, div).Items
		for _, workers := range []int{2, 4} {
			div.MaxWorkers = workers
			gotDiv, err := pool.Execute(context.Background(), c, q, div)
			if err != nil {
				return false
			}
			if !reflect.DeepEqual(wantDiv, gotDiv.Items) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

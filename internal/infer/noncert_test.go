package infer

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/model"
	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

// Score regimes the reduced tiers cannot certify. Every factor is finite
// (the model survives a Save/Load round trip), but:
//   - regimeOverflow: rows and query of magnitude ~1e200, every row
//     sign-consistent, so every exact score overflows to ±Inf;
//   - regimeNearOverflow: magnitude ~1e150 with mixed signs, so exact
//     scores stay finite near 1e300 while float32 rounds every factor to
//     ±Inf;
//   - regimeMixed: an ordinary world with a handful of ~1e200 rows whose
//     float32 scores are NaN (+Inf − Inf) while their exact scores top the
//     ranking.
const (
	regimeOverflow = iota
	regimeNearOverflow
	regimeMixed
	numRegimes
)

// hugeWorld builds the regime's world: 600 items under a two-level
// taxonomy, small shards so pooled sweeps fan out.
func hugeWorld(t *testing.T, regime int) (*model.Composed, []float64) {
	t.Helper()
	rng := vecmath.NewRNG(uint64(7100 + regime))
	tree := taxonomy.MustGenerate(taxonomy.GenConfig{CategoryLevels: []int{4, 16}, Items: 600, Skew: 0.3}, rng)
	const k = 4
	m, err := model.New(tree, 2, model.Params{K: k, TaxonomyLevels: 3, Alpha: 1, InitStd: 0.2, UseBias: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	q := make([]float64, k)
	for i := range q {
		q[i] = 0.5 + rng.Float64()
	}
	for item := 0; item < tree.NumItems(); item++ {
		row := m.Node.Row(tree.ItemNode(item))
		switch regime {
		case regimeOverflow:
			sign := 1.0
			if item%3 == 0 {
				sign = -1
			}
			for j := range row {
				row[j] = sign * 1e200 * (0.5 + rng.Float64())
			}
		case regimeNearOverflow:
			for j := range row {
				row[j] = 1e150 * (rng.Float64() - 0.5)
			}
		case regimeMixed:
			switch item % 97 {
			case 5: // float32 +Inf, exact 2e200
				row[0], row[1] = 1e200, 1e200
			case 50: // float32 NaN, exact above every +Inf row's
				row[0], row[1] = 3e200, -0.5e200
			}
		}
	}
	switch regime {
	case regimeOverflow:
		for i := range q {
			q[i] *= 1e200
		}
	case regimeNearOverflow:
		for i := range q {
			q[i] *= 1e150
		}
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := model.Load(&buf)
	if err != nil {
		t.Fatalf("regime %d: Load rejected a finite model: %v", regime, err)
	}
	c := loaded.Compose()
	c.Index.SetShardItems(64)
	return c, q
}

// Every tier, dense and pruned, filtered and batched, serial and pooled,
// must return the serial f64 page when the reduced tiers' error bounds
// cannot certify — no panic, no silently wrong ranking.
func TestNonCertifiableRegimesMatchF64(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	ctx := context.Background()
	precs := []model.Precision{model.PrecisionF64, model.PrecisionF32, model.PrecisionInt8}
	for regime := 0; regime < numRegimes; regime++ {
		c, q := hugeWorld(t, regime)
		flt := &Filter{AllowNodes: c.Tree.Level(1)[:3], ExcludeItems: []int32{5, 50, 147}}
		for _, k := range []int{1, 7} {
			for _, shape := range []Plan{{K: k}, {K: k, Pruned: true}, {K: k, Filter: flt}, {K: k, Filter: flt, Pruned: true}} {
				dense := shape
				dense.Pruned = false
				want := serialF64(t, c, q, dense).Items
				for _, prec := range precs {
					for _, p := range []*Pool{nil, pool} {
						pl := shape
						pl.Precision = prec
						got, err := p.Execute(ctx, c, q, pl)
						if err != nil || !samePage(want, got.Items) {
							t.Fatalf("regime %d %v k=%d pruned=%v filtered=%v pool=%v: err %v\nwant %v\ngot  %v",
								regime, prec, k, pl.Pruned, pl.Filter != nil, p != nil, err, want, got.Items)
						}
					}
				}
			}
			qs := [][]float64{q, q, q}
			for _, prec := range precs {
				pls := []Plan{{K: k, Precision: prec}, {K: k + 3, Precision: prec}, {K: k, Offset: 2, Precision: prec}}
				for _, p := range []*Pool{nil, pool} {
					res, err := p.ExecuteBatch(ctx, c, qs, pls)
					if err != nil {
						t.Fatalf("regime %d %v batch: %v", regime, prec, err)
					}
					for i := range res {
						if want := serialF64(t, c, q, pls[i]).Items; !samePage(want, res[i].Items) {
							t.Fatalf("regime %d %v batch query %d pool=%v:\nwant %v\ngot  %v", regime, prec, i, p != nil, want, res[i].Items)
						}
					}
				}
			}
		}
	}
}

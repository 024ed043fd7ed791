package tfrec

// benchWideWorld is the bandwidth-bound regime: 50k items x 64 dims puts
// the f64 item slab at ~25.6 MB — past any private cache, streaming from
// LLC/DRAM — while the int8 slab is an eighth of that. The gated pair
// (see BENCH_baseline.json, conditioned on the "amd64/avx2" kernel set):
//
//	BenchmarkTopKF64Wide vs BenchmarkTopKI8Wide (≥1.5x, single core)
//
// measures what the served int8 tier buys over the exact f64 sweep where
// the fused int8 kernel runs. The K=32 world of the Sharded benches stays
// untouched so its parallel-scaling floors keep their meaning.

import (
	"testing"

	"repro/internal/model"
	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

func benchWideWorld(b *testing.B) (*model.Composed, []float64) {
	b.Helper()
	tree := taxonomy.MustGenerate(taxonomy.GenConfig{
		CategoryLevels: []int{8, 64, 512},
		Items:          50000,
		Skew:           0.4,
	}, vecmath.NewRNG(7))
	m, err := model.New(tree, 10, model.Params{K: 64, TaxonomyLevels: 4, Alpha: 1, InitStd: 0.1, UseBias: true}, vecmath.NewRNG(8))
	if err != nil {
		b.Fatal(err)
	}
	c := m.Compose()
	q := make([]float64, 64)
	for i := range q {
		q[i] = float64(i%7) - 3
	}
	return c, q
}

// BenchmarkTopKF64Wide is the pure f64 sweep on the wide world — the
// "slow" side of the gated pair.
func BenchmarkTopKF64Wide(b *testing.B) {
	c, q := benchWideWorld(b)
	runExecuteInto(b, nil, c, q, f64Top10)
}

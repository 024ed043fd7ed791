package tfrec

// BenchmarkTopKF32* measure the two-stage compact-slab pipeline (f32
// sweep into an over-fetched candidate heap, exact f64 rescore) against
// the f64 sweeps of the same shapes. The pairs:
//
//	BenchmarkShardedTopKSerial      vs BenchmarkTopKF32Sharded    (single core)
//	BenchmarkShardedTopKSaturated   vs BenchmarkTopKF32Saturated  (all cores)
//	BenchmarkTopKIndexStreaming     vs BenchmarkTopKF32Streaming  (small world)
//
// The 50k x 32 world's f64 item slab is ~12.8 MB — memory-bound on any
// recent core — while the f32 slab is half that, so the sweep's ceiling
// doubles. tfrec-benchgate gates the ≥1.5x single-core win and keeps the
// parallel floor (see BENCH_baseline.json). All single-query paths must
// stay allocation-free; the benches report allocs to keep that visible.

import (
	"fmt"
	"testing"

	"repro/internal/infer"
	"repro/internal/model"
	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

// benchWideWorld is the bandwidth-bound regime the compact slabs target:
// 50k items x 64 dims puts the f64 item slab at ~25.6 MB — past any
// private cache, streaming from LLC/DRAM — while the f32 slab is half
// that. The gated BenchmarkTopKF64Wide/BenchmarkTopKF32Wide pair measures
// exactly the sweep-bandwidth halving; the K=32 world of the Sharded
// benches stays untouched so its parallel-scaling floors keep their
// meaning.
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
// "slow" side of the gated ≥1.5x single-core pair.
func BenchmarkTopKF64Wide(b *testing.B) {
	c, q := benchWideWorld(b)
	runExecuteInto(b, nil, c, q, f64Top10)
}

// f32Top10 is the two-stage f32 top-10 plan of the f32 pipeline benches.
var f32Top10 = infer.Plan{K: 10, Precision: model.PrecisionF32}

// BenchmarkTopKF32Wide is the two-stage pipeline on the wide world,
// gated ≥1.5x over BenchmarkTopKF64Wide with 0 allocs/op.
func BenchmarkTopKF32Wide(b *testing.B) {
	c, q := benchWideWorld(b)
	runExecuteInto(b, nil, c, q, f32Top10)
}

func BenchmarkTopKF32Streaming(b *testing.B) {
	c, q := benchComposedForTopK(b)
	runExecuteInto(b, nil, c, q, f32Top10)
}

// BenchmarkTopKF32Sharded is the single-core two-stage sweep on the large
// catalog — the bandwidth-win headline, gated ≥1.5x over
// BenchmarkShardedTopKSerial.
func BenchmarkTopKF32Sharded(b *testing.B) {
	c, q := benchShardedWorld(b)
	runExecuteInto(b, nil, c, q, f32Top10)
}

func BenchmarkTopKF32Pool(b *testing.B) {
	for _, workers := range []int{2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			c, q := benchShardedWorld(b)
			pool := infer.NewPool(workers)
			defer pool.Close()
			runExecuteInto(b, pool, c, q, f32Top10)
		})
	}
}

// BenchmarkTopKF32Saturated drives the pooled two-stage pipeline from all
// benchmark goroutines at once — the heavy-traffic regime; the baseline
// keeps the ≥2x-over-serial-f64 floor on this path.
func BenchmarkTopKF32Saturated(b *testing.B) {
	c, q := benchShardedWorld(b)
	pool := infer.NewPool(0)
	defer pool.Close()
	runSaturated(b, pool, c, q, f32Top10)
}

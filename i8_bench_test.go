package tfrec

// BenchmarkTopKI8* measure the quantized int8 two-stage pipeline (int8
// slab sweep into an over-fetched candidate heap, exact f64 rescore)
// against the f32 pipeline of the same shapes. The gated pairs (see
// BENCH_baseline.json):
//
//	BenchmarkTopKF32Saturated vs BenchmarkTopKI8Saturated  (≥1.3x, ≥4 cores)
//	BenchmarkTopKF32Wide      vs BenchmarkTopKI8Wide       (≥1.0x, amd64/avx2 dispatch)
//
// The saturated pair is a bandwidth
// story: concurrent f32 sweeps stream ~4x the bytes of the quarter-size
// int8 slab and starve when every core contends, hence that floor gates
// only on ≥4-core machines, like the pool's other parallel-scaling
// floors. The wide single-core pair is the story the SIMD kernels
// (DESIGN.md §5.13) flipped: under scalar kernels int8 trailed f32 on a
// quiet core (integer multiplies issue on one port, float on two, and
// an L3-resident slab feeds f32's extra bytes for free — recorded
// honestly at ~0.83x in the pre-SIMD baselines), but AVX2 multiplies 32
// int8 codes per instruction against 8 f32 lanes, putting the wide
// sweep ~2x ahead. The ≥1.0x floor is conditioned on the amd64/avx2
// kernel set so generic-dispatch machines — where the old trade-off
// still holds — skip it rather than fail it.
// BenchmarkQuantize measures the one-time slab quantization cost a
// deployment pays on first int8 use.

import (
	"context"
	"testing"

	"repro/internal/infer"
	"repro/internal/model"
	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

// BenchmarkQuantize is the per-row affine quantization of a wide-world
// sized slab (50k rows x 64 dims): the full cost of ensure8's item-slab
// pass, isolated at the vecmath layer.
func BenchmarkQuantize(b *testing.B) {
	const rows, cols = 50000, 64
	src := make([]float64, rows*cols)
	for i := range src {
		src[i] = float64(i%997)*0.01 - 4
	}
	dst := vecmath.NewMatrixI8(rows, cols)
	scale := make([]float64, rows)
	offset := make([]float64, rows)
	b.SetBytes(rows * cols * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.QuantizeFrom(src, scale, offset)
	}
}

// BenchmarkTopKI8Wide is the two-stage int8 pipeline on the wide world,
// gated ≥1.3x over BenchmarkTopKF32Wide with steady-state allocs pinned
// to the plan executor's fixed overhead.
func BenchmarkTopKI8Wide(b *testing.B) {
	c, q := benchWideWorld(b)
	pl := infer.Plan{Precision: model.PrecisionInt8, K: 10}
	st := vecmath.NewTopKStream(10)
	ctx := context.Background()
	// warm-up materializes the int8 slabs and the scratch pools so the
	// loop measures the steady-state sweep, not quantization
	if _, err := infer.ExecuteInto(ctx, c, q, pl, st); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := infer.ExecuteInto(ctx, c, q, pl, st); err != nil {
			b.Fatal(err)
		}
	}
}

// benchNarrowWorld is the cache-resident regime at train_tf's serving
// shape: 30k items x 20 dims under {12, 72, 480} categories. The int8
// item slab is 600 KB and the f32 one 2.4 MB, so bandwidth barely
// separates the tiers and the int8 executor's fixed costs (the k%8 code
// tail, the float64 combine, the threshold compare) decide the pair.
func benchNarrowWorld(b *testing.B) (*model.Composed, []float64) {
	b.Helper()
	tree := taxonomy.MustGenerate(taxonomy.GenConfig{
		CategoryLevels: []int{12, 72, 480},
		Items:          30000,
		Skew:           0.6,
	}, vecmath.NewRNG(31))
	m, err := model.New(tree, 10, model.Params{K: 20, TaxonomyLevels: 4, Alpha: 1, InitStd: 0.1, UseBias: true}, vecmath.NewRNG(32))
	if err != nil {
		b.Fatal(err)
	}
	c := m.Compose()
	rng := vecmath.NewRNG(33)
	q := make([]float64, c.K())
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	return c, q
}

// BenchmarkTopKF32Narrow is the serial two-stage f32 pipeline on the
// narrow world — the side the int8 tier must not trail.
func BenchmarkTopKF32Narrow(b *testing.B) {
	c, q := benchNarrowWorld(b)
	runExecuteInto(b, nil, c, q, f32Top10)
}

// BenchmarkTopKI8Narrow is the serial fused int8 pipeline on the narrow
// world, where the default tier has the least bandwidth to win back.
func BenchmarkTopKI8Narrow(b *testing.B) {
	c, q := benchNarrowWorld(b)
	runExecuteInto(b, nil, c, q, infer.Plan{K: 10, Precision: model.PrecisionInt8})
}

// BenchmarkTopKI8Saturated drives the pooled int8 pipeline from all
// benchmark goroutines at once — the regime the quantized tier exists
// for. The concurrent f32 sweeps of BenchmarkTopKF32Saturated contend
// for memory bandwidth on 4x the slab bytes, so on ≥4 cores this pair
// carries the ≥1.3x int8-over-f32 floor (skipped on smaller machines,
// where the ratio is meaningless — see the package comment).
func BenchmarkTopKI8Saturated(b *testing.B) {
	c, q := benchShardedWorld(b)
	pool := infer.NewPool(0)
	defer pool.Close()
	pl := infer.Plan{Precision: model.PrecisionInt8, K: 10}
	ctx := context.Background()
	// warm-up materializes the int8 slabs before the clock starts
	if _, err := pool.ExecuteInto(ctx, c, q, pl, vecmath.NewTopKStream(10)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		st := vecmath.NewTopKStream(10)
		for pb.Next() {
			if _, err := pool.ExecuteInto(ctx, c, q, pl, st); err != nil {
				b.Fatal(err)
			}
		}
	})
}

package tfrec

// BenchmarkSharded* measure the PR-2 multi-core serving paths on a
// catalog large enough that the item slab (50k x 32 floats ≈ 12.8 MB)
// cannot live in one core's cache: the sharded pool sweep at several
// worker counts against the serial reference and the saturated-throughput
// regime. These benches are
// the subjects of the CI bench-regression gate (cmd/tfrec-benchgate,
// BENCH_baseline.json); all report allocations because the single-query
// pool path must stay allocation-free.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/infer"
	"repro/internal/model"
	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

// benchShardedWorld builds a large untrained snapshot: ranking quality is
// irrelevant here, only the sweep shape matters.
func benchShardedWorld(b *testing.B) (*model.Composed, []float64) {
	b.Helper()
	tree := taxonomy.MustGenerate(taxonomy.GenConfig{
		CategoryLevels: []int{8, 64, 512},
		Items:          50000,
		Skew:           0.4,
	}, vecmath.NewRNG(7))
	m, err := model.New(tree, 10, model.Params{K: 32, TaxonomyLevels: 4, Alpha: 1, InitStd: 0.1, UseBias: true}, vecmath.NewRNG(8))
	if err != nil {
		b.Fatal(err)
	}
	c := m.Compose()
	q := make([]float64, 32)
	for i := range q {
		q[i] = float64(i%7) - 3
	}
	return c, q
}

// f64Top10 is the exact f64 top-10 plan the f64 sweep benches execute.
var f64Top10 = infer.Plan{K: 10, Precision: model.PrecisionF64}

// runExecuteInto times pl on one reused collector (through p's workers; a
// nil pool runs serially) after one warm-up execution, which fills the
// task and scratch recycling pools so the loop measures the steady state.
func runExecuteInto(b *testing.B, p *infer.Pool, c *model.Composed, q []float64, pl infer.Plan) {
	b.Helper()
	st := vecmath.NewTopKStream(pl.K)
	ctx := context.Background()
	if _, err := p.ExecuteInto(ctx, c, q, pl, st); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.ExecuteInto(ctx, c, q, pl, st); err != nil {
			b.Fatal(err)
		}
	}
}

// runSaturated drives pl through the pool from all benchmark goroutines
// at once, each on its own collector.
func runSaturated(b *testing.B, pool *infer.Pool, c *model.Composed, q []float64, pl infer.Plan) {
	b.Helper()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		st := vecmath.NewTopKStream(pl.K)
		for pb.Next() {
			if _, err := pool.ExecuteInto(ctx, c, q, pl, st); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkShardedTopKSerial is the single-core reference the parallel
// sweep is gated against (the ≥2x criterion compares workers=4 to this).
func BenchmarkShardedTopKSerial(b *testing.B) {
	c, q := benchShardedWorld(b)
	runExecuteInto(b, nil, c, q, f64Top10)
}

func BenchmarkShardedTopK(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			c, q := benchShardedWorld(b)
			pool := infer.NewPool(workers)
			defer pool.Close()
			runExecuteInto(b, pool, c, q, f64Top10)
		})
	}
}

// BenchmarkShardedTopKSaturated drives the pool from all benchmark
// goroutines at once — the heavy-traffic regime where queries queue on
// the pool rather than idle cores.
func BenchmarkShardedTopKSaturated(b *testing.B) {
	c, q := benchShardedWorld(b)
	pool := infer.NewPool(0)
	defer pool.Close()
	runSaturated(b, pool, c, q, f64Top10)
}

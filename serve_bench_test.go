package tfrec

// Serving-resilience benches, gated by tfrec-benchgate:
//
//	BenchmarkServeUncached      vs BenchmarkServeCachedHit    (hit >= 10x)
//	BenchmarkExecuteDeadlineNone vs BenchmarkExecuteDeadlineFar (checks ~free)
//
// The cached pair measures the versioned result cache end to end through
// serve.Server.Recommend on the wide out-of-cache world: a hit is a key
// build plus an LRU lookup, no sweep. The deadline pair prices the
// cooperative cancellation checks the executor now runs at every shard
// claim — an armed-but-distant deadline must cost under 2% of the
// uncontended f64 sweep, which is what lets every serving request carry
// a real deadline by default.

import (
	"context"
	"testing"
	"time"

	"repro/internal/infer"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

// benchServeModel is the TF model behind the serve-layer benches — the
// same 50k x 64 bandwidth-bound world as benchWideWorld, kept as a model
// so serve.New can snapshot it.
func benchServeModel(b *testing.B) *model.TF {
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
	return m
}

// The cached pair runs the host's tier, the only one a server sweeps:
// int8 on AVX2 hosts, f64 elsewhere. BENCH_baseline.json recorded these
// rows at the retired f32 tier, so an AVX2 host reads the uncached row
// below its entry.
func BenchmarkServeUncached(b *testing.B) {
	srv := serve.New(benchServeModel(b))
	req := serve.Request{User: 1, K: 10}
	if _, err := srv.Recommend(req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Recommend(req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServeCachedHit(b *testing.B) {
	srv := serve.New(benchServeModel(b), serve.WithCache(16))
	req := serve.Request{User: 1, K: 10}
	if _, err := srv.Recommend(req); err != nil { // fill
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Recommend(req); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if cs, _ := srv.CacheStats(); cs.Hits < int64(b.N) {
		b.Fatalf("bench did not hit the cache: %+v", cs)
	}
}

// benchExecuteDeadline shares one plan execution loop between the
// deadline pair; only the context differs. It runs on the small
// streaming world — per-op times there are stable to ~1-2%, which is
// what lets the Far/None ratio floor stay tight; the true per-shard
// poll cost is far below either world's noise floor.
func benchExecuteDeadline(b *testing.B, ctx context.Context) {
	c, q := benchComposedForTopK(b)
	pl := infer.Plan{K: 10, Precision: model.PrecisionF64}
	st := vecmath.NewTopKStream(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := infer.ExecuteInto(ctx, c, q, pl, st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteDeadlineNone is the f64 plan sweep with no deadline
// armed (nil done channel) — the pre-PR cost of the sweep.
func BenchmarkExecuteDeadlineNone(b *testing.B) {
	benchExecuteDeadline(b, context.Background())
}

// BenchmarkExecuteDeadlineFar runs the same sweep with a live deadline
// far in the future, so every shard claim polls a real done channel —
// the steady-state cost every deadline-carrying serving request pays.
func BenchmarkExecuteDeadlineFar(b *testing.B) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	benchExecuteDeadline(b, ctx)
}

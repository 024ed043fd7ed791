package tfrec

// BenchmarkTopKSkewed*/BenchmarkTopKUniform* bracket the branch-and-bound
// descent (Plan.Pruned) against the dense sweep it certifies against:
//
//	BenchmarkTopKSkewedDense   vs BenchmarkTopKSkewedPruned   (≥2x floor)
//	BenchmarkTopKUniformDense  vs BenchmarkTopKUniformPruned  (≥0.95 floor)
//
// The skewed world concentrates all signal in one of 16 level-1 subtrees
// (its bias offset is +5, the rest sit at −5), so the subtree envelopes
// price the 15 cold subtrees — ~94% of the catalog — below the top-k
// threshold and the descent never reads their factors; tfrec-benchgate
// keeps the ≥2x win. The uniform world is benchWideWorld, whose random
// factors make every envelope loose: the descent burns its bound budget,
// falls back to deferred dense ranges, and must cost at most ~5% over the
// plain sweep (the ≥0.95 floor). Both pruned plans return pages
// byte-identical to their dense partners — the property suites in
// internal/infer pin that; these benches pin what the exactness costs.
// All four pin the exact f64 tier rather than reading the platform
// default, so the pair ratios measure the descent itself: at the int8
// tier the prune allowance also carries the quantization bound, which
// prunes less (the skewed pair reads ~1.5x there, not ≥2x).

import (
	"context"
	"testing"

	"repro/internal/infer"
	"repro/internal/model"
	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

// benchSkewedWorld builds the pruning-friendly regime: 50k items under
// {16, 128} category levels, with one level-1 subtree's bias offset
// raised far above the rest so the top-k lives entirely inside it.
func benchSkewedWorld(b *testing.B) (*model.Composed, []float64) {
	b.Helper()
	tree := taxonomy.MustGenerate(taxonomy.GenConfig{
		CategoryLevels: []int{16, 128},
		Items:          50000,
		Skew:           0.3,
	}, vecmath.NewRNG(4242))
	m, err := model.New(tree, 10, model.Params{K: 32, TaxonomyLevels: 3, Alpha: 1, InitStd: 0.05, UseBias: true}, vecmath.NewRNG(4243))
	if err != nil {
		b.Fatal(err)
	}
	level1 := tree.Level(1)
	for i, node := range level1 {
		off := -5.0
		if i == 0 {
			off = 5.0
		}
		m.Bias.Row(int(node))[0] = off
	}
	c := m.Compose()
	rng := vecmath.NewRNG(4244)
	q := make([]float64, c.K())
	for i := range q {
		q[i] = 0.1 * rng.NormFloat64()
	}
	return c, q
}

func benchExecPlan(b *testing.B, c *model.Composed, q []float64, pl infer.Plan) {
	b.Helper()
	st := vecmath.NewTopKStream(pl.K)
	if _, err := infer.ExecuteInto(context.Background(), c, q, pl, st); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := infer.ExecuteInto(context.Background(), c, q, pl, st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopKSkewedDense is the full dense sweep of the skewed world —
// the "slow" side of the gated ≥2x pruning pair.
func BenchmarkTopKSkewedDense(b *testing.B) {
	c, q := benchSkewedWorld(b)
	benchExecPlan(b, c, q, infer.Plan{K: 10, MaxWorkers: 1, Precision: model.PrecisionF64})
}

// BenchmarkTopKSkewedPruned is the branch-and-bound descent on the same
// world and query; byte-identical page, ~94% of the catalog unread.
func BenchmarkTopKSkewedPruned(b *testing.B) {
	c, q := benchSkewedWorld(b)
	benchExecPlan(b, c, q, infer.Plan{K: 10, MaxWorkers: 1, Precision: model.PrecisionF64, Pruned: true})
}

// BenchmarkTopKUniformDense is the dense sweep of the loose-envelope wide
// world — the reference the fallback overhead is measured against.
func BenchmarkTopKUniformDense(b *testing.B) {
	c, q := benchWideWorld(b)
	benchExecPlan(b, c, q, infer.Plan{K: 10, MaxWorkers: 1, Precision: model.PrecisionF64})
}

// BenchmarkTopKUniformPruned is the descent on a world where pruning
// never pays: it must degrade into the dense sweep within the ≥0.95
// ratio floor (≤ ~5% overhead for bounds, the seed pass and the queue).
func BenchmarkTopKUniformPruned(b *testing.B) {
	c, q := benchWideWorld(b)
	benchExecPlan(b, c, q, infer.Plan{K: 10, MaxWorkers: 1, Precision: model.PrecisionF64, Pruned: true})
}

package tfrec

// The category sweep (internal/infer/sweep.go) against the dense sweeps it
// replaces, as tfrec-benchgate ratio floors:
//
//	BenchmarkTopKSkewedDense   vs BenchmarkTopKSkewedPruned       (≥2x floor)
//	BenchmarkTopKUniformDense  vs BenchmarkTopKUniformPruned      (≥0.95 floor)
//	BenchmarkCategorySweepLearnedDenseI8 vs BenchmarkCategorySweepLearned (≥1.5x floor)
//
// The *Dense sides are direct index sweeps written against exported
// calls, so no executor knob is needed to reach a dense path; the other
// sides are plain naive plans, which always run the category sweep. The
// skewed world concentrates all signal in one of 16 level-1 subtrees (its
// bias offset is +5, the rest sit at −5), so the ball bounds price the 15
// cold subtrees — ~94% of the catalog — below the top-k threshold and the
// sweep never reads their factors. The uniform world is benchWideWorld,
// whose random factors make every ball loose: the sweep must bail at its
// first-fill checkpoint and cost at most ~5% over the plain f64 sweep. The
// learned pair runs the shared learned fixture (internal/fixture) against
// the two-stage int8 sweep the served tier ran before the category sweep.
// Every plan returns pages byte-identical to the dense f64 sweep — the
// suites in internal/infer pin that; these benches pin what it costs.

import (
	"context"
	"math"
	"testing"

	"repro/internal/fixture"
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

// benchDense times the direct serial f64 index sweep (sweepTopK) of a
// top-10 page.
func benchDense(b *testing.B, c *model.Composed, q []float64) {
	b.Helper()
	st := vecmath.NewTopKStream(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Reset(10)
		sweepTopK(c, q, st)
		_ = st.Ranked()
	}
}

// BenchmarkTopKSkewedDense is the full dense f64 sweep of the skewed
// world — the "slow" side of the gated ≥2x pair.
func BenchmarkTopKSkewedDense(b *testing.B) {
	c, q := benchSkewedWorld(b)
	benchDense(b, c, q)
}

// BenchmarkTopKSkewedPruned is the category sweep on the same world and
// query; byte-identical page, ~94% of the catalog unread.
func BenchmarkTopKSkewedPruned(b *testing.B) {
	c, q := benchSkewedWorld(b)
	benchExecPlan(b, c, q, infer.Plan{K: 10, MaxWorkers: 1, Precision: model.PrecisionF64})
}

// BenchmarkTopKUniformDense is the dense f64 sweep of the loose-ball wide
// world — the reference the checkpoint bail is measured against.
func BenchmarkTopKUniformDense(b *testing.B) {
	c, q := benchWideWorld(b)
	benchDense(b, c, q)
}

// BenchmarkTopKUniformPruned is the naive plan on a world where the
// bounds never pay: the sweep bails at its checkpoint into the dense f64
// sweep within the ≥0.95 ratio floor (≤ ~5% for the bounds and the
// categories swept before the first heap fill).
func BenchmarkTopKUniformPruned(b *testing.B) {
	c, q := benchWideWorld(b)
	benchExecPlan(b, c, q, infer.Plan{K: 10, MaxWorkers: 1, Precision: model.PrecisionF64})
}

// learnedBenchQueries are the learned fixture's queries for its first 64
// users, each with its latest basket as the Markov context.
func learnedBenchQueries(b *testing.B) (*model.Composed, [][]float64) {
	b.Helper()
	w, err := fixture.Learned()
	if err != nil {
		b.Fatal(err)
	}
	c := w.C
	qs := make([][]float64, 64)
	for u := range qs {
		qs[u] = make([]float64, c.K())
		h := w.History.Users[u].Baskets
		c.BuildQueryInto(u, c.PrevBaskets(h, len(h)), qs[u])
	}
	return c, qs
}

// BenchmarkCategorySweepLearned is the served naive plan on the learned
// fixture: the category sweep, cycling through 64 users' queries.
func BenchmarkCategorySweepLearned(b *testing.B) {
	c, qs := learnedBenchQueries(b)
	st := vecmath.NewTopKStream(10)
	pl := infer.Plan{K: 10, MaxWorkers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := infer.ExecuteInto(context.Background(), c, qs[i%len(qs)], pl, st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCategorySweepLearnedDenseI8 is the reference for the learned
// pair: the dense two-stage int8 sweep over the same queries, written
// against exported calls — the quantized block sweep into a 2k+64
// candidate heap, then the exact rescore of the candidates.
func BenchmarkCategorySweepLearnedDenseI8(b *testing.B) {
	c, qs := learnedBenchQueries(b)
	ix := c.Index
	u := make([]int8, c.K())
	var rows [256]int32
	var scores [256]float64
	cand, st := vecmath.NewTopKStream(84), vecmath.NewTopKStream(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		qscale, sumQ, _ := vecmath.QuantizeQuery(u, q)
		cand.Reset(84)
		for lo := 0; lo < ix.NumItems(); lo += len(rows) {
			hi := min(lo+len(rows), ix.NumItems())
			tau := math.Inf(-1)
			if th, full := cand.Threshold(); full {
				tau = th
			}
			n := ix.ItemScoresRangeI8Above(u, qscale, sumQ, tau, lo, hi, rows[:], scores[:])
			for j, r := range rows[:n] {
				cand.Push(lo+int(r), scores[j])
			}
		}
		st.Reset(10)
		for _, e := range cand.Entries() {
			st.Push(e.ID, ix.ScoreItem(e.ID, q))
		}
		_ = st.Ranked()
	}
}

package tfrec

// The benchmark harness regenerates every figure of the paper's
// evaluation (§7) at the tiny scale and reports the figure's headline
// quantity via b.ReportMetric, so `go test -bench=. -benchmem` doubles as
// the reproduction run. DESIGN.md §4 maps figures to benches; run
// `tfrec-exp -fig all -scale small` (or medium) for the fuller tables
// recorded in EXPERIMENTS.md.
//
// Micro-benchmarks for the hot paths (SGD step, sibling pass, composed
// scoring, cascaded vs naive inference) follow the figure benches.

import (
	"context"
	"fmt"
	"io"
	"testing"

	"repro/internal/bpr"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/infer"
	"repro/internal/model"
	"repro/internal/synth"
	"repro/internal/taxonomy"
	"repro/internal/train"
	"repro/internal/vecmath"
)

func BenchmarkFig5_DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig5(io.Discard, experiments.Tiny())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Stats.AvgPurchasesPerUser, "purchases/user")
	}
}

func BenchmarkFig6a_TFvsMF_AUC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig6(io.Discard, experiments.Tiny())
		if err != nil {
			b.Fatal(err)
		}
		mfAUC, _, tfAUC, _ := res.BestAUC()
		b.ReportMetric(tfAUC, "tf-auc")
		b.ReportMetric(mfAUC, "mf-auc")
		if tfAUC <= mfAUC {
			b.Fatalf("Figure 6(a) shape violated: TF %.4f <= MF %.4f", tfAUC, mfAUC)
		}
	}
}

func BenchmarkFig6b_TFvsMF_MeanRank(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig6(io.Discard, experiments.Tiny())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TF[0].MeanRank, "tf-meanrank")
		b.ReportMetric(res.MF[0].MeanRank, "mf-meanrank")
	}
}

func BenchmarkFig6c_CategoryAUC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig6(io.Discard, experiments.Tiny())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TF[0].CatAUC, "tf-cat-auc")
	}
}

func BenchmarkFig6d_CategoryMeanRank(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig6(io.Discard, experiments.Tiny())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TF[0].CatMeanRank, "tf-cat-meanrank")
	}
}

func BenchmarkFig6e_TFvsFPMC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig6e(io.Discard, experiments.Tiny())
		if err != nil {
			b.Fatal(err)
		}
		fpmcAUC, _, tfAUC, _ := res.BestAUC()
		b.ReportMetric(tfAUC, "tf-auc")
		b.ReportMetric(fpmcAUC, "fpmc-auc")
	}
}

func BenchmarkFig7a_TaxonomyLevels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig7a(io.Discard, experiments.Tiny())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AUC[len(res.AUC)-1]-res.AUC[0], "tf4-minus-mf-auc")
	}
}

func BenchmarkFig7b_Sparsity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig7b(io.Discard, experiments.Tiny())
		if err != nil {
			b.Fatal(err)
		}
		gaps := res.Gap()
		b.ReportMetric(gaps[0], "sparse-gap")
		b.ReportMetric(gaps[len(gaps)-1], "dense-gap")
	}
}

func BenchmarkFig7c_ColdStart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig7c(io.Discard, experiments.Tiny())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TFCold[0], "tf-cold-auc")
		b.ReportMetric(res.MFCold[0], "mf-cold-auc")
	}
}

func BenchmarkFig7d_SiblingTraining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig7d(io.Discard, experiments.Tiny())
		if err != nil {
			b.Fatal(err)
		}
		var gain float64
		for i := range res.Factors {
			gain += res.WithSib[i] - res.WithoutSib[i]
		}
		b.ReportMetric(gain/float64(len(res.Factors)), "sibling-auc-gain")
	}
}

func BenchmarkFig7e_FactorClustering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig7e(io.Discard, experiments.Tiny())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.RawStats.Ratio(), "cluster-ratio")
	}
}

func BenchmarkFig7f_MarkovOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig7f(io.Discard, experiments.Tiny())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AUC[1]-res.AUC[0], "order1-gain")
		b.ReportMetric(res.AUC[3]-res.AUC[1], "order3-extra-gain")
	}
}

func BenchmarkFig8a_EpochTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig8ab(io.Discard, experiments.Tiny(), []int{1, 4})
		if err != nil {
			b.Fatal(err)
		}
		// system 1 = TF; report its single-thread epoch time
		b.ReportMetric(float64(res.EpochTime[1][0].Microseconds()), "tf-epoch-us")
		b.ReportMetric(float64(res.EpochTime[0][0].Microseconds()), "mf-epoch-us")
	}
}

func BenchmarkFig8b_Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig8ab(io.Discard, experiments.Tiny(), []int{1, 8})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Speedup[1][1], "tf-speedup@8")
	}
}

func BenchmarkFig8c_CascadedSweepAll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig8c(io.Discard, experiments.Tiny())
		if err != nil {
			b.Fatal(err)
		}
		// the paper's headline: ~80% of accuracy at ~50% of the time
		mid := len(res.KeepPct) / 2
		b.ReportMetric(res.AccRatio[mid], "acc-ratio@50pct")
		b.ReportMetric(res.TimeRatio[mid], "time-ratio@50pct")
	}
}

func BenchmarkFig8d_CascadedSweepLeaf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig8d(io.Discard, experiments.Tiny())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AccRatio[0], "acc-ratio@5pct")
		b.ReportMetric(res.AccRatio[len(res.AccRatio)-1], "acc-ratio@100pct")
	}
}

// ---- micro-benchmarks on the hot paths ----------------------------------

// benchWorld builds a fixed small world shared by the micro-benches.
func benchWorld(b *testing.B) (*taxonomy.Tree, *dataset.Dataset) {
	b.Helper()
	tree, err := taxonomy.Generate(taxonomy.GenConfig{
		CategoryLevels: []int{6, 24, 96},
		Items:          2400,
		Skew:           0.5,
	}, vecmath.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := synth.DefaultConfig()
	cfg.Users = 1000
	data, _, err := synth.Generate(tree, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return tree, data
}

func benchModel(b *testing.B, tree *taxonomy.Tree, users int, p model.Params) *model.TF {
	b.Helper()
	m, err := model.New(tree, users, p, vecmath.NewRNG(2))
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkSGDStepTF(b *testing.B) {
	tree, data := benchWorld(b)
	m := benchModel(b, tree, data.NumUsers(), model.Params{K: 20, TaxonomyLevels: 4, MarkovOrder: 1, Alpha: 1, InitStd: 0.01})
	st := bpr.NewStepper(m, bpr.PlainStores(m), bpr.StepConfig{LearnRate: 0.05, Lambda: 0.01}, vecmath.NewRNG(3))
	events := data.Events()
	rng := vecmath.NewRNG(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := events[rng.Intn(len(events))]
		h := data.Users[ev.User].Baskets
		prev := m.PrevBaskets(h, int(ev.Txn))
		j := st.SampleNegative(h[ev.Txn])
		st.Step(int(ev.User), int(ev.Item), j, prev)
	}
}

func BenchmarkSGDStepMF(b *testing.B) {
	tree, data := benchWorld(b)
	m := benchModel(b, tree, data.NumUsers(), model.Params{K: 20, TaxonomyLevels: 1, MarkovOrder: 0, Alpha: 1, InitStd: 0.01})
	st := bpr.NewStepper(m, bpr.PlainStores(m), bpr.StepConfig{LearnRate: 0.05, Lambda: 0.01}, vecmath.NewRNG(3))
	events := data.Events()
	rng := vecmath.NewRNG(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := events[rng.Intn(len(events))]
		h := data.Users[ev.User].Baskets
		j := st.SampleNegative(h[ev.Txn])
		st.Step(int(ev.User), int(ev.Item), j, nil)
	}
}

func BenchmarkSiblingPass(b *testing.B) {
	tree, data := benchWorld(b)
	m := benchModel(b, tree, data.NumUsers(), model.Params{K: 20, TaxonomyLevels: 4, MarkovOrder: 0, Alpha: 1, InitStd: 0.01})
	st := bpr.NewStepper(m, bpr.PlainStores(m), bpr.StepConfig{LearnRate: 0.05, Lambda: 0.01}, vecmath.NewRNG(3))
	rng := vecmath.NewRNG(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.SiblingPass(rng.Intn(m.NumUsers()), rng.Intn(m.NumItems()), nil)
	}
}

func BenchmarkCompose(b *testing.B) {
	tree, data := benchWorld(b)
	m := benchModel(b, tree, data.NumUsers(), model.Params{K: 20, TaxonomyLevels: 4, MarkovOrder: 1, Alpha: 1, InitStd: 0.01})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Compose()
	}
}

func BenchmarkNaiveInference(b *testing.B) {
	tree, data := benchWorld(b)
	m := benchModel(b, tree, data.NumUsers(), model.Params{K: 20, TaxonomyLevels: 4, MarkovOrder: 0, Alpha: 1, InitStd: 0.01})
	c := m.Compose()
	q := make([]float64, 20)
	vecmath.NewRNG(5).NormFloat64()
	for k := range q {
		q[k] = float64(k%5) - 2
	}
	pl := infer.Plan{K: 10, Precision: model.PrecisionF64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := infer.Execute(context.Background(), c, q, pl); err != nil {
			b.Fatal(err)
		}
	}
}

// legacyNaiveTopK reproduces the pre-index serving path — materialize a
// catalog-sized []Scored via per-item tree-indirected Row lookups, then
// rank it — as the baseline the streaming ScoringIndex sweep is measured
// against.
func legacyNaiveTopK(c *model.Composed, q []float64, k int) []vecmath.Scored {
	scores := make([]vecmath.Scored, c.NumItems())
	for item := 0; item < c.NumItems(); item++ {
		node := c.Tree.ItemNode(item)
		s := vecmath.Dot(q, c.EffNode.Row(node))
		if c.P.UseBias {
			s += c.EffBias.Row(node)[0]
		}
		scores[item] = vecmath.Scored{ID: item, Score: s}
	}
	return vecmath.TopK(scores, k)
}

func benchComposedForTopK(b *testing.B) (*model.Composed, []float64) {
	tree, data := benchWorld(b)
	m := benchModel(b, tree, data.NumUsers(), model.Params{K: 20, TaxonomyLevels: 4, MarkovOrder: 0, Alpha: 1, InitStd: 0.01})
	q := make([]float64, 20)
	for k := range q {
		q[k] = float64(k%5) - 2
	}
	return m.Compose(), q
}

// sweepTopK is the raw serial f64 sweep the plan executor's dense engine
// runs — 256-item blocks scored by ItemScoresRangeInto, streamed through
// the collector's threshold — written against exported calls only, so
// the benchgate canary measures the kernel and heap without the executor
// in front of them.
func sweepTopK(c *model.Composed, q []float64, st *vecmath.TopKStream) {
	var block [256]float64
	n := c.Index.NumItems()
	th, full := st.Threshold()
	for lo := 0; lo < n; lo += len(block) {
		buf := block[:min(len(block), n-lo)]
		c.Index.ItemScoresRangeInto(q, lo, lo+len(buf), buf)
		for i, s := range buf {
			if full && s < th {
				continue
			}
			st.Push(lo+i, s)
			th, full = st.Threshold()
		}
	}
}

func BenchmarkTopKLegacyFullScan(b *testing.B) {
	c, q := benchComposedForTopK(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		legacyNaiveTopK(c, q, 10)
	}
}

func BenchmarkTopKIndexStreaming(b *testing.B) {
	c, q := benchComposedForTopK(b)
	st := vecmath.NewTopKStream(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Reset(10)
		sweepTopK(c, q, st)
		_ = st.Ranked()
	}
}

// The parallel pair measures serving throughput with all cores busy — the
// regime the ROADMAP's heavy-traffic target cares about — where the legacy
// path's 41KB/query of garbage also costs GC time across the fleet.
func BenchmarkTopKLegacyFullScanParallel(b *testing.B) {
	c, q := benchComposedForTopK(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			legacyNaiveTopK(c, q, 10)
		}
	})
}

func BenchmarkTopKIndexStreamingParallel(b *testing.B) {
	c, q := benchComposedForTopK(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		st := vecmath.NewTopKStream(10)
		for pb.Next() {
			st.Reset(10)
			sweepTopK(c, q, st)
			_ = st.Ranked()
		}
	})
}

// BenchmarkDiversifiedInference runs the quota plan at every precision
// tier: diversified rides the naive sweep, so int8 must come in at or
// under f64 here, as it does for the plain sweep.
func BenchmarkDiversifiedInference(b *testing.B) {
	c, q := benchComposedForTopK(b)
	for _, prec := range []model.Precision{model.PrecisionF64, model.PrecisionInt8} {
		b.Run(prec.String(), func(b *testing.B) {
			pl := infer.Plan{Strategy: infer.StrategyDiversified, K: 10, Precision: prec,
				Diversify: &infer.Diversify{MaxPerCategory: 2, CatDepth: c.Tree.Depth() - 1}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := infer.Execute(context.Background(), c, q, pl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCascadedInference(b *testing.B) {
	tree, data := benchWorld(b)
	m := benchModel(b, tree, data.NumUsers(), model.Params{K: 20, TaxonomyLevels: 4, MarkovOrder: 0, Alpha: 1, InitStd: 0.01})
	c := m.Compose()
	q := make([]float64, 20)
	for k := range q {
		q[k] = float64(k%5) - 2
	}
	cfg := infer.UniformCascade(tree.Depth(), 0.2)
	pl := infer.Plan{Strategy: infer.StrategyCascade, K: 10, Precision: model.PrecisionF64, Cascade: &cfg}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := infer.Execute(context.Background(), c, q, pl); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelEvaluation measures the §6.2 user-partitioned
// evaluation (the paper used Hadoop; we shard users over goroutines).
func BenchmarkParallelEvaluation(b *testing.B) {
	tree, data := benchWorld(b)
	m := benchModel(b, tree, data.NumUsers(), model.Params{K: 20, TaxonomyLevels: 4, MarkovOrder: 0, Alpha: 1, InitStd: 0.01})
	c := m.Compose()
	split := data.Split(dataset.DefaultSplitConfig())
	history := dataset.Concat(split.Train, split.Validation)
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := eval.Config{T: 1, CategoryDepth: 1, Workers: workers}
			for i := 0; i < b.N; i++ {
				res := eval.Evaluate(c, history, split.Test, cfg)
				if res.Users == 0 {
					b.Fatal("nothing evaluated")
				}
			}
		})
	}
}

func BenchmarkTrainEpochSerial(b *testing.B) {
	tree, data := benchWorld(b)
	m := benchModel(b, tree, data.NumUsers(), model.Params{K: 20, TaxonomyLevels: 4, MarkovOrder: 0, Alpha: 1, InitStd: 0.01})
	cfg := train.DefaultConfig()
	cfg.Epochs = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := train.Train(m, data, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainEpochParallel8(b *testing.B) {
	tree, data := benchWorld(b)
	m := benchModel(b, tree, data.NumUsers(), model.Params{K: 20, TaxonomyLevels: 4, MarkovOrder: 0, Alpha: 1, InitStd: 0.01})
	cfg := train.DefaultConfig()
	cfg.Epochs = 1
	cfg.Workers = 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := train.Train(m, data, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

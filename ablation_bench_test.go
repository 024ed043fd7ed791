package tfrec

// Ablation benchmarks for the design choices DESIGN.md §6 calls out. Each
// reports the quality (or cost) consequence of one knob via
// b.ReportMetric; run with `go test -bench=Ablation`.

import (
	"testing"

	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/train"
	"repro/internal/vecmath"
)

// ablationWorld builds one deterministic tiny workload reused across the
// ablations in a single bench invocation.
func ablationWorld(b *testing.B) *experiments.Workload {
	b.Helper()
	w, err := experiments.BuildWorkload(experiments.Tiny(), 0.5)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// ablationTrain fits TF(4,0)-style params with the given tweaks and
// returns the product-level AUC.
func ablationTrain(b *testing.B, w *experiments.Workload, p model.Params, cfg train.Config) float64 {
	b.Helper()
	m, err := model.New(w.Tree, w.Log.NumUsers(), p, vecmath.NewRNG(71))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := train.Train(m, w.History, cfg); err != nil {
		b.Fatal(err)
	}
	res := eval.Evaluate(m.Compose(), w.History, w.Split.Test, eval.DefaultConfig())
	return res.AUC
}

func tinyParams(w *experiments.Workload) model.Params {
	return model.Params{K: 8, TaxonomyLevels: w.MaxU(), MarkovOrder: 0, Alpha: 1, InitStd: 0.01}
}

func tinyTrainCfg() train.Config {
	sc := experiments.Tiny()
	return sc.TrainConfig()
}

// BenchmarkAblationSiblingMix sweeps the random/sibling mixing ratio;
// Figure 7(d) is the {0, 0.5} endpoints.
func BenchmarkAblationSiblingMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := ablationWorld(b)
		for _, mix := range []float64{0, 0.25, 0.5, 1.0} {
			cfg := tinyTrainCfg()
			cfg.SiblingMix = mix
			auc := ablationTrain(b, w, tinyParams(w), cfg)
			b.ReportMetric(auc, "auc@mix="+fmtFloat(mix))
		}
	}
}

// BenchmarkAblationDecay compares the paper's exponential α_n decay with a
// uniform window at Markov order 3.
func BenchmarkAblationDecay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := ablationWorld(b)
		for _, uniform := range []bool{false, true} {
			p := tinyParams(w)
			p.MarkovOrder = 3
			p.UniformDecay = uniform
			auc := ablationTrain(b, w, p, tinyTrainCfg())
			name := "auc-expdecay"
			if uniform {
				name = "auc-uniformdecay"
			}
			b.ReportMetric(auc, name)
		}
	}
}

// BenchmarkAblationRegularization compares the offset-wise Gaussian prior
// (default) with the paper's literal Eq. 6 effective-factor shrinkage.
func BenchmarkAblationRegularization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := ablationWorld(b)
		for _, eff := range []bool{false, true} {
			cfg := tinyTrainCfg()
			cfg.RegularizeEffective = eff
			auc := ablationTrain(b, w, tinyParams(w), cfg)
			name := "auc-offset-reg"
			if eff {
				name = "auc-effective-reg"
			}
			b.ReportMetric(auc, name)
		}
	}
}

// BenchmarkAblationBias measures the §2.1 popularity-bias extension.
func BenchmarkAblationBias(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := ablationWorld(b)
		for _, bias := range []bool{false, true} {
			p := tinyParams(w)
			p.UseBias = bias
			auc := ablationTrain(b, w, p, tinyTrainCfg())
			name := "auc-nobias"
			if bias {
				name = "auc-bias"
			}
			b.ReportMetric(auc, name)
		}
	}
}

// BenchmarkAblationQueryPrecompute measures the win from the composed-
// snapshot scoring path (one dot per item) against per-item path
// composition — the "query-vector precomputation" row of DESIGN.md §6.
func BenchmarkAblationQueryPrecompute(b *testing.B) {
	w := ablationWorld(b)
	m, err := model.New(w.Tree, w.Log.NumUsers(), tinyParams(w), vecmath.NewRNG(71))
	if err != nil {
		b.Fatal(err)
	}
	c := m.Compose()
	q := make([]float64, m.K())
	m.BuildQueryInto(0, nil, q)
	scores := make([]float64, m.NumItems())
	b.Run("composed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.ItemScoresInto(q, scores)
		}
	})
	b.Run("pathwalk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for item := 0; item < m.NumItems(); item++ {
				scores[item] = m.Score(q, item)
			}
		}
	})
}

// fmtFloat renders a float compactly for metric labels.
func fmtFloat(f float64) string {
	switch f {
	case 0:
		return "0"
	case 0.01:
		return "0.01"
	case 0.1:
		return "0.1"
	case 0.25:
		return "0.25"
	case 0.5:
		return "0.5"
	case 1.0:
		return "1"
	}
	return "x"
}

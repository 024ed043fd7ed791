package train

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/synth"
	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

// testWorkload builds a small taxonomy + synthetic log shared by the
// trainer tests.
func testWorkload(t *testing.T) (*taxonomy.Tree, *dataset.Dataset) {
	t.Helper()
	tree := taxonomy.MustGenerate(taxonomy.GenConfig{
		CategoryLevels: []int{3, 9, 27},
		Items:          300,
		Skew:           0.4,
	}, vecmath.NewRNG(21))
	cfg := synth.DefaultConfig()
	cfg.Users = 300
	cfg.MeanTxns = 5
	d, _, err := synth.Generate(tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tree, d
}

func newModel(t *testing.T, tree *taxonomy.Tree, users int, p model.Params) *model.TF {
	t.Helper()
	m, err := model.New(tree, users, p, vecmath.NewRNG(31))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// heldOutPairAccuracy measures, over the users' last transactions, how
// often the model scores a bought item above a random unbought item — a
// cheap stand-in for AUC used to verify training actually learns.
func heldOutPairAccuracy(m *model.TF, d *dataset.Dataset) float64 {
	rng := vecmath.NewRNG(99)
	q := make([]float64, m.K())
	correct, total := 0, 0
	for u := range d.Users {
		baskets := d.Users[u].Baskets
		if len(baskets) < 2 {
			continue
		}
		t := len(baskets) - 1
		m.BuildQueryInto(u, m.PrevBaskets(baskets, t), q)
		for _, pos := range baskets[t] {
			neg := int32(rng.Intn(d.NumItems))
			for baskets[t].Contains(neg) {
				neg = int32(rng.Intn(d.NumItems))
			}
			if m.Score(q, int(pos)) > m.Score(q, int(neg)) {
				correct++
			}
			total++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

func TestTrainImprovesRanking(t *testing.T) {
	tree, d := testWorkload(t)
	m := newModel(t, tree, d.NumUsers(), model.Params{K: 8, TaxonomyLevels: 4, InitStd: 0.01, Alpha: 1})
	before := heldOutPairAccuracy(m, d)
	cfg := DefaultConfig()
	cfg.Epochs = 15
	if _, err := Train(m, d, cfg); err != nil {
		t.Fatal(err)
	}
	after := heldOutPairAccuracy(m, d)
	if after < before+0.15 || after < 0.7 {
		t.Fatalf("training barely helped: %.3f -> %.3f", before, after)
	}
}

func TestTrainLogLikelihoodClimbs(t *testing.T) {
	tree, d := testWorkload(t)
	m := newModel(t, tree, d.NumUsers(), model.Params{K: 8, TaxonomyLevels: 4, InitStd: 0.01, Alpha: 1})
	cfg := DefaultConfig()
	cfg.Epochs = 10
	stats, err := Train(m, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.AvgLogLik) != 10 || len(stats.EpochTime) != 10 {
		t.Fatalf("stats lengths wrong: %d %d", len(stats.AvgLogLik), len(stats.EpochTime))
	}
	first, last := stats.AvgLogLik[0], stats.AvgLogLik[9]
	if last <= first {
		t.Fatalf("log-likelihood did not climb: %v -> %v", first, last)
	}
	if stats.Samples != int64(10*d.NumPurchases()) {
		t.Fatalf("Samples = %d, want %d", stats.Samples, 10*d.NumPurchases())
	}
}

func TestTrainSerialDeterminism(t *testing.T) {
	tree, d := testWorkload(t)
	run := func() *model.TF {
		m := newModel(t, tree, d.NumUsers(), model.Params{K: 6, TaxonomyLevels: 3, MarkovOrder: 1, Alpha: 1, InitStd: 0.01})
		cfg := DefaultConfig()
		cfg.Epochs = 3
		if _, err := Train(m, d, cfg); err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if a.Node.MaxAbsDiff(b.Node) != 0 || a.User.MaxAbsDiff(b.User) != 0 || a.Next.MaxAbsDiff(b.Next) != 0 {
		t.Fatal("serial training must be deterministic for a fixed seed")
	}
}

func TestTrainParallelLearns(t *testing.T) {
	tree, d := testWorkload(t)
	m := newModel(t, tree, d.NumUsers(), model.Params{K: 8, TaxonomyLevels: 4, InitStd: 0.01, Alpha: 1})
	cfg := DefaultConfig()
	cfg.Epochs = 15
	cfg.Workers = 4
	if _, err := Train(m, d, cfg); err != nil {
		t.Fatal(err)
	}
	if acc := heldOutPairAccuracy(m, d); acc < 0.7 {
		t.Fatalf("parallel training reached only %.3f pair accuracy", acc)
	}
}

// The acceptance test of the round engine's race-freedom: run it under
// go test -race. Markov order 1 and biases put every overlay to work.
func TestTrainParallelMarkovBiasLearns(t *testing.T) {
	tree, d := testWorkload(t)
	m := newModel(t, tree, d.NumUsers(), model.Params{K: 8, TaxonomyLevels: 4, MarkovOrder: 1, Alpha: 1, InitStd: 0.01, UseBias: true})
	cfg := DefaultConfig()
	cfg.Epochs = 15
	cfg.Workers = 4
	stats, err := Train(m, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Samples != int64(15*d.NumPurchases()) {
		t.Fatalf("Samples = %d, want %d", stats.Samples, 15*d.NumPurchases())
	}
	if acc := heldOutPairAccuracy(m, d); acc < 0.7 {
		t.Fatalf("parallel markov+bias training reached only %.3f pair accuracy", acc)
	}
}

// sameFactors reports whether two models hold bitwise-identical factors.
func sameFactors(a, b *model.TF) bool {
	return a.User.MaxAbsDiff(b.User) == 0 && a.Node.MaxAbsDiff(b.Node) == 0 &&
		a.Next.MaxAbsDiff(b.Next) == 0 && a.Bias.MaxAbsDiff(b.Bias) == 0
}

func TestTrainParallelDeterminism(t *testing.T) {
	tree, d := testWorkload(t)
	p := model.Params{K: 6, TaxonomyLevels: 3, MarkovOrder: 1, Alpha: 1, InitStd: 0.01, UseBias: true}
	for _, workers := range []int{2, 4} {
		run := func() (*model.TF, *Stats) {
			m := newModel(t, tree, d.NumUsers(), p)
			cfg := DefaultConfig()
			cfg.Epochs = 3
			cfg.Workers = workers
			stats, err := Train(m, d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return m, stats
		}
		a, sa := run()
		b, sb := run()
		if !sameFactors(a, b) {
			t.Fatalf("workers=%d: two runs with one seed trained different factors", workers)
		}
		for e := range sa.AvgLogLik {
			if sa.AvgLogLik[e] != sb.AvgLogLik[e] {
				t.Fatalf("workers=%d: epoch %d log-likelihood %v vs %v", workers, e, sa.AvgLogLik[e], sb.AvgLogLik[e])
			}
		}
	}
}

// The differential oracle for the overlays and the merge: one worker in
// the round engine must reproduce the serial trainer bit for bit, across
// round and epoch boundaries and the learning-rate schedule.
func TestTrainRoundEngineMatchesSerial(t *testing.T) {
	tree, d := testWorkload(t)
	p := model.Params{K: 6, TaxonomyLevels: 4, MarkovOrder: 2, Alpha: 1, InitStd: 0.01, UseBias: true}
	run := func(forceLocked bool) (*model.TF, *Stats) {
		m := newModel(t, tree, d.NumUsers(), p)
		cfg := DefaultConfig()
		cfg.Epochs = 3
		cfg.LearnRateDecay = 0.5
		cfg.SamplesPerEpoch = 5*roundSamples + 17 // rounds of unequal length
		cfg.ForceLocked = forceLocked
		stats, err := Train(m, d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m, stats
	}
	serial, ss := run(false)
	rounds, rs := run(true)
	if !sameFactors(serial, rounds) {
		t.Fatal("one-worker round engine diverged from the serial trainer")
	}
	for e := range ss.AvgLogLik {
		if ss.AvgLogLik[e] != rs.AvgLogLik[e] {
			t.Fatalf("epoch %d log-likelihood %v (serial) vs %v (rounds)", e, ss.AvgLogLik[e], rs.AvgLogLik[e])
		}
	}
}

func TestTrainMarkovModelLearns(t *testing.T) {
	tree, d := testWorkload(t)
	m := newModel(t, tree, d.NumUsers(), model.Params{K: 8, TaxonomyLevels: 4, MarkovOrder: 1, Alpha: 1, InitStd: 0.01})
	cfg := DefaultConfig()
	cfg.Epochs = 15
	if _, err := Train(m, d, cfg); err != nil {
		t.Fatal(err)
	}
	if acc := heldOutPairAccuracy(m, d); acc < 0.7 {
		t.Fatalf("markov model reached only %.3f pair accuracy", acc)
	}
}

func TestTrainRejectsBadConfig(t *testing.T) {
	tree, d := testWorkload(t)
	m := newModel(t, tree, d.NumUsers(), model.Params{K: 4, TaxonomyLevels: 1, InitStd: 0.01, Alpha: 1})
	bad := []Config{
		{Epochs: 0, LearnRate: 0.1},
		{Epochs: 1, LearnRate: 0},
		{Epochs: 1, LearnRate: 0.1, SiblingMix: 1.5},
	}
	for i, cfg := range bad {
		if _, err := Train(m, d, cfg); err == nil {
			t.Errorf("case %d: expected config error", i)
		}
	}
	// mismatched dataset
	other := &dataset.Dataset{NumItems: 5, Users: []dataset.History{{Baskets: []dataset.Basket{{1}}}}}
	if _, err := Train(m, other, DefaultConfig()); err == nil {
		t.Error("expected item-count mismatch error")
	}
	empty := &dataset.Dataset{NumItems: d.NumItems, Users: make([]dataset.History, d.NumUsers())}
	if _, err := Train(m, empty, DefaultConfig()); err == nil {
		t.Error("expected empty-dataset error")
	}
}

func TestLearnRateDecaySchedule(t *testing.T) {
	cfg := Config{LearnRate: 0.1, LearnRateDecay: 1}
	if r := epochRate(cfg, 0); r != 0.1 {
		t.Fatalf("epoch 0 rate = %v", r)
	}
	if r := epochRate(cfg, 4); r != 0.02 {
		t.Fatalf("epoch 4 rate = %v, want 0.02", r)
	}
	cfg.LearnRateDecay = 0
	if r := epochRate(cfg, 100); r != 0.1 {
		t.Fatalf("no-decay rate = %v", r)
	}
}

func TestSearchLambdaPicksBest(t *testing.T) {
	tree, d := testWorkload(t)
	split := d.Split(dataset.DefaultSplitConfig())
	build := func() (*model.TF, error) {
		return model.New(tree, d.NumUsers(), model.Params{K: 6, TaxonomyLevels: 3, InitStd: 0.01, Alpha: 1}, vecmath.NewRNG(31))
	}
	cfg := DefaultConfig()
	cfg.Epochs = 5
	lambdas := []float64{0.001, 10.0} // 10.0 will crush the factors
	score := func(m *model.TF) float64 { return heldOutPairAccuracy(m, split.Validation) }
	best, scores, err := SearchLambda(lambdas, build, split.Train, cfg, score)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 2 {
		t.Fatalf("scores = %v", scores)
	}
	if best != 0.001 {
		t.Fatalf("SearchLambda picked %v (scores %v); λ=10 should be hopeless", best, scores)
	}
	if _, _, err := SearchLambda(nil, build, split.Train, cfg, score); err == nil {
		t.Fatal("expected error for empty candidate list")
	}
}

func TestMeanEpochTime(t *testing.T) {
	s := &Stats{EpochTime: nil}
	if s.MeanEpochTime() != 0 {
		t.Fatal("empty stats should have zero mean epoch time")
	}
}

func TestTrainOnEpochEarlyStop(t *testing.T) {
	tree, d := testWorkload(t)
	m := newModel(t, tree, d.NumUsers(), model.Params{K: 4, TaxonomyLevels: 2, InitStd: 0.01, Alpha: 1})
	cfg := DefaultConfig()
	cfg.Epochs = 50
	calls := 0
	cfg.OnEpoch = func(epoch int, ll float64) bool {
		calls++
		return epoch >= 4 // stop after 5 epochs
	}
	stats, err := Train(m, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 5 {
		t.Fatalf("callback ran %d times, want 5", calls)
	}
	if len(stats.AvgLogLik) != 5 {
		t.Fatalf("recorded %d epochs, want 5", len(stats.AvgLogLik))
	}
	// parallel path honours it too
	m2 := newModel(t, tree, d.NumUsers(), model.Params{K: 4, TaxonomyLevels: 2, InitStd: 0.01, Alpha: 1})
	cfg.Workers = 4
	calls = 0
	stats2, err := Train(m2, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats2.AvgLogLik) != 5 || calls != 5 {
		t.Fatalf("parallel early stop broken: %d epochs, %d calls", len(stats2.AvgLogLik), calls)
	}
}

func TestTrainDetectsDivergence(t *testing.T) {
	tree, d := testWorkload(t)
	m := newModel(t, tree, d.NumUsers(), model.Params{K: 8, TaxonomyLevels: 4, InitStd: 0.1, Alpha: 1})
	cfg := DefaultConfig()
	cfg.Epochs = 8
	cfg.LearnRate = 1e6 // guaranteed blow-up
	cfg.Lambda = 0
	if _, err := Train(m, d, cfg); err == nil {
		t.Fatal("expected divergence error for an absurd learning rate")
	}
	m2 := newModel(t, tree, d.NumUsers(), model.Params{K: 8, TaxonomyLevels: 4, InitStd: 0.1, Alpha: 1})
	cfg.Workers = 2
	if _, err := Train(m2, d, cfg); err == nil {
		t.Fatal("expected divergence error on the parallel path")
	}
}

func TestTrainForceLockedMatchesQuality(t *testing.T) {
	tree, d := testWorkload(t)
	m := newModel(t, tree, d.NumUsers(), model.Params{K: 8, TaxonomyLevels: 4, InitStd: 0.01, Alpha: 1})
	cfg := DefaultConfig()
	cfg.Epochs = 15
	cfg.ForceLocked = true // 1 worker through the round engine
	if _, err := Train(m, d, cfg); err != nil {
		t.Fatal(err)
	}
	if acc := heldOutPairAccuracy(m, d); acc < 0.7 {
		t.Fatalf("single-worker round-engine training reached only %.3f", acc)
	}
}

func TestTrainWithBiasAndEffectiveReg(t *testing.T) {
	tree, d := testWorkload(t)
	m := newModel(t, tree, d.NumUsers(), model.Params{K: 8, TaxonomyLevels: 4, InitStd: 0.01, Alpha: 1, UseBias: true})
	cfg := DefaultConfig()
	cfg.Epochs = 15
	cfg.RegularizeEffective = true
	if _, err := Train(m, d, cfg); err != nil {
		t.Fatal(err)
	}
	if acc := heldOutPairAccuracy(m, d); acc < 0.7 {
		t.Fatalf("bias+effective-reg training reached only %.3f", acc)
	}
	// biases actually moved
	var norm float64
	for node := 0; node < tree.NumNodes(); node++ {
		norm += m.Bias.Row(node)[0] * m.Bias.Row(node)[0]
	}
	if norm == 0 {
		t.Fatal("UseBias training left all biases at zero")
	}
}

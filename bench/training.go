package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/model"
	"repro/internal/synth"
	"repro/internal/taxonomy"
	"repro/internal/train"
	"repro/internal/vecmath"
)

// trainSpec describes the training half of a workload: a synthetic
// purchase world, the paper's TF(4,1) model over it, and how much SGD to
// run. Work is fixed per second of run length, never time-boxed, so the
// held-out AUC of two commits compares the same number of updates.
type trainSpec struct {
	levels   []int
	items    int
	users    int
	meanTxns float64
	k        int
	// epochsPerSecond x run seconds = epochs (at least two).
	epochsPerSecond float64
	// serial trains on one worker whatever the machine has.
	serial bool
}

// workers is the trainer's goroutine count on an nproc-core machine.
func (s trainSpec) workers(nproc int) int {
	if s.serial {
		return 1
	}
	return min(nproc, 4)
}

// epochs returns the fixed epoch count for a run of the given length.
func (s trainSpec) epochs(seconds float64) int {
	return max(2, int(math.Round(s.epochsPerSecond*seconds)))
}

// quick shrinks the purchase world to smoke-test size.
func (s trainSpec) quick() trainSpec {
	s.levels = []int{4, 12, 40}
	s.items, s.users = 1500, 800
	return s
}

// trainWorld is a generated purchase world, split the paper's way.
type trainWorld struct {
	tree    *taxonomy.Tree
	log     *dataset.Dataset
	split   dataset.Split
	history *dataset.Dataset // train + validation: what the model may see
	genTime time.Duration    // synth.Generate alone
}

// buildTrainWorld generates the taxonomy and the purchase log from seed.
func buildTrainWorld(spec trainSpec, seed uint64) (*trainWorld, error) {
	tree, err := taxonomy.Generate(taxonomy.GenConfig{
		CategoryLevels: spec.levels, Items: spec.items, Skew: 0.6,
	}, vecmath.NewRNG(subSeed(seed, 40)))
	if err != nil {
		return nil, err
	}
	cfg := synth.DefaultConfig()
	cfg.Users, cfg.MeanTxns, cfg.Seed = spec.users, spec.meanTxns, subSeed(seed, 41)
	start := time.Now()
	log, _, err := synth.Generate(tree, cfg)
	if err != nil {
		return nil, err
	}
	tw := &trainWorld{tree: tree, log: log, genTime: time.Since(start)}
	sc := dataset.DefaultSplitConfig()
	sc.Seed = subSeed(seed, 42)
	tw.split = log.Split(sc)
	tw.history = dataset.Concat(tw.split.Train, tw.split.Validation)
	return tw, nil
}

// newModel allocates the untrained TF(4,1) model for the world.
func (tw *trainWorld) newModel(spec trainSpec, seed uint64) (*model.TF, error) {
	p := model.Params{K: spec.k, TaxonomyLevels: 4, MarkovOrder: 1, Alpha: 1, InitStd: 0.01}
	return model.New(tw.tree, tw.log.NumUsers(), p, vecmath.NewRNG(subSeed(seed, 43)))
}

// trainConfig is the paper's recipe: ε=0.05, λ=0.005, an even
// random/sibling mix, and the §6.1 interior-row caches at threshold 0.1.
func trainConfig(epochs, workers int, seed uint64) train.Config {
	return train.Config{
		Epochs: epochs, LearnRate: 0.05, Lambda: 0.005, SiblingMix: 0.5,
		CacheThreshold: 0.1, Workers: workers, Seed: subSeed(seed, 44),
	}
}

// trainOutcome is one measured training run and its evaluation.
type trainOutcome struct {
	m        *model.TF
	c        *model.Composed
	stats    *train.Stats
	badEpoch int // epochs whose log-likelihood was not finite
	compose  time.Duration
	evalTime time.Duration
	res      eval.Result
}

// samplesPerSecond is the SGD rate of the median epoch: every epoch
// draws the same number of samples, and the median epoch time shrugs off
// the epoch a collection or a host hiccup landed in.
func (o *trainOutcome) samplesPerSecond() float64 {
	secs := make([]float64, len(o.stats.EpochTime))
	for i, d := range o.stats.EpochTime {
		secs[i] = d.Seconds()
	}
	return float64(o.stats.Samples) / float64(len(secs)) / median(secs)
}

// runTraining trains a fresh model for the fixed epoch count, composes
// it and evaluates it (on every core) on the held-out split, T=1 as the
// paper does.
func runTraining(tw *trainWorld, spec trainSpec, epochs, nproc int, seed uint64) (*trainOutcome, error) {
	m, err := tw.newModel(spec, seed)
	if err != nil {
		return nil, err
	}
	out := &trainOutcome{m: m}
	out.stats, err = train.Train(m, tw.history, trainConfig(epochs, spec.workers(nproc), seed))
	if out.stats == nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	for _, ll := range out.stats.AvgLogLik {
		if math.IsNaN(ll) || math.IsInf(ll, 0) {
			out.badEpoch++
		}
	}
	start := time.Now()
	out.c = m.Compose()
	out.compose = time.Since(start)
	start = time.Now()
	out.res = eval.Evaluate(out.c, tw.history, tw.split.Test, eval.Config{T: 1, CategoryDepth: 1, Workers: nproc})
	out.evalTime = time.Since(start)
	return out, nil
}

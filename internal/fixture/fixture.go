// Package fixture builds the learned world the exactness suites and the
// category sweep benchmark share: a TF(4,1) model trained on a synthetic
// purchase log with the shape of the benchmark's training probe
// (8/36/160 categories, 6k items, K=20) for five serial epochs. Trained
// factors cluster by category — the regime the category sweep is built
// for, and the opposite of random-init worlds. Training on one worker
// makes every build the same bits.
package fixture

import (
	"sync"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/synth"
	"repro/internal/taxonomy"
	"repro/internal/train"
	"repro/internal/vecmath"
)

// World is the learned world: the composed model and the purchase log it
// was trained on.
type World struct {
	C       *model.Composed
	History *dataset.Dataset
}

var (
	once    sync.Once
	learned *World
	err     error
)

// Learned returns the learned world, built on first use (about half a
// second) and shared by every later call in the process.
func Learned() (*World, error) {
	once.Do(func() { learned, err = build() })
	return learned, err
}

func build() (*World, error) {
	tree, err := taxonomy.Generate(taxonomy.GenConfig{
		CategoryLevels: []int{8, 36, 160}, Items: 6000, Skew: 0.6,
	}, vecmath.NewRNG(4040))
	if err != nil {
		return nil, err
	}
	cfg := synth.DefaultConfig()
	cfg.Users, cfg.MeanTxns, cfg.Seed = 4000, 6, 4041
	log, _, err := synth.Generate(tree, cfg)
	if err != nil {
		return nil, err
	}
	p := model.Params{K: 20, TaxonomyLevels: 4, MarkovOrder: 1, Alpha: 1, InitStd: 0.01}
	m, err := model.New(tree, log.NumUsers(), p, vecmath.NewRNG(4042))
	if err != nil {
		return nil, err
	}
	tc := train.Config{Epochs: 5, LearnRate: 0.05, Lambda: 0.005, SiblingMix: 0.5, Workers: 1, Seed: 4043}
	if _, err := train.Train(m, log, tc); err != nil {
		return nil, err
	}
	return &World{C: m.Compose(), History: log}, nil
}

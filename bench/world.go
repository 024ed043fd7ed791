package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/synth"
	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

// worldSpec describes a served world: a taxonomy, a TF model over it
// with seeded random factors (serving cost does not depend on whether
// the factors were trained, and training 100k x 64 would dwarf the run),
// and optionally a purchase log backing exclude_purchased.
type worldSpec struct {
	name      string
	levels    []int // category level sizes, top down
	items     int
	skew      float64 // Zipf exponent of the children-per-parent spread
	k         int
	taxLevels int
	markov    int
	users     int
	initStd   float64
	// biasStd is the std of every trained node's bias offset; level1Std,
	// when > 0, replaces it on level 1 so whole subtrees separate and the
	// branch-and-bound envelopes have something to prune.
	biasStd   float64
	level1Std float64
	// history makes the world carry a synth purchase log (WithHistory).
	history bool
}

var (
	// wideWorld is the bandwidth-bound regime: the f32 item slab is
	// ~25 MB, past every private cache, and random factors leave the
	// taxonomy envelopes loose.
	wideWorld = worldSpec{
		name: "wide", levels: []int{8, 64, 512}, items: 100000, skew: 0.4,
		k: 64, taxLevels: 4, markov: 1, users: 50000, initStd: 0.1, biasStd: 0.1,
	}
	// skewedWorld separates level-1 subtrees by bias so pruning, category
	// filters and quota plans do taxonomy-dependent work.
	skewedWorld = worldSpec{
		name: "skewed", levels: []int{16, 128, 1024}, items: 100000, skew: 0.3,
		k: 32, taxLevels: 4, markov: 1, users: 5000, initStd: 0.05, biasStd: 0.05,
		level1Std: 2, history: true,
	}
)

// quick shrinks a world to smoke-test size (<= 2k items).
func (s worldSpec) quick() worldSpec {
	s.levels = []int{4, 16, 64}
	s.items = 2000
	s.users = 600
	if s.k > 16 {
		s.k = 16
	}
	return s
}

// subSeed derives an independent stream seed from the run seed.
func subSeed(seed uint64, stream uint64) uint64 {
	return seed*0x9E3779B97F4A7C15 + stream*0xBF58476D1CE4E5B9 + 1
}

// world is a generated worldSpec: the model (which carries its taxonomy)
// and, when the spec asks for one, the purchase log.
type world struct {
	model *model.TF
	log   *dataset.Dataset
}

// buildWorld generates the taxonomy, the model and (if asked) the log,
// all from seed.
func buildWorld(spec worldSpec, seed uint64) (*world, error) {
	tree, err := taxonomy.Generate(taxonomy.GenConfig{
		CategoryLevels: spec.levels, Items: spec.items, Skew: spec.skew,
	}, vecmath.NewRNG(subSeed(seed, 1)))
	if err != nil {
		return nil, err
	}
	p := model.Params{
		K: spec.k, TaxonomyLevels: spec.taxLevels, MarkovOrder: spec.markov,
		Alpha: 1, InitStd: spec.initStd, UseBias: true,
	}
	m, err := model.New(tree, spec.users, p, vecmath.NewRNG(subSeed(seed, 2)))
	if err != nil {
		return nil, err
	}
	// model.New leaves biases at zero (they are learned); draw them so
	// the bias path and the subtree envelopes carry signal.
	rng := vecmath.NewRNG(subSeed(seed, 3))
	for d := 1; d <= tree.Depth(); d++ {
		std := spec.biasStd
		if d == 1 && spec.level1Std > 0 {
			std = spec.level1Std
		}
		for _, n := range tree.Level(d) {
			if m.TrainedNode(int(n)) {
				m.Bias.Row(int(n))[0] = std * rng.NormFloat64()
			}
		}
	}
	w := &world{model: m}
	if spec.history {
		cfg := synth.DefaultConfig()
		cfg.Users = spec.users
		cfg.Seed = subSeed(seed, 4)
		w.log, _, err = synth.Generate(tree, cfg)
		if err != nil {
			return nil, err
		}
	}
	return w, nil
}

// saveModel writes the model in the v4 flat format to dir and reports
// the path, the time Save took and the file size. Like tfrec-train it
// writes a sibling file and renames it: a path that may still be mapped
// must never be truncated in place.
func saveModel(m *model.TF, dir, name string) (path string, took time.Duration, size int64, err error) {
	path = filepath.Join(dir, fmt.Sprintf("%s-%d.tfrec", name, os.Getpid()))
	start := time.Now()
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return "", 0, 0, err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return "", 0, 0, fmt.Errorf("save %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return "", 0, 0, err
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		return "", 0, 0, err
	}
	took = time.Since(start)
	st, err := os.Stat(path)
	if err != nil {
		return "", 0, 0, err
	}
	return path, took, st.Size(), nil
}

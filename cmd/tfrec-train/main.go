// Command tfrec-train fits a TF (or MF) model on a purchase log produced
// by tfrec-gen and persists it for tfrec-recommend.
//
// Usage:
//
//	tfrec-train -data data/ -out model.gob -k 20 -levels 4 -markov 1 \
//	            -epochs 30 -workers 8
//
// -levels is the paper's taxonomyUpdateLevels (1 = plain MF); -markov is
// maxPrevtransactions (0 = no short-term term; 1 = FPMC when -levels 1).
// -workers > 1 trains lock-free in synchronised rounds: each worker owns a
// block of users, and its writes to shared taxonomy rows are merged at
// every round barrier, so a run is reproducible for a fixed -seed and
// -workers.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/model"
	"repro/internal/taxonomy"
	"repro/internal/train"
	"repro/internal/vecmath"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tfrec-train: ")

	dataDir := flag.String("data", "data", "directory with taxonomy.txt and purchases.tsv")
	out := flag.String("out", "model.tfrec", "output model file (written in the v4 memory-mappable flat layout)")
	k := flag.Int("k", 20, "factor dimensionality K")
	levels := flag.Int("levels", 4, "taxonomyUpdateLevels U (1 = plain MF)")
	markov := flag.Int("markov", 0, "maxPrevtransactions B (Markov order)")
	epochs := flag.Int("epochs", 30, "training epochs")
	learnRate := flag.Float64("lr", 0.05, "SGD learning rate epsilon")
	lambda := flag.Float64("lambda", 0.01, "regularization lambda")
	sibling := flag.Float64("sibling", 0.5, "sibling-training mix probability (0 disables)")
	workers := flag.Int("workers", 1, "training goroutines")
	seed := flag.Uint64("seed", 1, "random seed")
	cv := flag.String("cv", "", "comma-separated lambda candidates; cross-validate on a mu=0.5 split (§2.2) and train the winner")
	flag.Parse()

	tree, data := loadWorld(*dataDir)

	p := model.Params{K: *k, TaxonomyLevels: *levels, MarkovOrder: *markov, Alpha: 1.0, InitStd: 0.01}
	cfg := train.Config{
		Epochs:     *epochs,
		LearnRate:  *learnRate,
		Lambda:     *lambda,
		SiblingMix: *sibling,
		Workers:    *workers,
		Seed:       *seed,
	}
	if *levels <= 1 {
		cfg.SiblingMix = 0 // plain MF has no taxonomy to exploit
	}

	if *cv != "" {
		best, err := crossValidate(tree, data, p, cfg, *cv, *seed)
		if err != nil {
			log.Fatalf("cross-validation: %v", err)
		}
		fmt.Printf("cross-validation picked lambda=%v\n", best)
		cfg.Lambda = best
	}

	m, err := model.New(tree, data.NumUsers(), p, vecmath.NewRNG(*seed))
	if err != nil {
		log.Fatalf("model: %v", err)
	}
	stats, err := train.Train(m, data, cfg)
	if err != nil {
		log.Fatalf("train: %v", err)
	}

	// Write to a temp file and rename into place: tfrec-serve mmaps the
	// model it serves, and truncating a live mapping in place (os.Create
	// on the served path) would SIGBUS the server mid-request. The rename
	// gives the retrain-then-SIGHUP loop a fresh inode instead.
	f, err := os.CreateTemp(filepath.Dir(*out), "."+filepath.Base(*out)+".tmp-*")
	if err != nil {
		log.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		log.Fatalf("save: %v", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		log.Fatal(err)
	}
	if err := os.Rename(f.Name(), *out); err != nil {
		os.Remove(f.Name())
		log.Fatal(err)
	}
	last := len(stats.AvgLogLik) - 1
	fmt.Printf("trained %s on %d events: %d epochs, mean epoch time %v, ln-sigma %.4f -> %.4f\n",
		systemName(*levels, *markov), data.NumPurchases(), *epochs,
		stats.MeanEpochTime().Round(1000), stats.AvgLogLik[0], stats.AvgLogLik[last])
	fmt.Printf("model written to %s\n", *out)
}

// crossValidate performs the §2.2 exhaustive lambda search: train one
// model per candidate on the train side of a mu=0.5 split and score it on
// the validation carve-out by AUC.
func crossValidate(tree *taxonomy.Tree, data *dataset.Dataset, p model.Params, cfg train.Config, spec string, seed uint64) (float64, error) {
	var lambdas []float64
	for _, part := range strings.Split(spec, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return 0, fmt.Errorf("bad lambda %q", part)
		}
		lambdas = append(lambdas, v)
	}
	splitCfg := dataset.DefaultSplitConfig()
	splitCfg.Seed = seed
	split := data.Split(splitCfg)
	build := func() (*model.TF, error) {
		return model.New(tree, data.NumUsers(), p, vecmath.NewRNG(seed))
	}
	score := func(m *model.TF) float64 {
		res := eval.Evaluate(m.Compose(), split.Train, split.Validation, eval.DefaultConfig())
		return res.AUC
	}
	cvCfg := cfg
	if cvCfg.Epochs > 10 {
		cvCfg.Epochs = 10 // cheaper inner loops, as is standard
	}
	best, scores, err := train.SearchLambda(lambdas, build, split.Train, cvCfg, score)
	if err != nil {
		return 0, err
	}
	for i, lam := range lambdas {
		fmt.Printf("  lambda=%-8v validation AUC %.4f\n", lam, scores[i])
	}
	return best, nil
}

func systemName(levels, markov int) string {
	if levels <= 1 {
		return fmt.Sprintf("MF(%d)", markov)
	}
	return fmt.Sprintf("TF(%d,%d)", levels, markov)
}

func loadWorld(dir string) (*taxonomy.Tree, *dataset.Dataset) {
	tf, err := os.Open(filepath.Join(dir, "taxonomy.txt"))
	if err != nil {
		log.Fatal(err)
	}
	defer tf.Close()
	tree, err := taxonomy.ReadText(tf)
	if err != nil {
		log.Fatalf("taxonomy: %v", err)
	}
	pf, err := os.Open(filepath.Join(dir, "purchases.tsv"))
	if err != nil {
		log.Fatal(err)
	}
	defer pf.Close()
	data, err := dataset.ReadTSV(pf)
	if err != nil {
		log.Fatalf("purchases: %v", err)
	}
	if data.NumItems != tree.NumItems() {
		log.Fatalf("item count mismatch: log has %d, taxonomy %d", data.NumItems, tree.NumItems())
	}
	return tree, data
}

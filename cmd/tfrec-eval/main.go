// Command tfrec-eval scores a trained model against the paper's protocol
// (§7.1/§7.3): it splits the purchase log with the µ-split, evaluates AUC,
// meanRank, the category-level variants, cold-start AUC and the top-k cut
// metrics, and optionally cross-validates λ.
//
// Usage:
//
//	tfrec-eval -model model.tfrec -data data/ -mu 0.5
//	tfrec-eval -model model.tfrec -data data/ -topk 10 -workers 8
//
// Note: the model must have been trained on the TRAIN side of the same
// split (same -mu and -split-seed), otherwise test data leaks; tfrec-train
// trains on the full log, so for honest held-out numbers train on a file
// produced from the train split, or use tfrec-exp which does the split
// internally.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/infer"
	"repro/internal/model"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tfrec-eval: ")

	modelPath := flag.String("model", "model.tfrec", "model file from tfrec-train")
	dataDir := flag.String("data", "data", "directory with purchases.tsv")
	mu := flag.Float64("mu", 0.5, "train fraction of the mu-split")
	splitSeed := flag.Uint64("split-seed", 1, "split seed (must match training)")
	topk := flag.Int("topk", 10, "cut for precision/recall/NDCG")
	catDepth := flag.Int("cat-depth", 1, "taxonomy depth for category metrics")
	workers := flag.Int("workers", 0, "evaluation goroutines (0 = GOMAXPROCS)")
	precision := flag.String("precision", "", "top-k scoring precision: f64 (the exact sweep), int8 (two-stage quantized pipeline), or empty for the host's tier (int8 on AVX2, else f64); the retired f32 runs the host's tier; every tier gives identical metrics")
	pruned := flag.Bool("pruned", false, "score top-k via the branch-and-bound taxonomy descent (identical metrics; throughput knob)")
	flag.Parse()

	prec, err := model.ParsePrecision(*precision)
	if err != nil {
		log.Fatal(err)
	}

	mf, err := os.Open(*modelPath)
	if err != nil {
		log.Fatal(err)
	}
	m, err := model.Load(mf)
	mf.Close()
	if err != nil {
		log.Fatalf("load model: %v", err)
	}

	pf, err := os.Open(filepath.Join(*dataDir, "purchases.tsv"))
	if err != nil {
		log.Fatal(err)
	}
	data, err := dataset.ReadTSV(pf)
	pf.Close()
	if err != nil {
		log.Fatalf("purchases: %v", err)
	}
	if data.NumItems != m.NumItems() {
		log.Fatalf("item count mismatch: log %d vs model %d", data.NumItems, m.NumItems())
	}

	splitCfg := dataset.DefaultSplitConfig()
	splitCfg.Mu = *mu
	splitCfg.Seed = *splitSeed
	split := data.Split(splitCfg)
	history := dataset.Concat(split.Train, split.Validation)

	c := m.Compose()
	cfg := eval.Config{T: 1, CategoryDepth: *catDepth, Workers: *workers}
	res := eval.Evaluate(c, history, split.Test, cfg)

	fmt.Printf("evaluated %d users (%d positives, %d cold)\n", res.Users, res.Positives, res.ColdCount)
	fmt.Printf("  AUC          %.4f\n", res.AUC)
	fmt.Printf("  meanRank     %.1f of %d items\n", res.MeanRank, data.NumItems)
	fmt.Printf("  catAUC       %.4f (depth %d)\n", res.CatAUC, *catDepth)
	fmt.Printf("  catMeanRank  %.2f\n", res.CatMeanRank)
	if res.ColdCount > 0 {
		fmt.Printf("  coldAUC      %.4f over %d new-item purchases\n", res.ColdAUC, res.ColdCount)
	}

	tk, err := eval.EvaluateTopKPlan(c, history, split.Test, *workers,
		infer.Plan{K: *topk, Precision: prec.Resolve(), MaxWorkers: 1, Pruned: *pruned})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("at k=%d: precision %.4f, recall %.4f, hit-rate %.4f, NDCG %.4f\n",
		tk.K, tk.Precision, tk.Recall, tk.HitRate, tk.NDCG)
}

// Command tfrec-recommend loads a model trained by tfrec-train and prints
// recommendations for a user by building one infer.Plan and executing it
// — the same query-plan path the HTTP server runs — so every serving
// capability (strategy, precision, parallel sweep, request-time filters,
// pagination) is a flag.
//
// Usage:
//
//	tfrec-recommend -model model.tfrec -data data/ -user 17 -k 10
//	tfrec-recommend -model model.tfrec -data data/ -user 17 -strategy cascade -cascade 0.2
//	tfrec-recommend -model model.tfrec -data data/ -user 17 -exclude-purchased -offset 10
//	tfrec-recommend -model model.tfrec -data data/ -user 17 -category 3,17 -workers 4 -precision f64
//	tfrec-recommend -model model.tfrec -data data/ -user 17 -structured
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/model"
	"repro/internal/vecmath"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tfrec-recommend: ")

	modelPath := flag.String("model", "model.tfrec", "model file from tfrec-train")
	dataDir := flag.String("data", "data", "directory with purchases.tsv (Markov context and purchase filtering)")
	user := flag.Int("user", 0, "user id to recommend for")
	k := flag.Int("k", 10, "number of items to recommend")
	offset := flag.Int("offset", 0, "skip the first offset ranked items (pagination)")
	strategy := flag.String("strategy", "", "ranking strategy: naive (default), cascade, diversified")
	cascade := flag.Float64("cascade", 0, "cascaded inference keep fraction; setting it > 0 implies -strategy cascade")
	maxPerCat := flag.Int("max-per-category", 2, "category quota (with -strategy diversified)")
	catDepth := flag.Int("cat-depth", 0, "quota category depth (0 = lowest category level)")
	workers := flag.Int("workers", 1, "parallel sweep workers (0 = GOMAXPROCS, 1 = serial)")
	precision := flag.String("precision", "", "scoring precision: f32, f64 (the exact reference sweep), int8, or empty for the host's fastest tier (int8 on AVX2, else f32); every tier ranks identically")
	excludePurchased := flag.Bool("exclude-purchased", false, "drop items the user already bought")
	category := flag.String("category", "", "comma-separated taxonomy node ids to restrict results to")
	excludeCategory := flag.String("exclude-category", "", "comma-separated taxonomy node ids to remove")
	structured := flag.Bool("structured", false, "print the per-category structured ranking")
	jsonOut := flag.Bool("json", false, "print the ranking as the wire-format recommend response body (diffable against a tfrec-serve answer for the same model); ignored with -structured")
	pruned := flag.Bool("pruned", false, "use taxonomy-guided branch-and-bound retrieval for the naive sweep (byte-identical ranking; reports how much of the catalog the bounds skipped)")
	flag.Parse()

	prec, err := model.ParsePrecision(*precision)
	if err != nil {
		log.Fatal(err)
	}
	strat, err := infer.ParseStrategy(*strategy)
	if err != nil {
		log.Fatal(err)
	}
	// pre-plan invocations selected the cascade by the keep fraction
	// alone; keep that spelling working — but never override an explicit
	// -strategy choice
	if *cascade > 0 && *strategy == "" {
		strat = infer.StrategyCascade
	}
	if strat == infer.StrategyCascade && *cascade <= 0 {
		log.Fatalf("-strategy cascade needs -cascade > 0")
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
	c := m.Compose()
	if *user < 0 || *user >= m.NumUsers() {
		log.Fatalf("user %d out of range [0,%d)", *user, m.NumUsers())
	}

	// the user's history drives the short-term Markov term and the
	// exclude-purchased filter; both degrade gracefully without -data
	var history []dataset.Basket
	if m.P.MarkovOrder > 0 || *excludePurchased {
		pf, err := os.Open(filepath.Join(*dataDir, "purchases.tsv"))
		if err != nil {
			if m.P.MarkovOrder > 0 {
				log.Fatalf("need -data for Markov context: %v", err)
			}
			log.Printf("no purchase log (%v): -exclude-purchased covers nothing", err)
		} else {
			data, err := dataset.ReadTSV(pf)
			pf.Close()
			if err != nil {
				log.Fatalf("purchases: %v", err)
			}
			if *user < len(data.Users) {
				history = data.Users[*user].Baskets
			}
		}
	}
	var recent []dataset.Basket
	if m.P.MarkovOrder > 0 {
		recent = c.PrevBaskets(history, len(history))
	}

	q := make([]float64, m.K())
	c.BuildQueryInto(*user, recent, q)

	if *structured {
		sr := infer.Structured(c, q, *k)
		for d, level := range sr.Levels {
			fmt.Printf("level %d categories (best first):", d+1)
			for i, s := range level {
				if i >= 5 {
					break
				}
				fmt.Printf(" node%d(%.3f)", s.ID, s.Score)
			}
			fmt.Println()
		}
		fmt.Println("top items:")
		printItems(sr.Items, 0)
		return
	}

	pl := infer.Plan{
		Strategy:   strat,
		Precision:  prec,
		K:          *k,
		Offset:     *offset,
		MaxWorkers: 0,
		Filter:     buildFilter(*excludePurchased, history, *category, *excludeCategory),
	}
	switch strat {
	case infer.StrategyCascade:
		cfg := infer.UniformCascade(m.Tree.Depth(), *cascade)
		pl.Cascade = &cfg
	case infer.StrategyDiversified:
		pl.Diversify = &infer.Diversify{MaxPerCategory: *maxPerCat, CatDepth: *catDepth}
	default:
		pl.Pruned = *pruned
	}
	if *pruned && strat != infer.StrategyNaive {
		log.Printf("-pruned applies to the naive sweep only; ignored for -strategy %v", strat)
	}
	pruneBefore := infer.PruneCounters()

	var pool *infer.Pool
	if *workers != 1 {
		pool = infer.NewPool(*workers)
		defer pool.Close()
	}
	res, err := pool.Execute(context.Background(), c, q, pl)
	if err != nil {
		log.Fatalf("execute: %v", err)
	}
	if *jsonOut {
		// the same wire shape a tfrec-serve node answers with — including
		// the diversified category annotation and the model fingerprint —
		// so a CLI run is diffable against a server response
		out := api.RecommendResponse{
			Items:   make([]api.Item, len(res.Items)),
			ModelID: c.Fingerprint(),
		}
		qDepth := -1
		if strat == infer.StrategyDiversified {
			qDepth = infer.DiversifyDepth(c, *catDepth)
		}
		for i, s := range res.Items {
			out.Items[i] = api.Item{Item: s.ID, Score: s.Score}
			if qDepth >= 0 {
				out.Items[i].Category = int32(c.Index.ItemCategory(s.ID, qDepth))
			}
		}
		if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
			log.Fatal(err)
		}
		return
	}
	if res.Eligible < c.NumItems() {
		fmt.Printf("filtered catalog: %d/%d items eligible\n", res.Eligible, c.NumItems())
	}
	if res.Stats != nil {
		fmt.Printf("cascaded inference: scored %d/%d nodes (%d leaves)\n",
			res.Stats.NodesScored, m.Tree.NumNodes(), res.Stats.LeavesScored)
	}
	if pl.Pruned {
		ps := infer.PruneCounters()
		fmt.Printf("pruned retrieval: skipped %d items in %d subtrees (%d bound evals, %d fallbacks)\n",
			ps.ItemsPruned-pruneBefore.ItemsPruned, ps.SubtreesPruned-pruneBefore.SubtreesPruned,
			ps.BoundEvals-pruneBefore.BoundEvals, ps.Fallbacks-pruneBefore.Fallbacks)
	}
	printItems(res.Items, *offset)
}

// buildFilter assembles the plan filter from the CLI flags; it returns
// nil when nothing filters.
func buildFilter(excludePurchased bool, history []dataset.Basket, category, excludeCategory string) *infer.Filter {
	f := &infer.Filter{}
	if excludePurchased {
		for _, b := range history {
			f.ExcludeItems = append(f.ExcludeItems, b...)
		}
	}
	f.AllowNodes = parseNodeList(category)
	f.DenyNodes = parseNodeList(excludeCategory)
	if f.Empty() {
		return nil
	}
	return f
}

func parseNodeList(s string) []int32 {
	if s == "" {
		return nil
	}
	nodes, err := infer.ParseIDList(s)
	if err != nil {
		log.Fatalf("bad taxonomy node list %q: %v", s, err)
	}
	return nodes
}

func printItems(items []vecmath.Scored, offset int) {
	for rank, s := range items {
		fmt.Printf("%2d. item %-8d score %.4f\n", offset+rank+1, s.ID, s.Score)
	}
}

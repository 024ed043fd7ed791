// Command tfrec-inspect examines a trained model: the on-disk format
// (version, and for v4 flat files the per-section sizes, alignment and
// checksums plus whether the serving snapshot is memory-mapped or
// heap-backed and how many mapped pages are resident), per-level factor
// statistics (how much signal each taxonomy level carries), the hierarchy
// clustering ratio of Figure 7(e), an optional 2-D embedding export for
// plotting, and (-bounds) a tightness audit of the branch-and-bound
// subtree envelopes.
//
// Usage:
//
//	tfrec-inspect -model model.tfrec
//	tfrec-inspect -model model.tfrec -embed coords.tsv -method tsne
//	tfrec-inspect -model model.tfrec -bounds 20
//	tfrec-inspect -cpu
//
// -cpu prints the host's CPU features and the scoring-kernel dispatch
// table (which implementation — avx2 or generic — serves each
// kernel op), exactly as /v1/stats reports it under inference.kernels,
// then exits without loading a model.
//
// The embedding TSV has columns: node, depth, parent, x, y — one row per
// taxonomy node of the upper three levels, ready for any plotting tool.
//
// -bounds N probes the Compose()-time subtree score envelopes with N
// seeded random queries and prints, per taxonomy depth, a histogram of
// slack = SubtreeBound(node, q) − max exact score in the subtree. Tight
// envelopes (slack concentrated near zero) are what let the pruned
// engine (-pruned on tfrec-serve/recommend/eval) skip subtrees; a model
// whose slack is large at every depth will see the descent fall back to
// the dense sweep. Negative slack would mean a broken envelope and is
// reported as a hard error.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/model"
	"repro/internal/tsne"
	"repro/internal/vecmath"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tfrec-inspect: ")

	modelPath := flag.String("model", "model.tfrec", "model file from tfrec-train")
	embedPath := flag.String("embed", "", "write a 2-D embedding TSV of the upper-level factors")
	method := flag.String("method", "auto", "embedding method: tsne|pca|auto")
	seed := flag.Uint64("seed", 7, "random seed for PCA/t-SNE and -bounds probes")
	bounds := flag.Int("bounds", 0, "audit branch-and-bound envelope tightness over this many random queries (0 = skip)")
	cpu := flag.Bool("cpu", false, "print CPU features and the scoring-kernel dispatch table, then exit")
	flag.Parse()

	if *cpu {
		cpuReport(os.Stdout)
		return
	}

	info, err := model.InspectFile(*modelPath)
	if err != nil {
		log.Fatalf("inspect %s: %v", *modelPath, err)
	}
	formatReport(os.Stdout, info)
	sn, err := model.LoadFile(*modelPath)
	if err != nil {
		log.Fatalf("load model: %v", err)
	}
	residencyReport(os.Stdout, sn)
	sn.Close()

	mf, err := os.Open(*modelPath)
	if err != nil {
		log.Fatal(err)
	}
	m, err := model.Load(mf)
	mf.Close()
	if err != nil {
		log.Fatalf("load model: %v", err)
	}
	tree := m.Tree
	c := m.Compose()
	fmt.Println()

	fmt.Printf("model: K=%d taxonomyUpdateLevels=%d markovOrder=%d bias=%v\n",
		m.P.K, m.P.TaxonomyLevels, m.P.MarkovOrder, m.P.UseBias)
	fmt.Printf("taxonomy: %v nodes per level, %d items, depth %d\n",
		tree.LevelSizes(), tree.NumItems(), tree.Depth())

	// per-level offset statistics: the paper observes that offset
	// magnitude shrinks as we move down the tree (§5.1)
	fmt.Println("\nper-level offset norms (mean ± max):")
	for d := 0; d <= tree.Depth(); d++ {
		var sum, max float64
		level := tree.Level(d)
		for _, node := range level {
			n := vecmath.Norm2(m.Node.Row(int(node)))
			sum += n
			if n > max {
				max = n
			}
		}
		fmt.Printf("  depth %d (%7d nodes): mean %.4f  max %.4f\n", d, len(level), sum/float64(len(level)), max)
	}

	if *bounds > 0 {
		depths := boundTightness(c, *bounds, *seed)
		printBoundTightness(os.Stdout, *bounds, depths)
		for i := range depths {
			if depths[i].Samples > 0 && depths[i].Min < 0 {
				log.Fatalf("depth %d: negative slack %g — a subtree envelope failed to dominate its own scores", depths[i].Depth, depths[i].Min)
			}
		}
	}

	maxDepth := 3
	if maxDepth > tree.Depth()-1 {
		maxDepth = tree.Depth() - 1
	}
	stats, err := tsne.HierarchyClustering(tree, c.EffNode, 1, maxDepth, vecmath.NewRNG(*seed))
	if err == nil {
		fmt.Printf("\nhierarchy clustering (depths 1..%d): child-parent %.4f / random %.4f = ratio %.3f\n",
			maxDepth, stats.ChildParentDist, stats.RandomPairDist, stats.Ratio())
	}

	if *embedPath == "" {
		return
	}
	var nodes []int32
	for d := 1; d <= maxDepth; d++ {
		nodes = append(nodes, tree.Level(d)...)
	}
	gathered := tsne.GatherRows(c.EffNode, nodes)
	var coords *vecmath.Matrix
	switch {
	case *method == "pca" || (*method == "auto" && len(nodes) > 2500):
		coords = tsne.PCA(gathered, vecmath.NewRNG(*seed))
	case *method == "tsne" || *method == "auto":
		cfg := tsne.DefaultConfig()
		cfg.Seed = *seed
		if p := float64(len(nodes)) / 4; p < cfg.Perplexity {
			cfg.Perplexity = p
		}
		coords, err = tsne.TSNE(gathered, cfg)
		if err != nil {
			log.Fatalf("tsne: %v", err)
		}
	default:
		log.Fatalf("unknown method %q", *method)
	}

	f, err := os.Create(*embedPath)
	if err != nil {
		log.Fatal(err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "node\tdepth\tparent\tx\ty")
	for i, node := range nodes {
		fmt.Fprintf(w, "%d\t%d\t%d\t%.6f\t%.6f\n",
			node, tree.DepthOf(int(node)), tree.Parent(int(node)),
			coords.Row(i)[0], coords.Row(i)[1])
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %d embedding rows to %s\n", len(nodes), *embedPath)
}

// Package infer implements recommendation over trained TF models: the
// naive full-scan top-k and the paper's cascaded inference (§5.1), which
// walks the taxonomy top-down keeping only the best k_i percent of each
// category level and scores leaves only under the surviving categories —
// the accuracy/efficiency dial of Figure 8(c,d).
//
// All ranking paths run off the snapshot's model.ScoringIndex: scores are
// produced by blocked sweeps over contiguous factor slabs and consumed by
// streaming bounded-heap collectors, so a query never materializes a
// catalog-sized score array.
//
// Queries are described by a Plan — strategy, precision, result page,
// worker cap, and an optional item Filter — validated once and run by the
// single Execute path (plan.go), which composes the engines of exec.go.
package infer

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/model"
	"repro/internal/vecmath"
)

// blockItems is the number of contiguous items scored per sweep step; the
// block buffer lives on the stack and one block of float64 fits in L1.
const blockItems = 256

// CascadeConfig sets the per-level keep fractions k_i of §5.1:
// KeepFrac[d-1] applies to taxonomy depth d (the category levels between
// the root and the items). n_i = ceil(k_i · size(level i)) nodes survive
// at each level; all leaves under surviving lowest categories are scored.
type CascadeConfig struct {
	KeepFrac []float64
}

// UniformCascade returns a config keeping fraction f at every category
// level of a depth-deep taxonomy (depth = tree.Depth()).
func UniformCascade(depth int, f float64) CascadeConfig {
	kf := make([]float64, depth-1)
	for i := range kf {
		kf[i] = f
	}
	return CascadeConfig{KeepFrac: kf}
}

// Validate checks the fractions against a taxonomy of the given depth.
func (cfg CascadeConfig) Validate(depth int) error {
	if len(cfg.KeepFrac) != depth-1 {
		return fmt.Errorf("infer: need %d keep fractions for depth %d, got %d", depth-1, depth, len(cfg.KeepFrac))
	}
	for i, f := range cfg.KeepFrac {
		if f <= 0 || f > 1 {
			return fmt.Errorf("infer: KeepFrac[%d] = %v outside (0,1]", i, f)
		}
	}
	return nil
}

// Stats reports the work a cascade performed; NodesScored is the number
// of query–factor dot products (the paper's inference cost unit).
type Stats struct {
	// NodesScored counts scored taxonomy nodes, including leaves.
	NodesScored int
	// LeavesScored counts scored items (candidates for the final ranking).
	LeavesScored int
	// KeptPerLevel records how many nodes survived each category level.
	KeptPerLevel []int
}

// cascadeScratch is the pooled state of one cascade: the beam frontier,
// the level heap, the kept categories, and the eligibility mask the beam
// marks. Pooled so a warm cascade allocates only its returned Stats,
// however large the catalog.
type cascadeScratch struct {
	frontier []int32
	kept     []int32
	level    vecmath.TopKStream
	mask     vecmath.Bitset
}

var cascadeScratches = sync.Pool{New: func() any { return new(cascadeScratch) }}

// beam performs the top-down walk of §5.1 over the node slab — each
// level's survivors selected with a bounded heap instead of ranking the
// level — and marks into cs.mask the leaves under the kept lowest
// categories that pass cf (nil passes all). The returned Stats count the
// scored categories plus the marked leaves, which is what the cascade
// then scores. A category's leaves are exactly its DFS span of the item
// order (every leaf sits at the same depth), so marking is one pass per
// kept category.
func (cs *cascadeScratch) beam(c *model.Composed, q []float64, cfg CascadeConfig, cf *compiledFilter) *Stats {
	tree, ix := c.Tree, c.Index
	stats := &Stats{KeptPerLevel: make([]int, 0, tree.Depth()-1)}
	cs.kept = append(cs.kept[:0], int32(tree.Root()))
	for d := 1; d < tree.Depth(); d++ {
		cs.frontier = cs.frontier[:0]
		for _, node := range cs.kept {
			cs.frontier = append(cs.frontier, tree.Children(int(node))...)
		}
		keep := int(math.Ceil(cfg.KeepFrac[d-1] * float64(len(tree.Level(d)))))
		if keep < 1 {
			keep = 1
		}
		cs.level.Reset(keep)
		for _, node := range cs.frontier {
			cs.level.Push(int(node), ix.ScoreNode(int(node), q))
		}
		stats.NodesScored += len(cs.frontier)
		cs.kept = cs.kept[:0]
		for _, s := range cs.level.Entries() {
			cs.kept = append(cs.kept, int32(s.ID))
		}
		stats.KeptPerLevel = append(stats.KeptPerLevel, len(cs.kept))
	}
	cs.mask.Resize(ix.NumItems())
	dfs := ix.DFSItems()
	for _, node := range cs.kept {
		lo, hi := ix.DFSSpan(int(node))
		for _, item := range dfs[lo:hi] {
			if cf == nil || cf.mask.Get(int(item)) {
				cs.mask.Set(int(item))
				stats.LeavesScored++
			}
		}
	}
	stats.NodesScored += stats.LeavesScored
	return stats
}

// CascadeScores runs the cascade and returns a full score array: reached
// items carry their affinity, unreached items are −Inf. Evaluation uses
// this to compute the Figure 8(c,d) accuracy ratio (eval.PrunedAUC); the
// serving path is a StrategyCascade plan, which never materializes the
// full array.
func CascadeScores(c *model.Composed, q []float64, cfg CascadeConfig) ([]float64, *Stats, error) {
	if err := cfg.Validate(c.Tree.Depth()); err != nil {
		return nil, nil, err
	}
	var cs cascadeScratch
	stats := cs.beam(c, q, cfg, nil)
	scores := make([]float64, c.Tree.NumItems())
	for i := range scores {
		scores[i] = math.Inf(-1)
	}
	cs.mask.ForEachInRange(0, len(scores), func(item int) {
		scores[item] = c.Index.ScoreItem(item, q)
	})
	return scores, stats, nil
}

// StructuredRanking is the per-level output the paper motivates in §1:
// a ranking of categories at every level of the taxonomy plus the top
// items, so advertisers can target categories rather than single products.
type StructuredRanking struct {
	// Levels[d] holds the ranked nodes of taxonomy depth d+1 (descending
	// affinity).
	Levels [][]vecmath.Scored
	// Items is the final ranked item list.
	Items []vecmath.Scored
}

// Structured produces a full structured ranking: every category level
// ranked completely, and the top-k items from a naive scan. It is meant
// for presentation, not the hot serving path.
func Structured(c *model.Composed, q []float64, k int) *StructuredRanking {
	tree := c.Tree
	out := &StructuredRanking{}
	for d := 1; d < tree.Depth(); d++ {
		level := c.LevelScores(q, d)
		out.Levels = append(out.Levels, vecmath.TopK(level, len(level)))
	}
	st := vecmath.NewTopKStream(k)
	var b blockBuf
	sweepRange(c.Index, &tierQuery{q: q}, 0, c.Index.NumItems(), &b, nil, st)
	out.Items = st.Ranked()
	return out
}

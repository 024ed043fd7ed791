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

	"repro/internal/model"
	"repro/internal/vecmath"
)

// blockItems is the number of contiguous items scored per sweep step; the
// block buffer lives on the stack and one block of float64 fits in L1.
const blockItems = 256

// qBlock is how many queries a batched sweep scores per slab pass: each
// item block's factor rows are loaded once and dotted against up to
// qBlock queries before the sweep advances. Eight queries keep the
// group's score buffers within a few KB of stack while amortizing both
// the slab read that dominates wide-catalog sweeps and, on the int8
// tier, the per-block code widening of the quantized kernel (which the
// vecmath fast path supports up to groups of eight).
const qBlock = 8

// sweepRangeInto scores the item range [rangeLo, rangeHi) in block-sized
// steps into an armed TopKStream, sharing the caller's block buffer so
// the whole sweep is allocation-free. It is the per-shard unit of work of
// the f64 sweeps and, over the whole catalog, the exact pass of
// Structured and of the batched finish stages.
func sweepRangeInto(ix *model.ScoringIndex, q []float64, rangeLo, rangeHi int, block []float64, st *vecmath.TopKStream) {
	th, full := st.Threshold()
	for lo := rangeLo; lo < rangeHi; lo += len(block) {
		hi := lo + len(block)
		if hi > rangeHi {
			hi = rangeHi
		}
		buf := block[:hi-lo]
		ix.ItemScoresRangeInto(q, lo, hi, buf)
		for i, s := range buf {
			// once the heap is full, items strictly below the k-th score
			// can be rejected with this one inlined comparison; ties must
			// go through Push so the lower-ID tie-break still applies
			if full && s < th {
				continue
			}
			st.Push(lo+i, s)
			th, full = st.Threshold()
		}
	}
}

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

// walk performs the top-down beam of §5.1 over the index's node-major slab
// and returns the surviving leaf frontier; leaves are not yet scored
// (stats count only the interior work so far). Each level's survivors are
// selected with a streaming bounded heap instead of materializing and
// fully ranking the level.
func walk(c *model.Composed, q []float64, cfg CascadeConfig) ([]int32, *Stats, error) {
	tree := c.Tree
	ix := c.Index
	if err := cfg.Validate(tree.Depth()); err != nil {
		return nil, nil, err
	}
	stats := &Stats{}
	frontier := append([]int32(nil), tree.Level(1)...)
	st := vecmath.NewTopKStream(0)
	for d := 1; d < tree.Depth(); d++ {
		levelSize := len(tree.Level(d))
		keep := int(math.Ceil(cfg.KeepFrac[d-1] * float64(levelSize)))
		if keep < 1 {
			keep = 1
		}
		st.Reset(keep)
		for _, node := range frontier {
			st.Push(int(node), ix.ScoreNode(int(node), q))
		}
		stats.NodesScored += len(frontier)
		top := st.Ranked()
		stats.KeptPerLevel = append(stats.KeptPerLevel, len(top))

		frontier = frontier[:0]
		for _, s := range top {
			frontier = append(frontier, tree.Children(s.ID)...)
		}
	}
	return frontier, stats, nil
}

// CascadeScores runs the cascade and returns a full score array: reached
// items carry their affinity, unreached items are −Inf. Evaluation uses
// this to compute the Figure 8(c,d) accuracy ratio (eval.PrunedAUC); the
// serving path is a StrategyCascade plan, which never materializes the
// full array.
func CascadeScores(c *model.Composed, q []float64, cfg CascadeConfig) ([]float64, *Stats, error) {
	frontier, stats, err := walk(c, q, cfg)
	if err != nil {
		return nil, nil, err
	}
	ix := c.Index
	scores := make([]float64, c.Tree.NumItems())
	for i := range scores {
		scores[i] = math.Inf(-1)
	}
	for _, leaf := range frontier {
		scores[c.Tree.NodeItem(int(leaf))] = ix.ScoreNode(int(leaf), q)
	}
	stats.NodesScored += len(frontier)
	stats.LeavesScored = len(frontier)
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
	var block [blockItems]float64
	sweepRangeInto(c.Index, q, 0, c.Index.NumItems(), block[:], st)
	out.Items = st.Ranked()
	return out
}

package taxonomy

import (
	"fmt"

	"repro/internal/vecmath"
)

// GenConfig describes a synthetic taxonomy to generate. CategoryLevels are
// the interior level sizes from the top down (excluding the root); Items is
// the number of leaves attached under the lowest category level. The Yahoo!
// shopping taxonomy in the paper is CategoryLevels: {23, 270, 1500},
// Items: 1.5e6.
type GenConfig struct {
	// CategoryLevels[d] is the number of categories at interior level d+1
	// (level 0 is the root). Sizes must be non-decreasing from top to
	// bottom and Items must be at least the lowest category count,
	// otherwise some category would have no children and the leaves would
	// not share a uniform depth.
	CategoryLevels []int
	// Items is the number of leaf products.
	Items int
	// Skew is the Zipf exponent controlling how unevenly children are
	// spread over parents; 0 means round-robin (perfectly even). The real
	// taxonomy is skewed: a few categories hold most products.
	Skew float64
}

// PaperShape returns the shape of the taxonomy used in the paper's
// evaluation — three category levels of 23, 270 and 1500 nodes over 1.5M
// products — with every level divided by scale (floored at 1, minimum 2 for
// category levels so sibling sampling stays meaningful). scale=1 is the
// full tree; scale=1000 is a CI-sized tree with the same depth and relative
// fan-out.
func PaperShape(scale int) GenConfig {
	if scale < 1 {
		scale = 1
	}
	atLeast := func(x, lo int) int {
		if x < lo {
			return lo
		}
		return x
	}
	// Category levels shrink with the cube root of scale so the fan-out
	// ratios between adjacent levels (23:270:1500 ~ 1:12:65) survive
	// aggressive item scaling.
	catScale := 1
	for catScale*catScale*catScale < scale {
		catScale++
	}
	return GenConfig{
		CategoryLevels: []int{
			atLeast(23/catScale, 2),
			atLeast(270/catScale, 4),
			atLeast(1500/catScale, 8),
		},
		Items: atLeast(1500000/scale, 16),
		Skew:  0.6,
	}
}

// Generate builds a random taxonomy with the given shape. Every leaf ends
// up at the same depth (len(CategoryLevels)+1), which the TF model
// requires. Node ids are assigned level by level: root = 0, then level 1,
// and so on, so interior nodes occupy a contiguous low range.
func Generate(cfg GenConfig, rng *vecmath.RNG) (*Tree, error) {
	if cfg.Items <= 0 {
		return nil, fmt.Errorf("taxonomy: Items must be positive, got %d", cfg.Items)
	}
	for i, c := range cfg.CategoryLevels {
		if c <= 0 {
			return nil, fmt.Errorf("taxonomy: CategoryLevels[%d] must be positive, got %d", i, c)
		}
	}
	levelSizes := append([]int{1}, cfg.CategoryLevels...)
	levelSizes = append(levelSizes, cfg.Items)
	for d := 1; d < len(levelSizes); d++ {
		if levelSizes[d] < levelSizes[d-1] {
			return nil, fmt.Errorf("taxonomy: level %d (%d nodes) smaller than its parent level (%d); every category needs a child",
				d, levelSizes[d], levelSizes[d-1])
		}
	}

	total := 0
	for _, s := range levelSizes {
		total += s
	}
	parents := make([]int, total)
	parents[0] = NoParent

	// levelStart[d] = first node id at depth d
	levelStart := make([]int, len(levelSizes))
	for d := 1; d < len(levelSizes); d++ {
		levelStart[d] = levelStart[d-1] + levelSizes[d-1]
	}

	for d := 1; d < len(levelSizes); d++ {
		nParents := levelSizes[d-1]
		var zipf *vecmath.Zipf
		if cfg.Skew > 0 && nParents > 1 {
			zipf = vecmath.NewZipf(rng, nParents, cfg.Skew)
		}
		for i := 0; i < levelSizes[d]; i++ {
			node := levelStart[d] + i
			var pIdx int
			if i < nParents {
				// guarantee every parent gets at least one child so no
				// interior node is mistaken for a leaf
				pIdx = i
			} else if zipf != nil {
				pIdx = zipf.Draw()
			} else {
				pIdx = i % nParents
			}
			parents[node] = levelStart[d-1] + pIdx
		}
	}
	return NewFromParents(parents)
}

// MustGenerate is Generate for tests and examples with known-good configs;
// it panics on error.
func MustGenerate(cfg GenConfig, rng *vecmath.RNG) *Tree {
	t, err := Generate(cfg, rng)
	if err != nil {
		panic(err)
	}
	return t
}

package model

import (
	"sync"

	"repro/internal/dataset"
	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

// Composed is an immutable snapshot of a TF model with all path sums
// materialized: EffNode.Row(n) is the effective factor of taxonomy node n
// (offsets summed from n to the root, Eq. 1) and EffNext the same for the
// next-item tree. Inference and evaluation run off a Composed snapshot so
// each of the millions of per-item scores is a single dot product instead
// of a path walk. Build one with (*TF).Compose after training.
type Composed struct {
	P       Params
	Tree    *taxonomy.Tree
	User    *vecmath.Matrix
	EffNode *vecmath.Matrix
	EffNext *vecmath.Matrix
	// EffBias is the composed per-node popularity bias (numNodes x 1);
	// all zero unless the model trained with UseBias.
	EffBias *vecmath.Matrix
	// Index is the flattened scoring view of EffNode/EffBias — contiguous
	// item-major and node-major slabs with the bias folded in. All scoring
	// methods of Composed run off it; infer and serve use it directly.
	Index   *ScoringIndex
	weights []float64

	// fp caches Fingerprint(): a content id computed lazily on first use
	// (the strided slab hash would otherwise tax mmap-load startup).
	fpOnce sync.Once
	fp     string
}

// Compose materializes the effective factors by a single top-down pass:
// eff(node) = eff(parent) + offset(node), then flattens them into the
// scoring index. It does not mutate the model and the snapshot does not
// alias model rows.
func (m *TF) Compose() *Composed {
	c := &Composed{
		P:       m.P,
		Tree:    m.Tree,
		User:    m.User.Clone(),
		EffNode: composeTree(m.Tree, m.Node),
		EffNext: composeTree(m.Tree, m.Next),
		EffBias: composeTree(m.Tree, m.Bias),
		weights: m.P.DecayWeights(),
	}
	c.Index = buildIndex(m.Tree, c.EffNode, c.EffBias, m.P.UseBias)
	return c
}

func composeTree(tree *taxonomy.Tree, offsets *vecmath.Matrix) *vecmath.Matrix {
	eff := vecmath.NewMatrix(offsets.Rows(), offsets.Cols())
	composeLevels(tree, offsets, eff.Row)
	return eff
}

// composeLevels composes effective rows top-down in level order, which
// guarantees parents are composed before children: row(n) is node n's
// destination, or nil to skip n — but a skipped node must have no children,
// since they read its row.
func composeLevels(tree *taxonomy.Tree, offsets *vecmath.Matrix, row func(node int) []float64) {
	for d := 0; d <= tree.Depth(); d++ {
		for _, node := range tree.Level(d) {
			n := int(node)
			if dst := row(n); dst != nil {
				var parent []float64
				if d > 0 {
					parent = row(tree.Parent(n))
				}
				composeRow(dst, parent, offsets.Row(n))
			}
		}
	}
}

// composeRow writes eff(n) = eff(parent) + offset(n) into dst, given the
// parent's effective row (nil for the root, whose effective row is its
// offset). Every effective row — Compose's and the streaming Save's — is
// this one expression, so both produce the same bits.
func composeRow(dst, parent, offset []float64) {
	if parent == nil {
		vecmath.Copy(dst, offset)
		return
	}
	vecmath.Copy(dst, parent)
	vecmath.Add(dst, offset)
}

// K returns the factor dimensionality.
func (c *Composed) K() int { return c.P.K }

// NumItems returns the item count.
func (c *Composed) NumItems() int { return c.Tree.NumItems() }

// ItemFactor returns the effective factor of item as a read-only view.
func (c *Composed) ItemFactor(item int) []float64 {
	return c.Index.ItemFactor(item)
}

// BuildQueryInto mirrors (*TF).BuildQueryInto against the snapshot.
func (c *Composed) BuildQueryInto(user int, prev []dataset.Basket, q []float64) {
	vecmath.Copy(q, c.User.Row(user))
	c.addShortTerm(prev, q)
}

// BuildSessionQueryInto builds a query for an anonymous session: no user
// factor, only the short-term Markov term driven by the session's recent
// baskets (most recent first). With MarkovOrder 0 the query is zero and
// ranking degenerates to the bias/popularity order.
func (c *Composed) BuildSessionQueryInto(prev []dataset.Basket, q []float64) {
	vecmath.Zero(q)
	c.addShortTerm(prev, q)
}

func (c *Composed) addShortTerm(prev []dataset.Basket, q []float64) {
	if c.P.MarkovOrder == 0 {
		return
	}
	for n := 0; n < len(prev) && n < c.P.MarkovOrder; n++ {
		basket := prev[n]
		if len(basket) == 0 {
			continue
		}
		coef := c.weights[n] / float64(len(basket))
		for _, item := range basket {
			vecmath.AddScaled(q, coef, c.EffNext.Row(c.Tree.ItemNode(int(item))))
		}
	}
}

// ItemScoresInto writes the full affinity (⟨q, vI_j⟩ plus composed bias)
// for every item j into dst (len == NumItems) with one blocked sweep over
// the scoring index.
func (c *Composed) ItemScoresInto(q []float64, dst []float64) {
	c.Index.ItemScoresInto(q, dst)
}

// NodeScore returns ⟨q, eff(node)⟩ (plus the node's composed bias when
// UseBias) for any taxonomy node; cascaded inference and category-level
// metrics rank these.
func (c *Composed) NodeScore(q []float64, node int) float64 {
	return c.Index.ScoreNode(node, q)
}

// LevelScores returns the scored nodes of taxonomy depth d, unsorted.
func (c *Composed) LevelScores(q []float64, d int) []vecmath.Scored {
	level := c.Tree.Level(d)
	out := make([]vecmath.Scored, len(level))
	for i, node := range level {
		out[i] = vecmath.Scored{ID: int(node), Score: c.Index.ScoreNode(int(node), q)}
	}
	return out
}

// PrevBaskets mirrors (*TF).PrevBaskets for the snapshot.
func (c *Composed) PrevBaskets(history []dataset.Basket, t int) []dataset.Basket {
	if c.P.MarkovOrder == 0 {
		return nil
	}
	var prev []dataset.Basket
	for n := 1; n <= c.P.MarkovOrder && t-n >= 0; n++ {
		prev = append(prev, history[t-n])
	}
	return prev
}

package model

import (
	"math"
	"testing"

	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

// subtreeBound turns node's envelope (the v4 envelope sections) into an
// upper bound on every item score under it: the maximum folded bias plus,
// per factor dimension, the larger of q_j times the envelope's min and
// max. Only nodes with leaf descendants may be bounded.
func subtreeBound(ix *ScoringIndex, node int, q []float64) float64 {
	lo := ix.subLo[node*ix.k : (node+1)*ix.k]
	hi := ix.subHi[node*ix.k : (node+1)*ix.k]
	b := ix.subMaxBias[node]
	for j, qj := range q {
		b += max(qj*lo[j], qj*hi[j])
	}
	return b
}

// TestSubtreeBoundDominatesScores is the envelope invariant: for every
// node with leaf descendants and every item in its subtree,
// ScoreItem(item, q) ≤ subtreeBound(node, q) + ItemPruneBound(q).
func TestSubtreeBoundDominatesScores(t *testing.T) {
	for _, useBias := range []bool{false, true} {
		_, c := indexWorld(t, useBias)
		ix, tree := c.Index, c.Tree
		for _, seed := range []uint64{3, 11, 29} {
			q := indexQuery(c.K(), seed)
			eps := ix.ItemPruneBound(q)
			for node := 0; node < tree.NumNodes(); node++ {
				bound := subtreeBound(ix, node, q)
				for item := range subtreeItems(tree, node) {
					if s := ix.ScoreItem(item, q); s > bound+eps {
						t.Fatalf("useBias=%v node %d item %d: score %v exceeds bound %v + eps %v",
							useBias, node, item, s, bound, eps)
					}
				}
			}
		}
	}
}

// TestSubtreeBoundLeafIsTight pins the leaf base case: a leaf's envelope
// is its own row, so its bound equals its score up to evaluation rounding.
func TestSubtreeBoundLeafIsTight(t *testing.T) {
	_, c := indexWorld(t, true)
	ix, tree := c.Index, c.Tree
	q := indexQuery(c.K(), 41)
	eps := ix.ItemPruneBound(q)
	for item := 0; item < c.NumItems(); item++ {
		leaf := tree.ItemNode(item)
		bound := subtreeBound(ix, leaf, q)
		score := ix.ScoreItem(item, q)
		if math.Abs(bound-score) > eps {
			t.Fatalf("item %d: leaf bound %v differs from score %v beyond eps %v", item, bound, score, eps)
		}
	}
}

// TestSubtreeBoundMonotoneUpTree checks envelope nesting: a parent's bound
// dominates every child's bound (the parent envelope contains the child's
// and its max bias is at least the child's).
func TestSubtreeBoundMonotoneUpTree(t *testing.T) {
	_, c := indexWorld(t, true)
	ix, tree := c.Index, c.Tree
	q := indexQuery(c.K(), 13)
	eps := ix.ItemPruneBound(q)
	for d := tree.Depth(); d >= 1; d-- {
		for _, node := range tree.Level(d) {
			p := tree.Parent(int(node))
			if child, parent := subtreeBound(ix, int(node), q), subtreeBound(ix, p, q); child > parent+eps {
				t.Fatalf("node %d bound %v exceeds parent %d bound %v", node, child, p, parent)
			}
		}
	}
}

// An interleaved hand-built tree still gets valid envelopes: bounds are
// folded through the parent chain, not the item ranges, so non-contiguous
// subtrees dominate their items too.
func TestSubtreeBoundNonContiguousTree(t *testing.T) {
	parents := []int{taxonomy.NoParent, 0, 0, 1, 2, 1, 2}
	tree, err := taxonomy.NewFromParents(parents)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(tree, 2, Params{K: 3, TaxonomyLevels: 2, Alpha: 1, InitStd: 0.4, UseBias: true}, vecmath.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	ix := m.Compose().Index
	q := indexQuery(3, 9)
	eps := ix.ItemPruneBound(q)
	for node := 0; node < tree.NumNodes(); node++ {
		bound := subtreeBound(ix, node, q)
		for item := range subtreeItems(tree, node) {
			if s := ix.ScoreItem(item, q); s > bound+eps {
				t.Fatalf("node %d item %d: score %v exceeds bound %v", node, item, s, bound)
			}
		}
	}
}

// TestCutBoundDominatesScores is the category sweep's invariant: the cut
// partitions the catalog, and every item scores at most its category's
// ball bound plus the returned allowance.
func TestCutBoundDominatesScores(t *testing.T) {
	for _, useBias := range []bool{false, true} {
		_, c := indexWorld(t, useBias)
		ix, tree := c.Index, c.Tree
		if got, want := ix.NumCut(), len(tree.Level(tree.Depth()-1)); got != want {
			t.Fatalf("cut holds %d categories, want the %d item parents", got, want)
		}
		bounds := make([]float64, ix.NumCut())
		for _, seed := range []uint64{3, 11, 29} {
			q := indexQuery(c.K(), seed)
			eps := ix.CutBoundsInto(q, bounds)
			seen := 0
			for j := range bounds {
				lo, hi := ix.DFSSpan(ix.CutNode(j))
				seen += hi - lo
				for _, it := range ix.DFSItems()[lo:hi] {
					if s := ix.ScoreItem(int(it), q); s > bounds[j]+eps {
						t.Fatalf("useBias=%v category %d item %d: score %v exceeds bound %v + eps %v",
							useBias, j, it, s, bounds[j], eps)
					}
				}
			}
			if seen != ix.NumItems() {
				t.Fatalf("cut covers %d items, catalog %d", seen, ix.NumItems())
			}
		}
	}
}

// TestItemPruneBoundScalesWithQuery pins the ε shape: zero only for the
// all-zero bias-free case, monotone in |q|, and finite for finite input.
func TestItemPruneBoundScalesWithQuery(t *testing.T) {
	_, c := indexWorld(t, true)
	ix := c.Index
	small := ix.ItemPruneBound([]float64{0.1, 0, 0, 0, 0, 0})
	big := ix.ItemPruneBound([]float64{100, 0, 0, 0, 0, 0})
	if !(small > 0) || !(big > small) {
		t.Fatalf("prune bound not positive-monotone: small=%v big=%v", small, big)
	}
	if inf := ix.ItemPruneBound([]float64{math.Inf(1), 0, 0, 0, 0, 0}); !math.IsInf(inf, 1) {
		t.Fatalf("infinite query should give +Inf eps, got %v", inf)
	}
}

// dfsLayoutCheck asserts the depth-first layout invariants on one tree:
// dfsItems is a permutation of the catalog, every node's span holds
// exactly its subtree's items, and child spans partition the parent's.
func dfsLayoutCheck(t *testing.T, tree *taxonomy.Tree, ix *ScoringIndex) {
	t.Helper()
	dfs := ix.DFSItems()
	if len(dfs) != ix.NumItems() {
		t.Fatalf("dfs order has %d entries, catalog %d", len(dfs), ix.NumItems())
	}
	seen := make(map[int32]bool, len(dfs))
	for _, it := range dfs {
		if seen[it] {
			t.Fatalf("item %d appears twice in DFS order", it)
		}
		seen[it] = true
	}
	for node := 0; node < tree.NumNodes(); node++ {
		lo, hi := ix.DFSSpan(node)
		want := subtreeItems(tree, node)
		if hi-lo != len(want) {
			t.Fatalf("node %d: span width %d, subtree has %d items", node, hi-lo, len(want))
		}
		for _, it := range dfs[lo:hi] {
			if !want[int(it)] {
				t.Fatalf("node %d: span holds item %d outside its subtree", node, it)
			}
		}
		pos := lo
		for _, ch := range tree.Children(node) {
			clo, chi := ix.DFSSpan(int(ch))
			if clo != pos {
				t.Fatalf("node %d child %d: span starts at %d, want %d", node, ch, clo, pos)
			}
			pos = chi
		}
		if len(tree.Children(node)) > 0 && pos != hi {
			t.Fatalf("node %d: child spans end at %d, parent span at %d", node, pos, hi)
		}
	}
	rlo, rhi := ix.DFSSpan(tree.Root())
	if rlo != 0 || rhi != ix.NumItems() {
		t.Fatalf("root span [%d,%d), want [0,%d)", rlo, rhi, ix.NumItems())
	}
}

// TestDFSLayout pins the depth-first layout on a generated world (whose
// interior item ranges interleave) and on a hand-built tree.
func TestDFSLayout(t *testing.T) {
	_, c := indexWorld(t, true)
	dfsLayoutCheck(t, c.Tree, c.Index)

	tree, err := taxonomy.NewFromParents([]int{taxonomy.NoParent, 0, 0, 1, 2, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(tree, 2, Params{K: 3, TaxonomyLevels: 2, Alpha: 1, InitStd: 0.4}, vecmath.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	dfsLayoutCheck(t, tree, m.Compose().Index)
}

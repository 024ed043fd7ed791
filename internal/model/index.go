package model

import (
	"math"
	"sync"

	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

// ScoringIndex is the flattened serving view of a Composed snapshot: the
// effective factors laid out as contiguous row-major slabs so the hot
// scoring loops are branch-free sequential sweeps instead of
// tree-indirected Row lookups. Compose builds one per snapshot; it is
// immutable and safe for concurrent use.
//
// Two slabs are kept. The item-major slab orders the leaves by item id and
// backs the full-catalog sweep (ItemScoresInto, streaming top-k). The
// node-major slab orders every taxonomy node by node id and backs cascaded
// inference, which scores arbitrary per-level frontiers. The composed
// popularity bias is folded into a parallel array per slab — all zeros for
// models trained without UseBias — so scoring never branches on P.UseBias.
type ScoringIndex struct {
	k        int
	numItems int

	// shardItems is the item count per sweep shard (the last shard may be
	// short). Shards partition the item-major slab into cache-sized
	// contiguous ranges that the parallel inference pool sweeps
	// concurrently; scores are identical whichever shard an item lands in
	// because every row's dot product is computed independently.
	shardItems int

	itemFactors []float64 // numItems x k, item-major
	itemBias    []float64 // numItems

	nodeFactors []float64 // numNodes x k, node-major
	nodeBias    []float64 // numNodes

	// Quantized int8 mirror of the item slab — an eighth of the f64 bytes
	// per row — with per-row affine code parameters and the slab-wide
	// aggregates ItemErrBoundI8 charges. It is built lazily on first int8
	// use, so a host sweeping f64 never pays the extra slab memory; the
	// f64 slabs stay authoritative for the exact rescore.
	i8Once       sync.Once
	itemI8       *vecmath.MatrixI8 // numItems x k
	itemScaleI8  []float64         // numItems
	itemOffsetI8 []float64         // numItems

	maxItemRowErrI8, maxItemScaleI8, maxAbsItemOffsetI8 float64

	// Magnitude bounds of the item slab, shared by the int8 tier's
	// certified error bound and the cut's allowance (ensureBounds).
	boundsOnce                       sync.Once
	maxAbsItemFactor, maxAbsItemBias float64

	// itemCat[d][i] is item i's ancestor node at taxonomy depth d
	// (itemCat[0] is all-root, itemCat[Depth] the leaf nodes themselves);
	// diversified ranking resolves category quotas through it without
	// walking parent pointers per item.
	itemCat [][]int32

	// levelPos[node] is the node's offset within its taxonomy level
	// (tree.Level(depth(node))); per-level dense tables are indexed by it.
	levelPos []int32

	// nodeDepth[node] is the node's taxonomy depth (root = 0); the
	// subtree-mask fallback uses it to pick the itemCat column to scan.
	nodeDepth []int32

	// itemLo/itemHi bound the item ids of node's leaf descendants:
	// every leaf under node has an item id in [itemLo, itemHi), and
	// subtreeLeaves counts them. When subtreeLeaves == itemHi − itemLo the
	// subtree's leaves exactly fill the range and a taxonomy filter over
	// the node becomes two word-aligned mask operations instead of a
	// catalog scan. Interior nodes of generated taxonomies usually do NOT
	// fill their range — item ids interleave across sibling subtrees — which
	// is what the depth-first layout below exists to repair.
	itemLo, itemHi []int32
	subtreeLeaves  []int32

	// dfsItems lists every item id in depth-first taxonomy order and
	// dfsLo/dfsHi give each node's span into it, so EVERY subtree — however
	// interleaved its raw item ids — is one contiguous run of dfsItems.
	// Child spans partition their parent's span in child order by
	// construction, so the category sweep gathers any category's items as
	// one run.
	dfsItems     []int32 // numItems
	dfsLo, dfsHi []int32 // numNodes

	// Per-subtree score envelopes, built eagerly at Compose() time like
	// the item ranges and carried by the v4 file format. subLo/subHi hold,
	// per node and factor dimension, the exact coordinate-wise
	// minimum/maximum over the item rows of the node's subtree (a leaf's
	// envelope is its own row; an interior node's is the fold of its
	// children's — comparisons only, so no rounding enters the envelope
	// itself). subMaxBias holds the maximum folded bias over the subtree's
	// items; nodes with empty subtrees keep the identity envelope
	// (+Inf/−Inf). The cut (cut.go) takes its ball centres from the cut
	// level's envelopes; no sweep reads them.
	subLo, subHi []float64 // numNodes x k
	subMaxBias   []float64 // numNodes

	// cut holds the ball bounds of the item parents (cut.go), derived
	// from the slabs above by Compose and LoadFile alike.
	cut itemCut
}

// buildIndex flattens the composed factor matrices for a taxonomy. The
// node-major slab aliases eff's compact data (a Composed snapshot is
// immutable), as the mapped v4 path does. Bias is folded only when
// useBias is set, matching the scoring semantics of Composed.NodeScore.
func buildIndex(tree *taxonomy.Tree, eff *vecmath.Matrix, effBias *vecmath.Matrix, useBias bool) *ScoringIndex {
	k := eff.Cols()
	numItems := tree.NumItems()
	numNodes := tree.NumNodes()
	ix := &ScoringIndex{
		k:           k,
		numItems:    numItems,
		itemFactors: make([]float64, numItems*k),
		itemBias:    make([]float64, numItems),
		nodeFactors: eff.CompactData(),
		nodeBias:    make([]float64, numNodes),
	}
	if useBias {
		copy(ix.nodeBias, effBias.CompactData())
	}
	for item := 0; item < numItems; item++ {
		node := tree.ItemNode(item)
		copy(ix.itemFactors[item*k:(item+1)*k], ix.nodeFactors[node*k:(node+1)*k])
		ix.itemBias[item] = ix.nodeBias[node]
	}
	ix.itemCat = make([][]int32, tree.Depth()+1)
	for d := range ix.itemCat {
		col := make([]int32, numItems)
		for item := range col {
			col[item] = itemAncestor(tree, item, d)
		}
		ix.itemCat[d] = col
	}
	lay := buildLayout(tree)
	ix.levelPos, ix.nodeDepth = lay.levelPos, lay.nodeDepth
	ix.itemLo, ix.itemHi, ix.subtreeLeaves = lay.itemLo, lay.itemHi, lay.subtreeLeaves
	ix.dfsItems, ix.dfsLo, ix.dfsHi = lay.dfsItems, lay.dfsLo, lay.dfsHi
	// per-subtree score envelopes: seed each leaf node with its own item
	// row and bias, then fold children into parents (foldEnvelopes)
	ix.subLo = make([]float64, numNodes*k)
	ix.subHi = make([]float64, numNodes*k)
	ix.subMaxBias = make([]float64, numNodes)
	identityEnvelope(ix.subLo, ix.subHi, ix.subMaxBias)
	for item := 0; item < numItems; item++ {
		node := tree.ItemNode(item)
		copy(ix.subLo[node*k:(node+1)*k], ix.itemFactors[item*k:(item+1)*k])
		copy(ix.subHi[node*k:(node+1)*k], ix.itemFactors[item*k:(item+1)*k])
		ix.subMaxBias[node] = ix.itemBias[item]
	}
	foldEnvelopes(tree, func(node int) ([]float64, []float64, *float64) {
		return ix.subLo[node*k : (node+1)*k], ix.subHi[node*k : (node+1)*k], &ix.subMaxBias[node]
	})
	ix.shardItems = defaultShardItems(k)
	ix.buildCut(tree, ix.slabRows)
	return ix
}

// itemAncestor is item's ancestor node at taxonomy depth d — one entry of
// the itemCat table.
func itemAncestor(tree *taxonomy.Tree, item, d int) int32 {
	return int32(tree.AncestorAtDepth(tree.ItemNode(item), d))
}

// indexLayout holds the ScoringIndex tables that depend on the taxonomy
// alone, all O(numNodes): buildIndex adopts them and Save writes them
// straight from here, so both derive them through one definition.
type indexLayout struct {
	levelPos, nodeDepth           []int32
	itemLo, itemHi, subtreeLeaves []int32
	dfsItems, dfsLo, dfsHi        []int32
}

// buildLayout derives the level positions, subtree item ranges and
// depth-first item layout of a taxonomy (see the ScoringIndex fields of
// the same names).
func buildLayout(tree *taxonomy.Tree) indexLayout {
	numItems, numNodes := tree.NumItems(), tree.NumNodes()
	lay := indexLayout{
		levelPos:  make([]int32, numNodes),
		nodeDepth: make([]int32, numNodes),
	}
	for d := 0; d <= tree.Depth(); d++ {
		for i, node := range tree.Level(d) {
			lay.levelPos[node] = int32(i)
			lay.nodeDepth[node] = int32(d)
		}
	}
	// subtree item bounds, accumulated leaves-up: a leaf spans exactly its
	// own item id; an interior node spans the union of its children.
	lay.itemLo = make([]int32, numNodes)
	lay.itemHi = make([]int32, numNodes)
	lay.subtreeLeaves = make([]int32, numNodes)
	for node := range lay.itemLo {
		lay.itemLo[node] = int32(numItems)
	}
	for item := 0; item < numItems; item++ {
		node := tree.ItemNode(item)
		lay.itemLo[node] = int32(item)
		lay.itemHi[node] = int32(item + 1)
		lay.subtreeLeaves[node] = 1
	}
	for d := tree.Depth(); d >= 1; d-- {
		for _, node := range tree.Level(d) {
			p := tree.Parent(int(node))
			if lay.itemLo[node] < lay.itemLo[p] {
				lay.itemLo[p] = lay.itemLo[node]
			}
			if lay.itemHi[node] > lay.itemHi[p] {
				lay.itemHi[p] = lay.itemHi[node]
			}
			lay.subtreeLeaves[p] += lay.subtreeLeaves[node]
		}
	}
	// depth-first item layout, assigned top-down: the root spans the whole
	// catalog and each node hands its children consecutive sub-spans sized
	// by their leaf counts — the order a recursive DFS would visit them in,
	// without the recursion. A leaf's width-1 span then pins its item into
	// dfsItems, making every subtree a contiguous run even when raw item
	// ids interleave across siblings.
	lay.dfsItems = make([]int32, numItems)
	lay.dfsLo = make([]int32, numNodes)
	lay.dfsHi = make([]int32, numNodes)
	root := tree.Root()
	lay.dfsHi[root] = lay.subtreeLeaves[root]
	for d := 0; d < tree.Depth(); d++ {
		for _, node := range tree.Level(d) {
			pos := lay.dfsLo[node]
			for _, ch := range tree.Children(int(node)) {
				lay.dfsLo[ch] = pos
				pos += lay.subtreeLeaves[ch]
				lay.dfsHi[ch] = pos
			}
		}
	}
	for item := 0; item < numItems; item++ {
		lay.dfsItems[lay.dfsLo[tree.ItemNode(item)]] = int32(item)
	}
	return lay
}

// identityEnvelope resets envelope storage to the empty-subtree identity:
// lo = +Inf, hi = −Inf, max bias = −Inf.
func identityEnvelope(lo, hi, maxBias []float64) {
	for i := range lo {
		lo[i] = math.Inf(1)
		hi[i] = math.Inf(-1)
	}
	for i := range maxBias {
		maxBias[i] = math.Inf(-1)
	}
}

// foldEnvelopes accumulates the per-subtree score envelopes leaves-up:
// every node's envelope is folded into its parent's with coordinate-wise
// min/max, deepest level first, in level order. env returns a node's
// envelope rows and max-bias slot; a leaf's envelope is its own item row
// and bias, and every interior node's storage must start at the identity.
// Only comparisons are involved, so each envelope is the exact
// coordinate-wise min/max over the subtree's item rows — and because the
// fold order is fixed, so is the sign of any zero it keeps.
func foldEnvelopes(tree *taxonomy.Tree, env func(node int) (lo, hi []float64, maxBias *float64)) {
	for d := tree.Depth(); d >= 1; d-- {
		for _, node := range tree.Level(d) {
			cLo, cHi, cBias := env(int(node))
			pLo, pHi, pBias := env(tree.Parent(int(node)))
			for j := range cLo {
				if cLo[j] < pLo[j] {
					pLo[j] = cLo[j]
				}
				if cHi[j] > pHi[j] {
					pHi[j] = cHi[j]
				}
			}
			if *cBias > *pBias {
				*pBias = *cBias
			}
		}
	}
}

// ensureBounds records the item slab's magnitude bounds on first use by
// the int8 tier or the cut's allowance; both read them.
func (ix *ScoringIndex) ensureBounds() {
	ix.boundsOnce.Do(func() {
		ix.maxAbsItemFactor = vecmath.MaxAbs(ix.itemFactors)
		ix.maxAbsItemBias = vecmath.MaxAbs(ix.itemBias)
	})
}

// shardTargetBytes is the factor-slab footprint a sweep shard aims for:
// small enough that a shard's rows stay resident in a core's L2 while its
// worker streams through them, large enough that shard-claiming overhead
// (one atomic increment per shard) is noise.
const shardTargetBytes = 256 << 10

// defaultShardItems derives the per-shard item count from the factor
// dimensionality, rounded to a multiple of 64 rows so shard boundaries
// stay cache-line aligned for any k. Sizing charges 4 bytes per factor:
// the int8 sweep reads a quarter of the target bytes per shard, and a
// float64 sweep over the same partition reads 2x, still L2-resident on
// current cores.
func defaultShardItems(k int) int {
	if k <= 0 {
		return 64
	}
	n := shardTargetBytes / (k * 4)
	n &^= 63
	if n < 64 {
		n = 64
	}
	return n
}

// ShardItems returns the current items-per-shard of the sweep partition.
func (ix *ScoringIndex) ShardItems() int { return ix.shardItems }

// SetShardItems overrides the sweep shard size — a tuning knob for
// hardware with unusual cache geometry and a lever for tests that need
// specific shard counts. Values below 1 are clamped to 1. It must be
// called before the index is shared across goroutines; the slabs remain
// immutable.
func (ix *ScoringIndex) SetShardItems(n int) {
	if n < 1 {
		n = 1
	}
	ix.shardItems = n
}

// NumShards returns how many shards partition the catalog (zero for an
// empty catalog).
func (ix *ScoringIndex) NumShards() int {
	return (ix.numItems + ix.shardItems - 1) / ix.shardItems
}

// Shard returns the item range [lo, hi) of shard s; the final shard is
// truncated at the catalog end.
func (ix *ScoringIndex) Shard(s int) (lo, hi int) {
	lo = s * ix.shardItems
	hi = lo + ix.shardItems
	if hi > ix.numItems {
		hi = ix.numItems
	}
	return lo, hi
}

// K returns the factor dimensionality.
func (ix *ScoringIndex) K() int { return ix.k }

// NumItems returns the leaf count.
func (ix *ScoringIndex) NumItems() int { return ix.numItems }

// ItemFactor returns item's effective factor as a read-only view into the
// item-major slab.
func (ix *ScoringIndex) ItemFactor(item int) []float64 {
	return ix.itemFactors[item*ix.k : (item+1)*ix.k : (item+1)*ix.k]
}

// ScoreItem returns item's affinity bias + ⟨q, vI_item⟩.
func (ix *ScoringIndex) ScoreItem(item int, q []float64) float64 {
	return vecmath.DotBias(q, ix.ItemFactor(item), ix.itemBias[item])
}

// ScoreNode returns the affinity of any taxonomy node (category or leaf).
func (ix *ScoringIndex) ScoreNode(node int, q []float64) float64 {
	return vecmath.DotBias(q, ix.nodeFactors[node*ix.k:(node+1)*ix.k:(node+1)*ix.k], ix.nodeBias[node])
}

// ItemScoresInto writes the affinity of every item into dst
// (len == NumItems) with one blocked matrix–vector sweep.
func (ix *ScoringIndex) ItemScoresInto(q, dst []float64) {
	vecmath.MatVecBias(ix.itemFactors, ix.k, ix.itemBias, q, dst)
}

// ItemScoresRangeInto scores the contiguous item range [lo, hi) into
// dst[:hi-lo]; the streaming top-k sweep uses it to score fixed-size blocks
// into a stack buffer.
func (ix *ScoringIndex) ItemScoresRangeInto(q []float64, lo, hi int, dst []float64) {
	vecmath.MatVecBias(ix.itemFactors[lo*ix.k:hi*ix.k], ix.k, ix.itemBias[lo:hi], q, dst[:hi-lo])
}

// ItemRange returns the item-id bounds [lo, hi) of node's leaf
// descendants and whether those leaves exactly fill the range. Contiguous
// subtrees let a category filter resolve to a single range operation on
// the item-major layout; non-contiguous ones fall back to an
// ancestor-column scan (or, in the category sweep, to a DFSSpan gather).
func (ix *ScoringIndex) ItemRange(node int) (lo, hi int, contiguous bool) {
	lo, hi = int(ix.itemLo[node]), int(ix.itemHi[node])
	return lo, hi, int(ix.subtreeLeaves[node]) == hi-lo
}

// DFSSpan returns node's span [lo, hi) into the depth-first item order
// (see DFSItems). Unlike ItemRange, the span is contiguous for EVERY node:
// hi−lo always equals the subtree's leaf count, and the spans of a node's
// children partition its own span in child order. An empty span (lo == hi)
// marks a node with no leaf descendants.
func (ix *ScoringIndex) DFSSpan(node int) (lo, hi int) {
	return int(ix.dfsLo[node]), int(ix.dfsHi[node])
}

// DFSItems returns the catalog's item ids in depth-first taxonomy order as
// a shared read-only slice: dfsItems[DFSSpan(node)] is exactly the item
// set of node's subtree, for every node. The category sweep gather-scores
// through it when a category's raw item ids interleave with its
// siblings', and the cascade marks its kept categories' leaves through
// it.
func (ix *ScoringIndex) DFSItems() []int32 { return ix.dfsItems }

// ItemPruneBound returns the rounding allowance of an n-term score bound
// whose terms are dominated by those of the item scores: ε such that the
// float64 evaluation of such a bound and of ScoreItem(item, q) can differ
// from their real values by at most ε in total. Each n-term sum is within
// the standard γ_{n+1} accumulation error of its real value, so the two
// together stay within ~2(n+2)·2⁻⁵³·(Σ|q|·max|v| + max|bias|). We charge
// 2⁻⁵⁰ per step — 4x slack — plus a tiny absolute term for subnormals.
// CutBoundsInto adds its ball term's share to it.
func (ix *ScoringIndex) ItemPruneBound(q []float64) float64 {
	ix.ensureBounds()
	var sumAbs float64
	for _, v := range q {
		sumAbs += math.Abs(v)
	}
	const u = 1.0 / (1 << 50)
	return (float64(len(q))+4)*u*(sumAbs*ix.maxAbsItemFactor+ix.maxAbsItemBias) + 1e-300
}

// MarkSubtree sets (value = true) or clears the mask bit of every item in
// node's subtree. This is the item-major resolution step of taxonomy
// allow/deny filters: contiguous subtrees become one word-aligned range
// write; the rest scan the node's depth column of the ancestor table.
func (ix *ScoringIndex) MarkSubtree(mask *vecmath.Bitset, node int, value bool) {
	if lo, hi, contiguous := ix.ItemRange(node); contiguous {
		if value {
			mask.SetRange(lo, hi)
		} else {
			mask.UnsetRange(lo, hi)
		}
		return
	}
	col := ix.itemCat[ix.nodeDepth[node]]
	for item, ancestor := range col {
		if int(ancestor) != node {
			continue
		}
		if value {
			mask.Set(item)
		} else {
			mask.Unset(item)
		}
	}
}

// ItemCategory returns item's ancestor node at the given taxonomy depth.
func (ix *ScoringIndex) ItemCategory(item, depth int) int {
	return int(ix.itemCat[depth][item])
}

// LevelPos returns node's offset within its taxonomy level, a dense key
// for per-level tables.
func (ix *ScoringIndex) LevelPos(node int) int {
	return int(ix.levelPos[node])
}

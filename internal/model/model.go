// Package model defines the taxonomy-aware temporal latent factor model
// (TF) of Kanagal et al. (VLDB 2012) §3: per-user factors, per-taxonomy-
// node offset factors whose path sums form the effective item factors
// (Eq. 1), next-item offset factors for short-term dynamics, and the
// order-N Markov affinity score (Eq. 2–3).
//
// The plain matrix-factorization baselines are exact special cases:
// MF(B) == TF with TaxonomyLevels=1 and MarkovOrder=B; in particular
// MF(0) is classic BPR-MF and MF(1) is FPMC (§7.2).
package model

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

// Params are the TF hyper-parameters. The two structural knobs carry the
// paper's names in comments: TaxonomyLevels is taxonomyUpdateLevels (U) and
// MarkovOrder is maxPrevtransactions (B/N).
type Params struct {
	// K is the factor dimensionality.
	K int
	// TaxonomyLevels (taxonomyUpdateLevels, U) is how many path levels
	// from the leaf upward carry trained offsets. U=1 uses only the item
	// level (plain latent factor model); U=4 on the paper's tree uses
	// item + three category levels.
	TaxonomyLevels int
	// MarkovOrder (maxPrevtransactions, B) is how many previous
	// transactions feed the short-term term of Eq. 3. 0 disables it.
	MarkovOrder int
	// Alpha scales the exponential-decay transaction weights
	// α_n = Alpha·e^(−n/N) of Eq. 3.
	Alpha float64
	// InitStd is the standard deviation of the Gaussian factor
	// initialization.
	InitStd float64
	// UseBias enables per-item popularity biases, which §2.1 of the paper
	// mentions but omits "for simplicity of exposition". Like the factors,
	// biases are composed over the taxonomy — every node carries a bias
	// offset and an item's bias is its path sum — so popular categories
	// lift their items (and new items inherit their category's
	// popularity). User biases are omitted: they cancel in the BPR pair
	// difference and are unidentifiable.
	UseBias bool
	// UniformDecay switches the Markov weights from the paper's
	// exponential decay to uniform α_n = Alpha/N — the ablation DESIGN.md
	// §6 calls out.
	UniformDecay bool
}

// DefaultParams returns sensible defaults: K=20, full taxonomy use is left
// to the caller (TaxonomyLevels=1 is plain MF).
func DefaultParams() Params {
	return Params{K: 20, TaxonomyLevels: 1, MarkovOrder: 0, Alpha: 1.0, InitStd: 0.01}
}

// Validate checks the parameter block.
func (p Params) Validate() error {
	if p.K <= 0 {
		return fmt.Errorf("model: K must be positive, got %d", p.K)
	}
	if p.TaxonomyLevels < 1 {
		return fmt.Errorf("model: TaxonomyLevels must be >= 1, got %d", p.TaxonomyLevels)
	}
	if p.MarkovOrder < 0 {
		return fmt.Errorf("model: MarkovOrder must be >= 0, got %d", p.MarkovOrder)
	}
	if p.InitStd < 0 {
		return fmt.Errorf("model: InitStd must be >= 0, got %v", p.InitStd)
	}
	return nil
}

// DecayWeights returns the Markov weights α_1..α_N of Eq. 3
// (α_n = Alpha·e^(−n/N), or Alpha/N with UniformDecay); index 0 holds α_1.
// Nil when MarkovOrder is 0.
func (p Params) DecayWeights() []float64 {
	if p.MarkovOrder == 0 {
		return nil
	}
	w := make([]float64, p.MarkovOrder)
	for n := 1; n <= p.MarkovOrder; n++ {
		if p.UniformDecay {
			w[n-1] = p.Alpha / float64(p.MarkovOrder)
		} else {
			w[n-1] = p.Alpha * math.Exp(-float64(n)/float64(p.MarkovOrder))
		}
	}
	return w
}

// TF is the model state Θ = {vU, wI, wI→•}. User rows are user factors;
// Node and Next rows are per-taxonomy-node offsets for the item and
// next-item factor trees respectively. Offsets outside the trained band
// (path positions >= TaxonomyLevels, counted from the leaf) are zero at
// initialization and never updated, so effective factors can always be
// composed by summing the full path to the root.
type TF struct {
	P    Params
	Tree *taxonomy.Tree

	User *vecmath.Matrix // numUsers x K
	Node *vecmath.Matrix // numNodes x K: item-offset factors wI
	Next *vecmath.Matrix // numNodes x K: next-item offsets wI→•
	// Bias is the per-node popularity bias offset (numNodes x 1); an
	// item's bias is its path sum. Zero-initialized and only trained when
	// P.UseBias is set, so it is inert otherwise.
	Bias *vecmath.Matrix

	// paths holds, for every item, the node ids on its path to the root
	// (leaf first), flattened with stride pathLen.
	paths   []int32
	pathLen int
	// trainedBand = min(TaxonomyLevels, pathLen): the number of leading
	// path positions whose offsets receive gradient updates.
	trainedBand int

	weights []float64 // cached DecayWeights
}

// New allocates and initializes a TF model for numUsers users over tree.
// Only offsets in the trained band get Gaussian initialization, which keeps
// untouched levels exactly zero (so e.g. TaxonomyLevels=1 is bit-for-bit a
// flat latent factor model).
func New(tree *taxonomy.Tree, numUsers int, p Params, rng *vecmath.RNG) (*TF, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if numUsers <= 0 {
		return nil, fmt.Errorf("model: numUsers must be positive, got %d", numUsers)
	}
	if !tree.IsUniformDepth() {
		return nil, fmt.Errorf("model: taxonomy must have uniform leaf depth for the additive composition of Eq. 1")
	}
	pathLen := tree.Depth() + 1
	band := p.TaxonomyLevels
	if band > pathLen {
		band = pathLen
	}
	// Factor matrices are row-padded to cache-line boundaries: the
	// multi-core trainer has goroutines updating adjacent rows
	// concurrently, and unpadded 8·K-byte rows would false-share lines.
	m := &TF{
		P:           p,
		Tree:        tree,
		User:        vecmath.NewMatrixPadded(numUsers, p.K),
		Node:        vecmath.NewMatrixPadded(tree.NumNodes(), p.K),
		Next:        vecmath.NewMatrixPadded(tree.NumNodes(), p.K),
		Bias:        vecmath.NewMatrixPadded(tree.NumNodes(), 1),
		pathLen:     pathLen,
		trainedBand: band,
		weights:     p.DecayWeights(),
	}
	m.User.FillGaussian(rng, p.InitStd)

	// Precompute item paths once; the SGD inner loop walks them millions
	// of times.
	m.paths = make([]int32, tree.NumItems()*pathLen)
	buf := make([]int32, 0, pathLen)
	for item := 0; item < tree.NumItems(); item++ {
		buf = m.Tree.PathToRoot(tree.ItemNode(item), buf[:0])
		copy(m.paths[item*pathLen:(item+1)*pathLen], buf)
	}

	// Gaussian-init only the trained band of the offset trees, in level
	// order so a fixed seed always yields the same model.
	minDepth := tree.Depth() - band + 1
	for d := minDepth; d <= tree.Depth(); d++ {
		if d < 0 {
			continue
		}
		for _, n := range tree.Level(d) {
			fillRowGaussian(m.Node.Row(int(n)), rng, p.InitStd)
			fillRowGaussian(m.Next.Row(int(n)), rng, p.InitStd)
		}
	}
	return m, nil
}

// TrainedNode reports whether node's offsets are inside the trained band
// (depths Depth()−TrainedBand+1 .. Depth()).
func (m *TF) TrainedNode(node int) bool {
	return m.Tree.DepthOf(node) >= m.Tree.Depth()-m.trainedBand+1
}

func fillRowGaussian(row []float64, rng *vecmath.RNG, std float64) {
	for i := range row {
		row[i] = rng.NormFloat64() * std
	}
}

// NumUsers returns the user count the model was built for.
func (m *TF) NumUsers() int { return m.User.Rows() }

// NumItems returns the item (leaf) count.
func (m *TF) NumItems() int { return m.Tree.NumItems() }

// K returns the factor dimensionality.
func (m *TF) K() int { return m.P.K }

// PathLen returns the item path length (tree depth + 1).
func (m *TF) PathLen() int { return m.pathLen }

// TrainedBand returns min(TaxonomyLevels, PathLen): how many leading path
// positions are updated by training.
func (m *TF) TrainedBand() int { return m.trainedBand }

// ItemPath returns item's full path to the root (leaf first) as a shared
// read-only slice.
func (m *TF) ItemPath(item int) []int32 {
	return m.paths[item*m.pathLen : (item+1)*m.pathLen]
}

// ItemFactorInto composes the effective item factor vI of Eq. 1 into dst:
// the sum of the node offsets along the item's path.
func (m *TF) ItemFactorInto(item int, dst []float64) {
	vecmath.Zero(dst)
	for _, node := range m.ItemPath(item) {
		vecmath.Add(dst, m.Node.Row(int(node)))
	}
}

// NextFactorInto composes the effective next-item factor vI→• into dst.
func (m *TF) NextFactorInto(item int, dst []float64) {
	vecmath.Zero(dst)
	for _, node := range m.ItemPath(item) {
		vecmath.Add(dst, m.Next.Row(int(node)))
	}
}

// NodeFactorInto composes the effective factor of any taxonomy node into
// dst by summing offsets from the node to the root (§5.1 uses these to
// rank categories).
func (m *TF) NodeFactorInto(node int, dst []float64) {
	vecmath.Zero(dst)
	cur := node
	for {
		vecmath.Add(dst, m.Node.Row(cur))
		if cur == m.Tree.Root() {
			return
		}
		cur = m.Tree.Parent(cur)
	}
}

// BuildQueryInto writes the user's query vector at a time step into q:
// q = vU_u + Σ_n (α_n/|B_{t−n}|)·Σ_{ℓ∈B_{t−n}} vI→•_ℓ, so that the Eq. 3
// score of any item j is simply ⟨q, vI_j⟩. prev lists the user's previous
// baskets most-recent first (prev[0] = B_{t−1}); entries beyond MarkovOrder
// are ignored, missing entries contribute nothing.
func (m *TF) BuildQueryInto(user int, prev []dataset.Basket, q []float64) {
	vecmath.Copy(q, m.User.Row(user))
	if m.P.MarkovOrder == 0 {
		return
	}
	buf := make([]float64, m.P.K)
	for n := 0; n < len(prev) && n < m.P.MarkovOrder; n++ {
		basket := prev[n]
		if len(basket) == 0 {
			continue
		}
		coef := m.weights[n] / float64(len(basket))
		for _, item := range basket {
			m.NextFactorInto(int(item), buf)
			vecmath.AddScaled(q, coef, buf)
		}
	}
}

// ItemBias returns the composed popularity bias of item (0 unless UseBias
// trained it).
func (m *TF) ItemBias(item int) float64 {
	var b float64
	for _, node := range m.ItemPath(item) {
		b += m.Bias.Row(int(node))[0]
	}
	return b
}

// Score returns the Eq. 3 affinity ⟨q, vI_item⟩ (plus the composed item
// bias when UseBias) for a prebuilt query.
func (m *TF) Score(q []float64, item int) float64 {
	var s float64
	for _, node := range m.ItemPath(item) {
		s += vecmath.Dot(q, m.Node.Row(int(node)))
	}
	if m.P.UseBias {
		s += m.ItemBias(item)
	}
	return s
}

// GrowUsers extends the model to newNumUsers, keeping every existing user
// factor and Gaussian-initializing the new rows. Items cold-start through
// the taxonomy (§1); users cold-start by arriving here and getting their
// factors fitted by a warm-start training pass over their transactions.
func (m *TF) GrowUsers(newNumUsers int, rng *vecmath.RNG) error {
	if newNumUsers < m.NumUsers() {
		return fmt.Errorf("model: cannot shrink users from %d to %d", m.NumUsers(), newNumUsers)
	}
	if newNumUsers == m.NumUsers() {
		return nil
	}
	grown := vecmath.NewMatrixPadded(newNumUsers, m.P.K)
	for u := 0; u < m.User.Rows(); u++ {
		vecmath.Copy(grown.Row(u), m.User.Row(u))
	}
	for u := m.User.Rows(); u < newNumUsers; u++ {
		fillRowGaussian(grown.Row(u), rng, m.P.InitStd)
	}
	m.User = grown
	return nil
}

// PrevBaskets collects up to MarkovOrder baskets preceding transaction t
// in history, most-recent first — the B_{t−1}..B_{t−N} context of Eq. 3.
func (m *TF) PrevBaskets(history []dataset.Basket, t int) []dataset.Basket {
	if m.P.MarkovOrder == 0 {
		return nil
	}
	var prev []dataset.Basket
	for n := 1; n <= m.P.MarkovOrder && t-n >= 0; n++ {
		prev = append(prev, history[t-n])
	}
	return prev
}

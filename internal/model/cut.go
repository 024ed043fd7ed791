package model

import (
	"math"
	"math/big"
	"slices"

	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

// The cut is the set of distinct parents of items — for the uniform-depth
// trees a TF model requires, the lowest category level. Its categories
// partition the catalog, and each one carries a ball that holds every one
// of its item rows: a centre c (the midpoint of its items' bounding box,
// the category's envelope), a radius r (the largest item distance from c), and the
// largest folded bias b of its items. By Cauchy–Schwarz every item of the
// category scores at most
//
//	b + q·c + ‖q‖₂·r
//
// in real arithmetic (the cone-tree bound of Ram & Gray, KDD 2012), so one
// matrix–vector pass over the centres bounds every category at once, and
// the category sweep (infer) visits them best-first and stops at the first
// bound that cannot reach the current k-th score. The cut is derived data:
// Compose and LoadFile both rebuild it from the item slab and the
// envelopes, so the file format does not carry it.
//
// The radius is the exact maximum distance rounded up to the next float64
// — the smallest float64 that dominates every member's exact distance —
// which makes the ball as tight as float64 storage allows and keeps the
// rounding allowance (CutBoundsInto) a statement about evaluation alone.
type itemCut struct {
	nodes  []int32   // m category node ids, ascending
	size   []int32   // m: item counts
	centre []float64 // m x k
	radius []float64 // m
	bias   []float64 // m: the largest folded bias of the category's items
	maxR   float64   // the largest radius
}

// rowReader returns the f64 item rows [lo, hi), valid until its next
// call.
type rowReader func(lo, hi int) []float64

// slabRows reads rows straight from the index's item slab.
func (ix *ScoringIndex) slabRows(lo, hi int) []float64 {
	return ix.itemFactors[lo*ix.k : hi*ix.k]
}

// cutChunkBytes is how much of the slab one read of a cut pass covers.
const cutChunkBytes = 1 << 20

// buildCut derives the cut from a built index's layout, envelopes and
// biases and the item rows rows reads. A tree with an item parent that
// also has category children gets no cut (NumCut() == 0) — such a
// parent's items are not one depth-first span, and TF models never have
// one. The one pass over the rows (ballRadii) reads them in raw item
// order, chunk by chunk, so a mapped snapshot can stream them through the
// page cache instead of faulting the mapping in.
func (ix *ScoringIndex) buildCut(tree *taxonomy.Tree, rows rowReader) {
	k, n := ix.k, ix.numItems
	cutOf := make([]int32, tree.NumNodes())
	for node := range cutOf {
		cutOf[node] = -1
	}
	var cut itemCut
	for item := 0; item < n; item++ {
		cutOf[tree.Parent(tree.ItemNode(item))] = 0
	}
	for node, j := range cutOf {
		if j < 0 {
			continue
		}
		for _, ch := range tree.Children(node) {
			if !tree.IsLeaf(int(ch)) {
				return
			}
		}
		cutOf[node] = int32(len(cut.nodes))
		cut.nodes = append(cut.nodes, int32(node))
		cut.size = append(cut.size, int32(len(tree.Children(node))))
	}
	catOf := make([]int32, n)
	for item := range catOf {
		catOf[item] = cutOf[tree.Parent(tree.ItemNode(item))]
	}
	m := len(cut.nodes)
	// the centre is the midpoint of the members' bounding box, which is
	// the category's envelope; clamping it to the slab's largest magnitude
	// changes nothing for a consistent file and keeps CutBoundsInto's
	// allowance sound for any other
	ix.ensureBounds()
	cut.centre = make([]float64, m*k)
	cut.bias = make([]float64, m)
	for j, node := range cut.nodes {
		e := int(node) * k
		l, h := ix.subLo[e:e+k], ix.subHi[e:e+k]
		for d := range l {
			cut.centre[j*k+d] = min(max((l[d]+h[d])/2, -ix.maxAbsItemFactor), ix.maxAbsItemFactor)
		}
		cut.bias[j] = math.Inf(-1)
	}
	for item, j := range catOf {
		cut.bias[j] = max(cut.bias[j], ix.itemBias[item])
	}
	chunk := max(1, cutChunkBytes/(8*max(k, 1)))
	cut.radius = ix.ballRadii(&cut, catOf, rows, chunk)
	for _, r := range cut.radius {
		cut.maxR = max(cut.maxR, r)
	}
	ix.cut = cut
}

// ballRadii returns, per cut category, the smallest float64 r with
// r ≥ ‖v − c‖₂ exactly for the row v of every member. A float64 distance
// is within a 4(k+2)·2⁻⁵³ relative window of the exact one, so only the
// members within that window of the category's running float64 maximum
// can hold the exact maximum; a double-double pass over those settles it
// to ~2⁻⁹⁰ relative, which decides r unless the maximum sits within that
// of a float64 square — then exact big.Float arithmetic decides. A
// non-finite centre or member row gives +Inf, which makes the cut's
// allowance non-finite and sends every query to the dense sweep.
func (ix *ScoringIndex) ballRadii(cut *itemCut, catOf []int32, rows rowReader, chunk int) []float64 {
	k, m := ix.k, len(cut.nodes)
	window := 1 - 4*float64(k+2)*0x1p-53
	best := make([]float64, m)
	hi, lo := make([]float64, m), make([]float64, m)
	for first := 0; first < ix.numItems; first += chunk {
		last := min(first+chunk, ix.numItems)
		block := rows(first, last)
		for item := first; item < last; item++ {
			j := int(catOf[item])
			v, c := block[(item-first)*k:(item-first+1)*k], cut.centre[j*k:(j+1)*k]
			d := sqDist(v, c)
			if !(best[j] <= math.MaxFloat64) || d < best[j]*window-1e-300 {
				// already non-finite (NaN or +Inf sticks), or out of the
				// running maximum's window, which only grows
				continue
			}
			if !(d <= math.MaxFloat64) {
				best[j] = d
				continue
			}
			best[j] = max(best[j], d)
			if h, l := sqDistDD(v, c); h > hi[j] || (h == hi[j] && l > lo[j]) {
				hi[j], lo[j] = h, l
			}
		}
	}
	radius := make([]float64, m)
	for j := range radius {
		c := cut.centre[j*k : (j+1)*k]
		dlo, dhi := ix.DFSSpan(int(cut.nodes[j]))
		members := ix.dfsItems[dlo:dhi]
		exact := func() float64 {
			far := new(big.Float)
			for _, it := range members {
				if e := exactSqDist(rows(int(it), int(it)+1), c); e.Cmp(far) > 0 {
					far = e
				}
			}
			return ceilSqrt(far)
		}
		switch {
		case !(best[j] <= math.MaxFloat64):
			radius[j] = math.Inf(1)
		case hi[j] == 0:
			// every member equals c, or its distance underflows
			for _, it := range members {
				if !slices.Equal(rows(int(it), int(it)+1), c) {
					radius[j] = exact()
					break
				}
			}
		default:
			radius[j] = ceilSqrtDD(hi[j], lo[j], k, exact)
		}
	}
	return radius
}

// ceilSqrtDD returns the smallest float64 r with r² ≥ hi+lo, a k-term
// double-double sum of squares, or exact() when hi+lo lies too close to a
// float64 square to tell.
func ceilSqrtDD(hi, lo float64, k int, exact func() float64) float64 {
	// the double-double error: k terms, each within ~2⁻¹⁰⁴ of its square,
	// and a low-part sum within k·2⁻⁵³ of itself; plus underflow
	tol := hi*float64(k*k+8)*0x1p-100 + float64(k)*0x1p-1060
	r := math.Sqrt(hi)
	for {
		switch cmpSq(r, hi, lo, tol) {
		case 0:
			return exact()
		case -1:
			r = math.Nextafter(r, math.Inf(1))
			continue
		}
		switch prev := math.Nextafter(r, 0); cmpSq(prev, hi, lo, tol) {
		case 0:
			return exact()
		case 1:
			r = prev
			continue
		}
		return r
	}
}

// cmpSq compares r² with the double-double hi+lo: +1 when r² exceeds it
// by more than tol, −1 when it falls short by more than tol, 0 when the
// two are too close to tell.
func cmpSq(r, hi, lo, tol float64) int {
	p, pe := twoProd(r, r)
	d, de := twoSum(p, -hi)
	switch t := d + (de + pe - lo); {
	case t > tol:
		return 1
	case t < -tol:
		return -1
	}
	return 0
}

// sqDist is the float64 squared distance of v from c: NaN or +Inf when v
// holds a non-finite value (c is finite).
func sqDist(v, c []float64) float64 {
	var s float64
	for d, x := range v {
		s += (x - c[d]) * (x - c[d])
	}
	return s
}

// sqDistDD is Σ (v_d − c_d)² in double-double arithmetic: each
// difference is split exactly into s + e (twoSum), s² exactly into
// p + pe (twoProd), and the terms accumulate as a normalised hi + lo.
func sqDistDD(v, c []float64) (hi, lo float64) {
	for d, x := range v {
		s, e := twoSum(x, -c[d])
		p, pe := twoProd(s, s)
		var se float64
		hi, se = twoSum(hi, p)
		lo += se + pe + float64(2*s*e) + float64(e*e)
	}
	return twoSum(hi, lo)
}

// twoSum returns a+b rounded and its exact rounding error.
func twoSum(a, b float64) (s, e float64) {
	s = a + b
	bb := s - a
	return s, (a - (s - bb)) + (b - bb)
}

// twoProd returns a·b rounded and its exact rounding error.
func twoProd(a, b float64) (p, e float64) {
	p = a * b
	return p, math.FMA(a, b, -p)
}

// exactSqDist returns Σ (v_d − c_d)² without rounding. The working
// precision starts small and doubles until every operation reports an
// exact result; the difference of two float64s spans at most ~2100 bits,
// so the loop ends.
func exactSqDist(v, c []float64) *big.Float {
	for prec := uint(256); ; prec *= 2 {
		sum, exact := new(big.Float).SetPrec(prec), true
		var diff, sq big.Float
		for d, x := range v {
			diff.SetPrec(prec).Sub(big.NewFloat(x), big.NewFloat(c[d]))
			sq.SetPrec(prec).Mul(&diff, &diff)
			sum.Add(sum, &sq)
			exact = exact && diff.Acc() == big.Exact && sq.Acc() == big.Exact && sum.Acc() == big.Exact
		}
		if exact {
			return sum
		}
	}
}

// ceilSqrt returns the smallest float64 r ≥ 0 with r² ≥ d2 (exactly).
func ceilSqrt(d2 *big.Float) float64 {
	f, _ := d2.Float64()
	if math.IsInf(f, 1) {
		return f
	}
	r := math.Sqrt(f)
	sq := func(x float64) *big.Float {
		b := big.NewFloat(x)
		return new(big.Float).SetPrec(120).Mul(b, b)
	}
	for sq(r).Cmp(d2) < 0 {
		r = math.Nextafter(r, math.Inf(1))
	}
	for r > 0 {
		prev := math.Nextafter(r, 0)
		if sq(prev).Cmp(d2) < 0 {
			break
		}
		r = prev
	}
	return r
}

// NumCut returns how many categories the cut holds; zero when the tree
// has none (see buildCut).
func (ix *ScoringIndex) NumCut() int { return len(ix.cut.nodes) }

// CutNode returns the taxonomy node of cut category j.
func (ix *ScoringIndex) CutNode(j int) int { return int(ix.cut.nodes[j]) }

// CutSize returns how many items cut category j holds.
func (ix *ScoringIndex) CutSize(j int) int { return int(ix.cut.size[j]) }

// CutRadius returns the ball radius of cut category j.
func (ix *ScoringIndex) CutRadius(j int) float64 { return ix.cut.radius[j] }

// CutCentre returns the ball centre of cut category j as a read-only view.
func (ix *ScoringIndex) CutCentre(j int) []float64 {
	k := ix.k
	return ix.cut.centre[j*k : (j+1)*k : (j+1)*k]
}

// CutBoundsInto writes every cut category's ball bound
// b_j + q·c_j + ‖q‖₂·r_j into dst (len NumCut()) and returns the rounding
// allowance ε: for every item of category j,
// ScoreItem(item, q) ≤ dst[j] + ε. The real-arithmetic inequality is
// Cauchy–Schwarz on the stored centre and radius (see itemCut); ε covers
// the float64 rounding of the item score and of the bound, derived the way
// ItemPruneBound is. |c_j| ≤ max|v| and |b_j| ≤ max|bias| coordinate-wise,
// so the score and the q·c_j + b_j term each sit within γ_{k+1} of
// (Σ|q|·max|v| + max|bias|); the ‖q‖₂·r_j term is a (k/2+3)-step
// computation within the same per-step charge of ‖q‖₂·max r. ε charges
// 2⁻⁵⁰ per step — 8x the unit roundoff — plus a tiny absolute term for
// subnormals. A non-finite ε means the bounds certify nothing.
func (ix *ScoringIndex) CutBoundsInto(q, dst []float64) float64 {
	var sq float64
	for _, v := range q {
		sq += v * v
	}
	qn := math.Sqrt(sq)
	c := &ix.cut
	vecmath.MatVecBias(c.centre, ix.k, c.bias, q, dst)
	for j, r := range c.radius {
		dst[j] += qn * r
	}
	const u = 1.0 / (1 << 50)
	return ix.ItemPruneBound(q) + (float64(len(q))+4)*u*qn*c.maxR
}

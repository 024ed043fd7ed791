package model

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

// quantWorld is a small composed world with random factors (and random
// biases when useBias is set) plus a random query.
func quantWorld(t *testing.T, useBias bool) (*Composed, []float64) {
	return quantWorldK(t, useBias, 7, 150)
}

// quantWorldK is quantWorld with k factors and the given item count.
func quantWorldK(t *testing.T, useBias bool, k, items int) (*Composed, []float64) {
	t.Helper()
	tree, err := taxonomy.Generate(taxonomy.GenConfig{
		CategoryLevels: []int{4, 12},
		Items:          items,
		Skew:           0.4,
	}, vecmath.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	p := Params{K: k, TaxonomyLevels: 3, Alpha: 1, InitStd: 0.3, UseBias: useBias}
	m, err := New(tree, 4, p, vecmath.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	if useBias {
		for n := 0; n < tree.NumNodes(); n++ {
			m.Bias.Row(n)[0] = vecmath.NewRNG(uint64(n)).NormFloat64()
		}
	}
	q := make([]float64, p.K)
	rng := vecmath.NewRNG(9)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	return m.Compose(), q
}

// The quantized tier's internal consistency: per-item ScoreItemI8 and the
// range sweeps must agree bitwise, and every item's codes and parameters
// must be its f64 row's own quantization (vecmath.QuantizeRow).
func TestIndexI8SweepsAgreeBitwise(t *testing.T) {
	for _, useBias := range []bool{false, true} {
		c, q := quantWorld(t, useBias)
		ix := c.Index
		u := make([]int8, len(q))
		qscale, sumQ, _ := vecmath.QuantizeQuery(u, q)

		dst := make([]float64, ix.NumItems())
		ix.ItemScoresRangeI8Into(u, qscale, sumQ, 0, ix.NumItems(), dst)

		codes := make([]int8, ix.K())
		for item := 0; item < ix.NumItems(); item++ {
			want := ix.ScoreItemI8(item, u, qscale, sumQ)
			if dst[item] != want {
				t.Fatalf("useBias=%v item %d: range sweep %v != ScoreItemI8 %v", useBias, item, dst[item], want)
			}
			scale, offset, _ := vecmath.QuantizeRow(codes, ix.ItemFactor(item))
			if !slices.Equal(ix.itemI8.Row(item), codes) || ix.itemScaleI8[item] != scale || ix.itemOffsetI8[item] != offset {
				t.Fatalf("useBias=%v item %d: item-slab codes are not its row's quantization", useBias, item)
			}
		}

		// the threshold-aware sweep over an unaligned sub-range keeps
		// exactly the items at or above tau, with the same scores
		lo, hi := 3, ix.NumItems()-2
		tau := dst[(lo+hi)/2]
		rows := make([]int32, hi-lo)
		scores := make([]float64, hi-lo)
		n := ix.ItemScoresRangeI8Above(u, qscale, sumQ, tau, lo, hi, rows, scores)
		j := 0
		for item := lo; item < hi; item++ {
			if dst[item] < tau {
				continue
			}
			if j >= n || lo+int(rows[j]) != item || scores[j] != dst[item] {
				t.Fatalf("useBias=%v: survivor %d of %d is (%d, %v), want item %d scoring %v", useBias, j, n, rows[j], scores[j], item, dst[item])
			}
			j++
		}
		if j != n {
			t.Fatalf("useBias=%v: %d survivors, want %d", useBias, n, j)
		}
	}

	// the range sweep is the fused kernel at tau = −Inf in blockItems
	// steps: it must equal ScoreItemI8 for every k either side of the
	// kernel's 8- and 16-code steps, through a NaN bias, and over ranges
	// that are not multiples of the 4-row block or of blockItems
	for _, k := range []int{1, 7, 8, 9, 20, 64, 130} {
		c, q := quantWorldK(t, true, k, 2*blockItems+37)
		ix := c.Index
		ix.itemBias[blockItems+5] = math.NaN()
		u := make([]int8, k)
		qscale, sumQ, _ := vecmath.QuantizeQuery(u, q)
		n := ix.NumItems()
		for _, r := range [][2]int{{0, n}, {1, n - 2}, {3, blockItems + 6}, {blockItems - 1, 2*blockItems + 2}, {5, 5}, {7, 10}} {
			lo, hi := r[0], r[1]
			dst := make([]float64, hi-lo)
			ix.ItemScoresRangeI8Into(u, qscale, sumQ, lo, hi, dst)
			for item := lo; item < hi; item++ {
				got, want := dst[item-lo], ix.ScoreItemI8(item, u, qscale, sumQ)
				if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("k=%d range [%d,%d) item %d: range sweep %x != ScoreItemI8 %x", k, lo, hi, item, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
		full := make([]float64, n)
		if got := testing.AllocsPerRun(10, func() {
			ix.ItemScoresRangeI8Into(u, qscale, sumQ, 0, n, full)
		}); got != 0 {
			t.Fatalf("k=%d: ItemScoresRangeI8Into allocates %v per call", k, got)
		}
	}
}

// The certified error bound must dominate the observed |int8−f64| score
// differences — the property the two-stage pipeline's
// exactness proof stands on.
func TestIndexI8ErrBoundDominates(t *testing.T) {
	for _, useBias := range []bool{false, true} {
		c, q := quantWorld(t, useBias)
		ix := c.Index
		u := make([]int8, len(q))
		qscale, sumQ, sumAbsErr := vecmath.QuantizeQuery(u, q)

		eps := ix.ItemErrBoundI8(q, sumAbsErr)
		if math.IsInf(eps, 0) || math.IsNaN(eps) {
			t.Fatalf("useBias=%v: finite world produced non-finite item bound %v", useBias, eps)
		}
		for item := 0; item < ix.NumItems(); item++ {
			d := math.Abs(ix.ScoreItemI8(item, u, qscale, sumQ) - ix.ScoreItem(item, q))
			if d > eps {
				t.Fatalf("useBias=%v item %d: |i8−f64| = %v exceeds certified bound %v", useBias, item, d, eps)
			}
		}
	}
}

// Hostile payloads with NaN/Inf factor values must die at Load — the
// int8 quantizer derives per-row codes from the value range, which a
// single poisoned entry turns non-finite.
func TestLoadRejectsNonFiniteFactors(t *testing.T) {
	for _, poison := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		tree := taxonomy.MustGenerate(taxonomy.GenConfig{CategoryLevels: []int{3}, Items: 20, Skew: 0}, vecmath.NewRNG(2))
		m, err := New(tree, 3, Params{K: 4, TaxonomyLevels: 2, Alpha: 1, InitStd: 0.1}, vecmath.NewRNG(3))
		if err != nil {
			t.Fatal(err)
		}
		m.Node.Row(1)[0] = poison
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bytes.NewReader(buf.Bytes())); err == nil {
			t.Fatalf("poison %v: Load accepted a non-finite node matrix", poison)
		} else if !strings.Contains(err.Error(), "non-finite") {
			t.Fatalf("poison %v: unhelpful error %v", poison, err)
		}
	}
}

package model

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

// The quantized tier's internal consistency: per-item ScoreItemI8, the
// blocked range sweep, and the blocked multi-query sweep must agree
// bitwise, and a leaf node must score bitwise identically to its item
// (equal rows quantize to equal codes and parameters).
func TestIndexI8SweepsAgreeBitwise(t *testing.T) {
	for _, useBias := range []bool{false, true} {
		c, q := index32World(t, useBias)
		ix := c.Index
		u := make([]int8, len(q))
		qscale, sumQ, _ := vecmath.QuantizeQuery(u, q)

		dst := make([]float64, ix.NumItems())
		ix.ItemScoresRangeI8Into(u, qscale, sumQ, 0, ix.NumItems(), dst)
		multi := [][]float64{make([]float64, ix.NumItems()), make([]float64, ix.NumItems())}
		ix.ItemScoresRangeI8MultiInto([][]int8{u, u}, []float64{qscale, qscale}, []float64{sumQ, sumQ}, 0, ix.NumItems(), multi)

		for item := 0; item < ix.NumItems(); item++ {
			want := ix.ScoreItemI8(item, u, qscale, sumQ)
			if dst[item] != want {
				t.Fatalf("useBias=%v item %d: range sweep %v != ScoreItemI8 %v", useBias, item, dst[item], want)
			}
			if multi[0][item] != want || multi[1][item] != want {
				t.Fatalf("useBias=%v item %d: multi sweep %v/%v != ScoreItemI8 %v", useBias, item, multi[0][item], multi[1][item], want)
			}
			node := c.Tree.ItemNode(item)
			if got := ix.ScoreNodeI8(node, u, qscale, sumQ); got != want {
				t.Fatalf("useBias=%v item %d: node-slab score %v != item-slab score %v", useBias, item, got, want)
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
}

// The certified error bound must dominate the observed |int8−f64| score
// differences on both slabs — the property the two-stage pipeline's
// exactness proof stands on.
func TestIndexI8ErrBoundDominates(t *testing.T) {
	for _, useBias := range []bool{false, true} {
		c, q := index32World(t, useBias)
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
		epsN := ix.NodeErrBoundI8(q, sumAbsErr)
		for node := 0; node < c.Tree.NumNodes(); node++ {
			d := math.Abs(ix.ScoreNodeI8(node, u, qscale, sumQ) - ix.ScoreNode(node, q))
			if d > epsN {
				t.Fatalf("useBias=%v node %d: |i8−f64| = %v exceeds certified bound %v", useBias, node, d, epsN)
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

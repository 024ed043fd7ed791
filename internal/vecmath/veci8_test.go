package vecmath

import (
	"math"
	"testing"
)

// Quantization round-trip property: every encoded value must reconstruct
// within the advertised per-row maxErr, and maxErr itself must stay within
// half a code step (plus float slop) — the bound ErrBoundI8 charges per
// row is the measured one, so both directions matter.
func TestQuantizeRowRoundTrip(t *testing.T) {
	rng := NewRNG(7)
	rows := [][]float64{
		{},
		{3.25},
		{-1, -1, -1, -1},          // constant row: exact through offset
		{0, 0, 0},                 // zero row
		{1e300, -1e300, 5e299},    // huge magnitudes must not overflow
		{1e-300, 2e-300, -3e-300}, // denormal-adjacent scales
	}
	for i := 0; i < 50; i++ {
		n := 1 + int(rng.Uint64()%70)
		row := make([]float64, n)
		mag := math.Pow(10, float64(int(rng.Uint64()%7))-3)
		for j := range row {
			row[j] = rng.NormFloat64() * mag
		}
		rows = append(rows, row)
	}
	for _, src := range rows {
		dst := make([]int8, len(src))
		scale, offset, maxErr := QuantizeRow(dst, src)
		var worst float64
		for j, v := range src {
			if dst[j] > 127 || dst[j] < -127 {
				t.Fatalf("row %v: code %d outside the symmetric range", src, dst[j])
			}
			e := math.Abs(v - (scale*float64(dst[j]) + offset))
			if e > worst {
				worst = e
			}
			if e > maxErr {
				t.Fatalf("row %v elem %d: reconstruction error %v exceeds advertised maxErr %v", src, j, e, maxErr)
			}
		}
		if worst != maxErr {
			t.Fatalf("row %v: advertised maxErr %v is not the measured maximum %v", src, maxErr, worst)
		}
		// half a code step, with slack for the rounded reconstruction
		// expression; degenerate rows advertise whatever error is true
		if scale > 0 {
			limit := scale/2*(1+1e-9) + 1e-12*math.Abs(offset)
			if maxErr > limit {
				t.Fatalf("row %v: maxErr %v exceeds half a code step %v", src, maxErr, limit)
			}
		}
	}
}

// The symmetric query code must reconstruct within the advertised total
// absolute error, report the exact Σq, and encode zero queries exactly.
func TestQuantizeQueryRoundTrip(t *testing.T) {
	rng := NewRNG(11)
	for i := 0; i < 50; i++ {
		n := 1 + int(rng.Uint64()%70)
		q := make([]float64, n)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		dst := make([]int8, n)
		qscale, sumQ, sumAbsErr := QuantizeQuery(dst, q)
		var wantSum, total float64
		for j, v := range q {
			wantSum += v
			total += math.Abs(v - qscale*float64(dst[j]))
		}
		if sumQ != wantSum {
			t.Fatalf("sumQ %v != running float64 sum %v", sumQ, wantSum)
		}
		if total > sumAbsErr*(1+1e-12)+1e-300 {
			t.Fatalf("measured total error %v exceeds advertised %v", total, sumAbsErr)
		}
		if limit := float64(n) * qscale / 2 * (1 + 1e-9); sumAbsErr > limit {
			t.Fatalf("sumAbsErr %v exceeds n·qscale/2 = %v", sumAbsErr, limit)
		}
	}
	dst := make([]int8, 3)
	if qscale, sumQ, sumAbsErr := QuantizeQuery(dst, []float64{0, 0, 0}); qscale != 0 || sumQ != 0 || sumAbsErr != 0 {
		t.Fatalf("zero query encoded as %v/%v/%v, want exact zeros", qscale, sumQ, sumAbsErr)
	}
}

// DotI8 is exact int32 arithmetic; spot-check values and the documented
// MaxDotLenI8 worst case staying inside int32.
func TestDotI8(t *testing.T) {
	if got := DotI8([]int8{1, -2, 3}, []int8{4, 5, -6}); got != 4-10-18 {
		t.Fatalf("DotI8 = %d, want %d", got, 4-10-18)
	}
	if worst := int64(MaxDotLenI8) * 127 * 127; worst > math.MaxInt32 {
		t.Fatalf("MaxDotLenI8 worst case %d overflows int32", worst)
	}
	a := make([]int8, MaxDotLenI8)
	for i := range a {
		a[i] = 127
	}
	if got := DotI8(a, a); int64(got) != int64(MaxDotLenI8)*127*127 {
		t.Fatalf("saturated dot = %d, want %d", got, int64(MaxDotLenI8)*127*127)
	}
}

// Every int8 entry point must reject shape mismatches loudly — the
// quantized slabs are byte-dense, so a silent mis-stride would read
// garbage scores, not crash.
func TestI8Panics(t *testing.T) {
	for name, fn := range map[string]func(){
		"DotI8":         func() { DotI8([]int8{1}, []int8{1, 2}) },
		"DotBiasI8":     func() { DotBiasI8([]int8{1}, []int8{1, 2}, 1, 0, 0, 1, 0) },
		"QuantizeRow":   func() { QuantizeRow(make([]int8, 1), make([]float64, 2)) },
		"QuantizeQuery": func() { QuantizeQuery(make([]int8, 1), make([]float64, 2)) },
		"SweepBiasI8Above slab": func() {
			SweepBiasI8Above(make([]int8, 3), 2, make([]float64, 2), make([]float64, 2), make([]float64, 2), make([]int8, 2), 1, 0, 0, make([]int32, 2), make([]float64, 2))
		},
		"SweepBiasI8Above params": func() {
			SweepBiasI8Above(make([]int8, 4), 2, make([]float64, 1), make([]float64, 2), make([]float64, 2), make([]int8, 2), 1, 0, 0, make([]int32, 2), make([]float64, 2))
		},
		"SweepBiasI8Above query": func() {
			SweepBiasI8Above(make([]int8, 4), 2, make([]float64, 2), make([]float64, 2), make([]float64, 2), make([]int8, 3), 1, 0, 0, make([]int32, 2), make([]float64, 2))
		},
		"SweepBiasI8Above output": func() {
			SweepBiasI8Above(make([]int8, 4), 2, make([]float64, 2), make([]float64, 2), make([]float64, 2), make([]int8, 2), 1, 0, 0, make([]int32, 1), make([]float64, 2))
		},
		"NewMatrixI8":         func() { NewMatrixI8(-1, 2) },
		"QuantizeFrom slab":   func() { NewMatrixI8(2, 2).QuantizeFrom(make([]float64, 3), make([]float64, 2), make([]float64, 2)) },
		"QuantizeFrom params": func() { NewMatrixI8(2, 2).QuantizeFrom(make([]float64, 4), make([]float64, 1), make([]float64, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on shape mismatch", name)
				}
			}()
			fn()
		}()
	}
}

// MatrixI8 shape accessors and the capacity-clipped Row views.
func TestMatrixI8(t *testing.T) {
	m := NewMatrixI8(3, 2)
	if m.Rows() != 3 || m.Cols() != 2 || len(m.Data()) != 6 {
		t.Fatalf("bad shape %dx%d data %d", m.Rows(), m.Cols(), len(m.Data()))
	}
	src := []float64{1, 2, 3, 4, 5, 6}
	scale := make([]float64, 3)
	offset := make([]float64, 3)
	maxErr, maxScale, maxAbsOffset := m.QuantizeFrom(src, scale, offset)
	for r := 0; r < 3; r++ {
		for c := 0; c < 2; c++ {
			got := scale[r]*float64(m.Row(r)[c]) + offset[r]
			if e := math.Abs(got - src[r*2+c]); e > maxErr {
				t.Fatalf("row %d col %d reconstructs to %v (err %v > slab maxErr %v)", r, c, got, e, maxErr)
			}
		}
		if scale[r] > maxScale {
			t.Fatalf("row %d scale %v exceeds reported maxScale %v", r, scale[r], maxScale)
		}
		if math.Abs(offset[r]) > maxAbsOffset {
			t.Fatalf("row %d |offset| %v exceeds reported maxAbsOffset %v", r, math.Abs(offset[r]), maxAbsOffset)
		}
	}
	r := m.Row(0)
	_ = append(r, 99)
	if m.Row(1)[0] != m.Row(1)[0] || len(m.Row(1)) != 2 {
		t.Fatal("Row view shape broken")
	}
	// capacity-clipped: the append above must not bleed into row 1
	want := m.Row(1)[0]
	_ = append(m.Row(0), 99)
	if m.Row(1)[0] != want {
		t.Fatal("append through a Row view corrupted the next row")
	}
}

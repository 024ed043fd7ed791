package bpr

import (
	"math"
	"testing"

	"repro/internal/vecmath"
)

func TestPlainReadWrite(t *testing.T) {
	m := vecmath.NewMatrix(3, 2)
	v := Plain{M: m}
	v.ApplyStep(1, 1, 2, []float64{1, 3})
	dst := make([]float64, 2)
	v.ReadInto(1, dst)
	if dst[0] != 2 || dst[1] != 6 {
		t.Fatalf("ReadInto = %v, want [2 6]", dst)
	}
}

func TestApplyStepShape(t *testing.T) {
	m := vecmath.NewMatrix(1, 3)
	copy(m.Row(0), []float64{1, 2, 3})
	Plain{M: m}.ApplyStep(0, 0.5, 2, []float64{1, 1, 1})
	want := []float64{2.5, 3, 3.5}
	for k, w := range want {
		if math.Abs(m.Row(0)[k]-w) > 1e-12 {
			t.Fatalf("row = %v, want %v", m.Row(0), want)
		}
	}
}

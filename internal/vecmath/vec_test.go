package vecmath

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestDotBasic(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotEmpty(t *testing.T) {
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestDotSymmetryProperty(t *testing.T) {
	f := func(raw []float64) bool {
		n := len(raw) / 2
		a, b := raw[:n], raw[n:2*n]
		x, y := Dot(a, b), Dot(b, a)
		// extreme quick-generated inputs can overflow to NaN; NaN==NaN is
		// still "symmetric" for our purposes
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDotLinearityProperty(t *testing.T) {
	rng := NewRNG(7)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(16)
		a := make([]float64, n)
		b := make([]float64, n)
		c := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
			c[i] = rng.NormFloat64()
		}
		alpha := rng.NormFloat64()
		// <a, alpha*b + c> == alpha*<a,b> + <a,c>
		bc := make([]float64, n)
		copy(bc, c)
		AddScaled(bc, alpha, b)
		lhs := Dot(a, bc)
		rhs := alpha*Dot(a, b) + Dot(a, c)
		if !almostEqual(lhs, rhs, 1e-9*(1+math.Abs(lhs))) {
			t.Fatalf("linearity violated: %v vs %v", lhs, rhs)
		}
	}
}

func TestAddScaled(t *testing.T) {
	dst := []float64{1, 1, 1}
	AddScaled(dst, 2, []float64{1, 2, 3})
	want := []float64{3, 5, 7}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("AddScaled = %v, want %v", dst, want)
		}
	}
}

func TestAddSubInverseProperty(t *testing.T) {
	rng := NewRNG(11)
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(32)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		orig := make([]float64, n)
		copy(orig, a)
		Add(a, b)
		Sub(a, b)
		for i := range a {
			if !almostEqual(a[i], orig[i], 1e-12) {
				t.Fatalf("Add then Sub not identity at %d: %v vs %v", i, a[i], orig[i])
			}
		}
	}
}

func TestScaleZero(t *testing.T) {
	v := []float64{1, -2, 3}
	Scale(v, 0)
	for _, x := range v {
		if x != 0 {
			t.Fatalf("Scale(v,0) left %v", v)
		}
	}
	v2 := []float64{1, -2, 3}
	Zero(v2)
	for _, x := range v2 {
		if x != 0 {
			t.Fatalf("Zero left %v", v2)
		}
	}
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := SqNorm2([]float64{3, 4}); !almostEqual(got, 25, 1e-12) {
		t.Fatalf("SqNorm2 = %v, want 25", got)
	}
}

func TestDist2(t *testing.T) {
	if got := Dist2([]float64{0, 0}, []float64{3, 4}); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("Dist2 = %v, want 5", got)
	}
}

func TestSigmoidProperties(t *testing.T) {
	if got := Sigmoid(0); !almostEqual(got, 0.5, 1e-12) {
		t.Fatalf("Sigmoid(0) = %v, want 0.5", got)
	}
	// symmetry: sigma(-x) = 1 - sigma(x)
	for _, x := range []float64{0.1, 1, 5, 20, 100, 700} {
		if s := Sigmoid(x) + Sigmoid(-x); !almostEqual(s, 1, 1e-12) {
			t.Fatalf("sigmoid symmetry broken at %v: sum = %v", x, s)
		}
	}
	// monotone increasing
	prev := -1.0
	for x := -30.0; x <= 30.0; x += 0.5 {
		s := Sigmoid(x)
		if s < prev {
			t.Fatalf("sigmoid not monotone at %v", x)
		}
		prev = s
	}
	// no overflow at extremes
	if s := Sigmoid(1e9); s != 1 {
		t.Fatalf("Sigmoid(1e9) = %v, want 1", s)
	}
	if s := Sigmoid(-1e9); s != 0 {
		t.Fatalf("Sigmoid(-1e9) = %v, want 0", s)
	}
}

func TestLogSigmoidMatchesLogOfSigmoid(t *testing.T) {
	for _, x := range []float64{-5, -1, -0.1, 0, 0.1, 1, 5} {
		want := math.Log(Sigmoid(x))
		if got := LogSigmoid(x); !almostEqual(got, want, 1e-10) {
			t.Fatalf("LogSigmoid(%v) = %v, want %v", x, got, want)
		}
	}
	// stable for very negative x where Sigmoid underflows
	if got := LogSigmoid(-800); !almostEqual(got, -800, 1e-9) {
		t.Fatalf("LogSigmoid(-800) = %v, want ~-800", got)
	}
}

func TestMatrixRowsAreViews(t *testing.T) {
	m := NewMatrix(3, 4)
	m.Row(1)[2] = 42
	if m.Data()[1*4+2] != 42 {
		t.Fatal("Row must be a view over the backing array")
	}
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("dims = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
}

func TestMatrixClone(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Row(0)[0] = 1
	c := m.Clone()
	c.Row(0)[0] = 99
	if m.Row(0)[0] != 1 {
		t.Fatal("Clone must be a deep copy")
	}
	if d := m.MaxAbsDiff(c); !almostEqual(d, 98, 1e-12) {
		t.Fatalf("MaxAbsDiff = %v, want 98", d)
	}
}

func TestMatrixFillGaussianStats(t *testing.T) {
	m := NewMatrix(200, 50)
	m.FillGaussian(NewRNG(3), 0.1)
	var sum, sq float64
	for _, v := range m.Data() {
		sum += v
		sq += v * v
	}
	n := float64(len(m.Data()))
	mean := sum / n
	std := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean) > 0.005 {
		t.Fatalf("gaussian fill mean = %v, want ~0", mean)
	}
	if math.Abs(std-0.1) > 0.01 {
		t.Fatalf("gaussian fill std = %v, want ~0.1", std)
	}
}

func TestMaxAbs(t *testing.T) {
	if got := MaxAbs(nil); got != 0 {
		t.Fatalf("MaxAbs(nil) = %v", got)
	}
	if got := MaxAbs([]float64{-3, 2, 0.5}); got != 3 {
		t.Fatalf("MaxAbs = %v, want 3", got)
	}
}

// Downconvert32 is the hardware round-to-nearest-even conversion the
// model writer's float32 sections are made of, and rejects mismatched
// lengths.
func TestDownconvert32(t *testing.T) {
	src := []float64{1, -0.1, 1 + 1.0/(1<<24), 1e300, 5e-324}
	dst := make([]float32, len(src))
	Downconvert32(dst, src)
	for i, v := range src {
		if dst[i] != float32(v) {
			t.Fatalf("Downconvert32[%d] = %v, want %v", i, dst[i], float32(v))
		}
	}
	if dst[2] != 1 || !math.IsInf(float64(dst[3]), 1) || dst[4] != 0 {
		t.Fatalf("rounding edge cases: %v", dst)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Downconvert32: expected panic on length mismatch")
		}
	}()
	Downconvert32(make([]float32, 1), make([]float64, 2))
}

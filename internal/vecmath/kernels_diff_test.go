package vecmath

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Differential suite for the kernel dispatch: whatever arm init selected
// (AVX2, NEON or generic), every public kernel must be bitwise identical
// to the pure-Go reference on every shape — all lengths through the
// vector width and well past it, odd tails, unaligned sub-slices, and
// hostile values (±127 saturated codes, subnormals, infinities, zero
// crossings). Run it with SIMD on, with TFREC_NOSIMD=1, and under
// -tags purego; all three must pass, the first proving the asm, the
// other two proving the escape hatches.

// diffLengths covers every length through several vector widths (0..67
// exercises all mod-8 and mod-16 tails), then jumps through block
// boundaries up to 4096.
func diffLengths() []int {
	var ns []int
	for n := 0; n <= 67; n++ {
		ns = append(ns, n)
	}
	for _, n := range []int{96, 100, 127, 128, 129, 255, 256, 257, 1000, 1024, 2048, 4095, 4096} {
		ns = append(ns, n)
	}
	return ns
}

// fillI8 writes adversarial int8 patterns: dense random codes with
// frequent ±127 saturation so lane products hit the extremes VPMADDWD /
// SMULL must not saturate on.
func fillI8(rng *rand.Rand, v []int8) {
	for i := range v {
		switch rng.Intn(6) {
		case 0:
			v[i] = 127
		case 1:
			v[i] = -127
		default:
			v[i] = int8(rng.Intn(255) - 127)
		}
	}
}

// fillF32 writes adversarial float32 values: mixed magnitudes, exact
// negations, subnormals, zeros and the occasional huge value, so lane
// sums cancel, round and overflow in ways that would expose any
// accumulation-order drift between the dispatch arms.
func fillF32(rng *rand.Rand, v []float32) {
	for i := range v {
		switch rng.Intn(10) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = math.Float32frombits(rng.Uint32() & 0x007fffff) // subnormal
		case 2:
			v[i] = float32(math.Inf(1)) * float32(rng.Intn(2)*2-1) / 4 // ±Inf/4 = ±Inf
		case 3:
			v[i] = 3.4e38 * float32(rng.Intn(2)*2-1)
		default:
			v[i] = (rng.Float32()*2 - 1) * float32(math.Pow(2, float64(rng.Intn(40)-20)))
		}
	}
}

func TestDotI8MatchesRef(t *testing.T) {
	t.Logf("dispatch: %s (simd=%v)", KernelsID(), SIMDEnabled())
	rng := rand.New(rand.NewSource(11))
	for _, n := range diffLengths() {
		// +3 scratch so unaligned sub-slices stay in bounds
		a := make([]int8, n+3)
		b := make([]int8, n+3)
		fillI8(rng, a)
		fillI8(rng, b)
		for _, off := range []int{0, 1, 2, 3} {
			x, y := a[off:off+n], b[off:off+n]
			if got, want := DotI8(x, y), DotI8Ref(x, y); got != want {
				t.Fatalf("n=%d off=%d: DotI8=%d ref=%d", n, off, got, want)
			}
		}
	}
}

func TestDotBias32MatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range diffLengths() {
		a := make([]float32, n+3)
		b := make([]float32, n+3)
		fillF32(rng, a)
		fillF32(rng, b)
		for _, off := range []int{0, 1, 2, 3} {
			x, y := a[off:off+n], b[off:off+n]
			for _, bias := range []float32{0, 1.5, -0.25} {
				got := DotBias32(x, y, bias)
				want := DotBias32Ref(x, y, bias)
				if math.Float32bits(got) != math.Float32bits(want) {
					// NaN payloads may legitimately differ between scalar
					// and vector units; NaN-vs-NaN is still agreement
					if !(math.IsNaN(float64(got)) && math.IsNaN(float64(want))) {
						t.Fatalf("n=%d off=%d bias=%g: DotBias32=%x ref=%x", n, off, bias,
							math.Float32bits(got), math.Float32bits(want))
					}
				}
			}
		}
	}
}

// TestMatVecBias32MatchesRowwise pins the blocked f32 sweep (and its
// shared-query SIMD blocks) to the row-at-a-time reference, bitwise,
// across row counts that exercise every 4-block tail and k values that
// exercise every 8-lane tail.
func TestMatVecBias32MatchesRowwise(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, rows := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 33} {
		for _, k := range []int{0, 1, 3, 7, 8, 9, 15, 16, 17, 32, 63, 64, 100} {
			factors := make([]float32, rows*k)
			bias := make([]float32, rows)
			q := make([]float32, k)
			fillF32(rng, factors)
			fillF32(rng, bias)
			fillF32(rng, q)
			dst := make([]float32, rows)
			MatVecBias32(factors, k, bias, q, dst)
			for r := 0; r < rows; r++ {
				want := DotBias32Ref(q, factors[r*k:(r+1)*k], bias[r])
				if math.Float32bits(dst[r]) != math.Float32bits(want) {
					if math.IsNaN(float64(dst[r])) && math.IsNaN(float64(want)) {
						continue
					}
					t.Fatalf("rows=%d k=%d r=%d: blocked=%x rowwise=%x", rows, k, r,
						math.Float32bits(dst[r]), math.Float32bits(want))
				}
			}
		}
	}
}

// TestMatVecBiasI8MatchesRowwise pins the blocked int8 sweep to
// DotBiasI8 built on the pure-Go reference dot, bitwise in float64.
func TestMatVecBiasI8MatchesRowwise(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, rows := range []int{0, 1, 3, 4, 5, 8, 9, 33} {
		for _, k := range []int{0, 1, 3, 7, 8, 9, 16, 17, 63, 64, 100, 256} {
			factors := make([]int8, rows*k)
			fillI8(rng, factors)
			scale := make([]float64, rows)
			offset := make([]float64, rows)
			bias := make([]float64, rows)
			for r := range scale {
				scale[r] = rng.Float64()
				offset[r] = rng.NormFloat64()
				bias[r] = rng.NormFloat64()
			}
			u := make([]int8, k)
			fillI8(rng, u)
			qscale, sumQ := rng.Float64(), rng.NormFloat64()
			dst := make([]float64, rows)
			MatVecBiasI8(factors, k, scale, offset, bias, u, qscale, sumQ, dst)
			for r := 0; r < rows; r++ {
				d := dotI8Ref(u, factors[r*k:(r+1)*k])
				want := combineI8(d, scale[r], offset[r], bias[r], qscale, sumQ)
				if math.Float64bits(dst[r]) != math.Float64bits(want) {
					t.Fatalf("rows=%d k=%d r=%d: blocked=%x rowwise=%x", rows, k, r,
						math.Float64bits(dst[r]), math.Float64bits(want))
				}
			}
		}
	}
}

// sameScore is bitwise float64 equality, with NaN-vs-NaN as agreement
// (payloads may legitimately differ between scalar and vector units).
func sameScore(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkSweepAbove runs SweepBiasI8Above and its reference on one input
// and requires the identical survivor list: rows in order, scores
// bitwise.
func checkSweepAbove(t *testing.T, label string, factors []int8, k int, scale, offset, bias []float64, u []int8, qscale, sumQ, tau float64) {
	t.Helper()
	rows := len(bias)
	gotRows, gotScores := make([]int32, rows), make([]float64, rows)
	wantRows, wantScores := make([]int32, rows), make([]float64, rows)
	got := SweepBiasI8Above(factors, k, scale, offset, bias, u, qscale, sumQ, tau, gotRows, gotScores)
	want := sweepBiasI8AboveRef(factors, k, scale, offset, bias, u, qscale, sumQ, tau, wantRows, wantScores)
	if got != want {
		t.Fatalf("%s: %d survivors, reference %d (tau=%v)", label, got, want, tau)
	}
	for i := 0; i < got; i++ {
		if gotRows[i] != wantRows[i] || !sameScore(gotScores[i], wantScores[i]) {
			t.Fatalf("%s: survivor %d = (%d, %x), reference (%d, %x)", label, i,
				gotRows[i], math.Float64bits(gotScores[i]), wantRows[i], math.Float64bits(wantScores[i]))
		}
	}
}

// TestSweepBiasI8AboveMatchesRef pins the fused threshold-aware sweep to
// its row-at-a-time reference across every k in 1..130 (all 8- and
// 16-code tails, including K=20 and K=32), row counts straddling the
// 4-row block, unaligned sub-slices of every input, saturated ±127 and
// −128 codes, and thresholds at −Inf, +Inf, NaN, an exact tie with a
// live score and the median score.
func TestSweepBiasI8AboveMatchesRef(t *testing.T) {
	t.Logf("dispatch: %s (fused=%v)", KernelsID(), fusedI8Active)
	rng := rand.New(rand.NewSource(17))
	for k := 1; k <= 130; k++ {
		for _, rows := range []int{0, 1, 3, 4, 5, 8, 13} {
			off := rng.Intn(4)
			fac := make([]int8, rows*k+off)
			fillI8(rng, fac)
			if k%5 == 0 {
				// fully saturated rows, including the −128 code the
				// quantizer never emits but the kernel must still get right
				for i := range fac {
					fac[i] = []int8{127, -127, -128}[i%3]
				}
			}
			params := make([]float64, 3*rows+off)
			for i := range params {
				params[i] = rng.NormFloat64()
			}
			scale, offset, bias := params[off:off+rows], params[off+rows:][:rows], params[off+2*rows:][:rows]
			for r := range scale {
				scale[r] = math.Abs(scale[r])
			}
			ub := make([]int8, k+off)
			fillI8(rng, ub)
			u := ub[off:]
			qscale, sumQ := rng.Float64(), rng.NormFloat64()
			factors := fac[off:]
			taus := []float64{math.Inf(-1), math.Inf(1), math.NaN(), 0}
			if rows > 0 {
				all := make([]float64, rows)
				MatVecBiasI8(factors, k, scale, offset, bias, u, qscale, sumQ, all)
				taus = append(taus, all[rows/2], all[rng.Intn(rows)])
			}
			for _, tau := range taus {
				checkSweepAbove(t, fmt.Sprintf("k=%d rows=%d off=%d", k, rows, off), factors, k, scale, offset, bias, u, qscale, sumQ, tau)
			}
		}
	}
}

// TestSweepBiasI8AboveNaNAndTies feeds scores that are NaN (a NaN bias)
// and exact ties with tau: both must survive the compare, in row order,
// exactly as the collector's rejection test would let them through.
func TestSweepBiasI8AboveNaNAndTies(t *testing.T) {
	const rows, k = 9, 20
	factors := make([]int8, rows*k)
	u := make([]int8, k)
	scale := make([]float64, rows)
	offset := make([]float64, rows)
	bias := make([]float64, rows)
	for r := range bias {
		bias[r] = float64(r % 3) // scores 0,1,2,0,1,2,...: exact ties with tau=1
	}
	bias[4] = math.NaN()
	out := make([]int32, rows)
	scores := make([]float64, rows)
	n := SweepBiasI8Above(factors, k, scale, offset, bias, u, 1, 0, 1, out, scores)
	want := []int32{1, 2, 4, 5, 7, 8}
	if n != len(want) {
		t.Fatalf("%d survivors %v, want rows %v", n, out[:n], want)
	}
	for i, r := range want {
		if out[i] != r {
			t.Fatalf("survivors %v, want rows %v", out[:n], want)
		}
	}
	if !math.IsNaN(scores[2]) {
		t.Fatalf("row 4 survived with score %v, want NaN", scores[2])
	}
	checkSweepAbove(t, "nan+ties", factors, k, scale, offset, bias, u, 1, 0, 1)
}

// TestDotI8WraparoundMatchesRef drives the accumulator past int32 range:
// past MaxDotLenI8 both arms must wrap mod 2³² identically (the kernels
// are only certified below the bound, but dispatch must never be the
// thing that changes a result).
func TestDotI8WraparoundMatchesRef(t *testing.T) {
	n := MaxDotLenI8 + 9
	a := make([]int8, n)
	b := make([]int8, n)
	for i := range a {
		a[i] = 127
		b[i] = 127
	}
	if got, want := DotI8(a, b), DotI8Ref(a, b); got != want {
		t.Fatalf("wraparound: DotI8=%d ref=%d", got, want)
	}
}

// TestKernelWrappersZeroAlloc pins the dispatch wrappers to zero heap
// allocations per call — the go:noescape declarations must keep the
// stack-allocated accumulator arrays off the heap.
func TestKernelWrappersZeroAlloc(t *testing.T) {
	const rows, k = 12, 48
	fi8 := make([]int8, rows*k)
	f32 := make([]float32, rows*k)
	scale := make([]float64, rows)
	offset := make([]float64, rows)
	bias := make([]float64, rows)
	bias32 := make([]float32, rows)
	u := make([]int8, k)
	q := make([]float32, k)
	dst := make([]float64, rows)
	dst32 := make([]float32, rows)
	for name, fn := range map[string]func(){
		"DotI8":        func() { DotI8(u, fi8[:k]) },
		"DotBias32":    func() { DotBias32(q, f32[:k], 1) },
		"MatVecBiasI8": func() { MatVecBiasI8(fi8, k, scale, offset, bias, u, 1, 0, dst) },
		"MatVecBias32": func() { MatVecBias32(f32, k, bias32, q, dst32) },
		"SweepBiasI8Above": func() {
			var out [rows]int32
			var scores [rows]float64
			SweepBiasI8Above(fi8, k, scale, offset, bias, u, 1, 0, 0, out[:], scores[:])
		},
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s allocates %v per call", name, allocs)
		}
	}
}

// FuzzDotI8Diff cross-checks the dispatched int8 dot against the
// reference on fuzz-chosen bytes and split points.
func FuzzDotI8Diff(f *testing.F) {
	f.Add([]byte{1, 255, 127, 128, 0, 3, 9, 200}, []byte{127, 127, 1, 2, 250, 6, 7, 8})
	f.Add([]byte{}, []byte{5})
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		n := len(ab)
		if len(bb) < n {
			n = len(bb)
		}
		a := make([]int8, n)
		b := make([]int8, n)
		for i := 0; i < n; i++ {
			a[i] = int8(ab[i])
			b[i] = int8(bb[i])
		}
		if got, want := DotI8(a, b), DotI8Ref(a, b); got != want {
			t.Fatalf("n=%d: DotI8=%d ref=%d", n, got, want)
		}
	})
}

// FuzzSweepBiasI8AboveDiff cross-checks the fused threshold-aware sweep
// against its reference on fuzz-chosen codes, shapes, combine parameters
// and thresholds (the float arguments mutate into ±Inf, NaN and ties).
func FuzzSweepBiasI8AboveDiff(f *testing.F) {
	f.Add([]byte{1, 255, 127, 128, 0, 3, 9, 200, 7, 7, 7, 7, 127, 129, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, uint8(20), uint8(1), 0.5, -1.25, 0.75, 0.0)
	f.Add([]byte{127, 127, 127, 127, 127, 127, 127, 127, 129, 129, 129, 129, 129, 129, 129, 129}, uint8(8), uint8(0), 1.0, 0.0, 0.0, math.Inf(-1))
	f.Add([]byte{5}, uint8(1), uint8(3), math.NaN(), 1.0, 2.0, math.Inf(1))
	f.Fuzz(func(t *testing.T, codes []byte, kb, offb uint8, qscale, sumQ, pscale, tau float64) {
		k := 1 + int(kb)%130
		off := int(offb) % 4
		if len(codes) < k+off {
			return
		}
		u := make([]int8, k)
		for j := range u {
			u[j] = int8(codes[off+j])
		}
		body := codes[off+k:]
		rows := len(body) / k
		if rows > 64 {
			rows = 64
		}
		buf := make([]int8, rows*k+off)
		for i := range buf[off:] {
			buf[off+i] = int8(body[i])
		}
		factors := buf[off:]
		scale := make([]float64, rows)
		offset := make([]float64, rows)
		bias := make([]float64, rows)
		for r := range scale {
			scale[r] = pscale * float64(r+1)
			offset[r] = sumQ - float64(r)
			bias[r] = qscale * float64(int8(body[r*k]))
		}
		checkSweepAbove(t, fmt.Sprintf("k=%d rows=%d", k, rows), factors, k, scale, offset, bias, u, qscale, sumQ, tau)
	})
}

// FuzzDotBias32Diff cross-checks the dispatched f32 dot against the
// reference on fuzz-chosen bit patterns, including NaN/Inf/subnormal
// encodings the corpus mutates into.
func FuzzDotBias32Diff(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 128, 191, 1, 0, 0, 0}, []byte{255, 255, 127, 127, 0, 0, 128, 255}, float32(0.5))
	f.Fuzz(func(t *testing.T, ab, bb []byte, bias float32) {
		n := len(ab) / 4
		if m := len(bb) / 4; m < n {
			n = m
		}
		a := make([]float32, n)
		b := make([]float32, n)
		for i := 0; i < n; i++ {
			a[i] = math.Float32frombits(uint32(ab[4*i]) | uint32(ab[4*i+1])<<8 | uint32(ab[4*i+2])<<16 | uint32(ab[4*i+3])<<24)
			b[i] = math.Float32frombits(uint32(bb[4*i]) | uint32(bb[4*i+1])<<8 | uint32(bb[4*i+2])<<16 | uint32(bb[4*i+3])<<24)
		}
		got := DotBias32(a, b, bias)
		want := DotBias32Ref(a, b, bias)
		if math.Float32bits(got) != math.Float32bits(want) &&
			!(math.IsNaN(float64(got)) && math.IsNaN(float64(want))) {
			t.Fatalf("n=%d: DotBias32=%x ref=%x", n, math.Float32bits(got), math.Float32bits(want))
		}
	})
}

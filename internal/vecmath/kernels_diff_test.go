package vecmath

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Differential suite for the kernel dispatch: whatever arm init selected
// (AVX2 or generic), every public kernel must be bitwise identical
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

// sameScore is bitwise float64 equality, with NaN-vs-NaN as agreement
// (payloads may legitimately differ between scalar and vector units).
func sameScore(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkSweepAbove runs SweepBiasI8Above and its reference on one input
// and requires the identical survivor list: rows in order, scores
// bitwise. Both of the kernel's bodies are checked directly as well — the
// per-row loop on every host, the fused one wherever it can run — so an
// AVX2 host covers the portable path for every k, not just k < 8.
func checkSweepAbove(t *testing.T, label string, factors []int8, k int, scale, offset, bias []float64, u []int8, qscale, sumQ, tau float64) {
	t.Helper()
	rows := len(bias)
	wantRows, wantScores := make([]int32, rows), make([]float64, rows)
	want := sweepBiasI8AboveRef(factors, k, scale, offset, bias, u, qscale, sumQ, tau, wantRows, wantScores)
	bodies := map[string]func(rows []int32, scores []float64) int{
		"dispatched": func(rs []int32, ss []float64) int {
			return SweepBiasI8Above(factors, k, scale, offset, bias, u, qscale, sumQ, tau, rs, ss)
		},
		"rows": func(rs []int32, ss []float64) int {
			return sweepBiasI8AboveRows(factors, k, scale, offset, bias, u, qscale, sumQ, tau, 0, 0, rs, ss)
		},
	}
	if simdActive && k >= 8 {
		bodies["fused"] = func(rs []int32, ss []float64) int {
			return sweepBiasI8AboveFused(factors, k, scale, offset, bias, u, qscale, sumQ, tau, rs, ss)
		}
	}
	for name, body := range bodies {
		gotRows, gotScores := make([]int32, rows), make([]float64, rows)
		got := body(gotRows, gotScores)
		if got != want {
			t.Fatalf("%s %s: %d survivors, reference %d (tau=%v)", label, name, got, want, tau)
		}
		for i := 0; i < got; i++ {
			if gotRows[i] != wantRows[i] || !sameScore(gotScores[i], wantScores[i]) {
				t.Fatalf("%s %s: survivor %d = (%d, %x), reference (%d, %x)", label, name, i,
					gotRows[i], math.Float64bits(gotScores[i]), wantRows[i], math.Float64bits(wantScores[i]))
			}
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
	t.Logf("dispatch: %s (simd=%v)", KernelsID(), SIMDEnabled())
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
				sweepBiasI8AboveRef(factors, k, scale, offset, bias, u, qscale, sumQ, math.Inf(-1), make([]int32, rows), all)
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
// stack-allocated survivor arrays off the heap.
func TestKernelWrappersZeroAlloc(t *testing.T) {
	const rows, k = 12, 48
	fi8 := make([]int8, rows*k)
	scale := make([]float64, rows)
	offset := make([]float64, rows)
	bias := make([]float64, rows)
	u := make([]int8, k)
	for name, fn := range map[string]func(){
		"DotI8": func() { DotI8(u, fi8[:k]) },
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

package tfrec

// BenchmarkKernel* are micro-floors on the hand-written SIMD scoring
// kernels themselves, isolated from heaps, filters and rescoring: the
// dispatched vecmath entry points against their exported pure-Go
// references on the same vectors. The gated pair (see
// BENCH_baseline.json, conditioned on the "amd64/avx2" kernel set):
//
//	BenchmarkKernelDotI8Generic vs BenchmarkKernelDotI8SIMD (≥3x)
//
// The SIMD variants self-skip when the assembly kernels are not active
// (non-AVX2 amd64, purego builds, TFREC_NOSIMD=1), so a generic-dispatch
// machine produces no SIMD samples — which is exactly why the baseline
// records its kernel set and tfrec-benchgate skips kernel-conditioned
// comparisons when the sets differ. Vectors are 1024 elements — long
// enough that the loop body, not call overhead, dominates, and far past
// the 8/16/32-element unroll widths so every code path (wide loop,
// half-width block, scalar tail) is exercised by the odd length below.

import (
	"testing"

	"repro/internal/vecmath"
)

// kernelBenchLen is deliberately NOT a multiple of 32: 1000 = 31 full
// 32-byte int8 blocks + 8 + scalar tail, so the benches time the real
// mixed head+tail shape the sweeps see, not just the aligned fast path.
const kernelBenchLen = 1000

var sinkI32 int32

func kernelVecsI8() (a, b []int8) {
	a = make([]int8, kernelBenchLen)
	b = make([]int8, kernelBenchLen)
	rng := vecmath.NewRNG(42)
	for i := range a {
		a[i] = int8(rng.Intn(255) - 127)
		b[i] = int8(rng.Intn(255) - 127)
	}
	return a, b
}

func BenchmarkKernelDotI8SIMD(b *testing.B) {
	if !vecmath.SIMDEnabled() {
		b.Skip("SIMD kernels not active on this host/build")
	}
	x, y := kernelVecsI8()
	b.SetBytes(2 * kernelBenchLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkI32 = vecmath.DotI8(x, y)
	}
}

func BenchmarkKernelDotI8Generic(b *testing.B) {
	x, y := kernelVecsI8()
	b.SetBytes(2 * kernelBenchLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkI32 = vecmath.DotI8Ref(x, y)
	}
}

//go:build (amd64 || arm64) && !purego

package vecmath

import "os"

// Assembly entry points shared by the amd64 (AVX2) and arm64 (NEON)
// dispatch arms. Every function takes raw base pointers plus an element
// count so the wrappers stay allocation-free, and every declaration is
// go:noescape: the asm bodies only load through the pointers (and store
// through out), never retain them, so escape analysis keeps caller
// buffers — including the stack-allocated [4] accumulator arrays of the
// blocked wrappers — off the heap, preserving the zero-allocs-per-query
// invariant.

// dotI8SIMD returns Σ a[i]·b[i] over the first n elements, accumulated
// in int32 lanes and reduced with integer adds. n must be a positive
// multiple of 8. Integer accumulation is mod-2³² associative, so the
// result is bit-identical to the reference kernel for every input,
// including lengths past MaxDotLenI8 where both wrap identically.
//
//go:noescape
func dotI8SIMD(a, b *int8, n int) int32

// dot4I8SIMD computes the int8 dots of the query u against four
// consecutive slab rows at f, f+stride, f+2·stride and f+3·stride,
// writing the four int32 sums to out. n must be a positive multiple of 8
// with n ≤ stride.
//
//go:noescape
func dot4I8SIMD(f *int8, stride int, u *int8, n int, out *[4]int32)

// noSIMDEnv reports whether the TFREC_NOSIMD escape hatch is set: any
// non-empty value except "0" forces the generic kernels, for debugging
// and for the CI leg that keeps the fallback path covered.
func noSIMDEnv() bool {
	v := os.Getenv("TFREC_NOSIMD")
	return v != "" && v != "0"
}

//go:build !purego

package vecmath

import "os"

// amd64 dispatch arm, the only assembly arm: the AVX2 kernels in
// veci8_amd64.s, eligible when CPUID reports AVX2 and the OS has enabled
// YMM state. Every entry point takes raw base pointers plus element
// counts so the wrappers stay allocation-free, and every declaration is
// go:noescape: the asm bodies only load through the pointers (and store
// through the output pointers), never retain them, so escape analysis
// keeps caller buffers — including stack-allocated survivor arrays — off
// the heap, preserving the zero-allocs-per-query invariant.

var (
	hasAVX2    bool
	simdOffEnv bool
	simdActive bool
)

func init() {
	hasAVX2 = detectAVX2()
	simdOffEnv = noSIMDEnv()
	simdActive = hasAVX2 && !simdOffEnv
}

// noSIMDEnv reports whether the TFREC_NOSIMD escape hatch is set: any
// non-empty value except "0" forces the generic kernels, for debugging
// and for the CI leg that keeps the fallback path covered.
func noSIMDEnv() bool {
	v := os.Getenv("TFREC_NOSIMD")
	return v != "" && v != "0"
}

// dotI8SIMD returns Σ a[i]·b[i] over the first n elements, accumulated
// in int32 lanes and reduced with integer adds. n must be a positive
// multiple of 8. Integer accumulation is mod-2³² associative, so the
// result is bit-identical to the reference kernel for every input,
// including lengths past MaxDotLenI8 where both wrap identically.
//
//go:noescape
func dotI8SIMD(a, b *int8, n int) int32

// sweep4I8AboveSIMD is the AVX2 body of SweepBiasI8Above over the first
// nrows rows (a positive multiple of 4) of the slab at f with row stride
// k = stride ≥ 8. The head dot runs over n16 = k&^15 codes, then one
// 8-code chunk when n8 = k&^7 exceeds n16, then — when tail ≥ 0 — the
// overlapping 8-byte load at row offset tail = k−8 dotted against ut.
// Surviving (row, score) lanes are written to rows/scores in row order;
// the count is returned.
//
//go:noescape
func sweep4I8AboveSIMD(f *int8, stride int, u *int8, n16, n8, tail int, ut *int8, scale, offset, bias *float64, qscale, sumQ, tau float64, nrows int, rows *int32, scores *float64) int

func simdFeatures() []string {
	if hasAVX2 {
		return []string{"avx2"}
	}
	return nil
}

func simdDisabled() string {
	if hasAVX2 && simdOffEnv {
		return "TFREC_NOSIMD"
	}
	return ""
}

// cpuid executes CPUID with the given leaf/subleaf (cpu_amd64.s).
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (cpu_amd64.s). Only call when CPUID.1:ECX.OSXSAVE
// is set, or the instruction faults.
func xgetbv() (eax, edx uint32)

// detectAVX2 performs the full architectural check for usable AVX2: the
// feature bit alone is not enough — the OS must have opted in to saving
// YMM state (OSXSAVE set and XCR0 bits 1..2 = 11), else executing a VEX
// 256-bit instruction faults.
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		cpuidOSXSAVE = 1 << 27
		cpuidAVX     = 1 << 28
	)
	if ecx1&cpuidOSXSAVE == 0 || ecx1&cpuidAVX == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0x6 != 0x6 { // XMM and YMM state enabled
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const cpuidAVX2 = 1 << 5
	return ebx7&cpuidAVX2 != 0
}

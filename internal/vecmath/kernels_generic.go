//go:build purego || (!amd64 && !arm64)

package vecmath

import "runtime"

// Generic dispatch arm: a `purego` build, or an architecture without asm
// kernels. simdActive is a constant false so the compiler folds every
// dispatch branch away and the wrappers compile to exactly the reference
// kernels.

const (
	simdActive    = false
	fusedI8Active = false
	simdImpl      = implGeneric
)

func simdFeatures() []string { return nil }

func simdDisabled() string {
	// this file only builds on amd64/arm64 under the purego tag; on any
	// other architecture there is no SIMD arm to disable
	if runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64" {
		return "purego build"
	}
	return ""
}

// Unreachable stubs: the wrappers reference the SIMD entry points behind
// `if simdActive`, which is constant-false here, so these bodies are
// eliminated — they exist only to satisfy the type checker.

func dotI8SIMD(a, b *int8, n int) int32 { panic("vecmath: SIMD kernel on generic build") }

func dot4I8SIMD(f *int8, stride int, u *int8, n int, out *[4]int32) {
	panic("vecmath: SIMD kernel on generic build")
}

func sweep4I8AboveSIMD(f *int8, stride int, u *int8, n16, n8, tail int, ut *int8, scale, offset, bias *float64, qscale, sumQ, tau float64, nrows int, rows *int32, scores *float64) int {
	panic("vecmath: SIMD kernel on generic build")
}

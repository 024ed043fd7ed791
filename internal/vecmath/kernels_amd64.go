//go:build !purego

package vecmath

// amd64 dispatch arm: the AVX2 kernels in veci8_amd64.s,
// eligible when CPUID reports AVX2 and the OS has enabled YMM state.

const simdImpl = implAVX2

var (
	hasAVX2    bool
	simdOffEnv bool
	simdActive bool
	// fusedI8Active selects the AVX2 body of SweepBiasI8Above; amd64 is
	// the only arm with one.
	fusedI8Active bool
)

func init() {
	hasAVX2 = detectAVX2()
	simdOffEnv = noSIMDEnv()
	simdActive = hasAVX2 && !simdOffEnv
	fusedI8Active = simdActive
}

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

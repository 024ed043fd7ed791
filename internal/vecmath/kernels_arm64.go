//go:build !purego

package vecmath

// arm64 dispatch arm: the NEON kernels in veci8_arm64.s.
// AdvSIMD is architecturally baseline on AArch64 (linux/arm64 binaries
// may assume it, as the Go runtime itself does), so no feature probe is
// needed — only the TFREC_NOSIMD escape hatch can turn the asm off.

const simdImpl = implNEON

var (
	simdOffEnv bool
	simdActive bool
)

func init() {
	simdOffEnv = noSIMDEnv()
	simdActive = !simdOffEnv
}

// fusedI8Active is false: the fused int8 sweep has no NEON body yet, so
// SweepBiasI8Above runs its portable path (the NEON MatVecBiasI8 plus a
// scalar survivor pass) and the platform default precision is the exact
// f64 tier (see FusedI8Enabled).
const fusedI8Active = false

func sweep4I8AboveSIMD(f *int8, stride int, u *int8, n16, n8, tail int, ut *int8, scale, offset, bias *float64, qscale, sumQ, tau float64, nrows int, rows *int32, scores *float64) int {
	panic("vecmath: fused int8 kernel on arm64")
}

func simdFeatures() []string { return []string{"neon"} }

func simdDisabled() string {
	if simdOffEnv {
		return "TFREC_NOSIMD"
	}
	return ""
}

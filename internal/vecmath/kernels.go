package vecmath

import "runtime"

// Runtime kernel dispatch. The hot int8 kernels each have two
// implementations: a pure-Go reference that defines the semantics bit for
// bit, and — on amd64 with AVX2 — a hand-written assembly body for the
// vectorizable head of the loop. Selection happens once at package init:
//
//   - amd64: CPUID must report AVX2 with OS-enabled YMM state
//     (OSXSAVE + XCR0[2:1] = 11), else generic.
//   - every other GOARCH, a `purego` build, or TFREC_NOSIMD=1 in the
//     environment: the generic reference kernels.
//
// The dispatch is bitwise-invisible by construction. The int8 kernels
// accumulate in exact integer arithmetic (int32 lanes; wraparound is
// mod-2³² and therefore associative), so ANY vectorization returns the
// identical integer and the shared float64 combine seals byte identity,
// which the differential suite in kernels_diff_test.go re-proves against
// the reference on every supported machine. The float64 kernels have no
// asm arm — training, the exact f64 tier and the rescore stay on the
// reference implementations everywhere.

// Implementation names reported by Kernels.
const (
	implGeneric = "generic"
	implAVX2    = "avx2"
)

// KernelSet describes the active kernel dispatch: the architecture, the
// CPU features that were detected, why SIMD is off (when it is), and the
// implementation serving each (tier, op) pair. It is surfaced by
// `tfrec-inspect -cpu` and as `inference.kernels` in /v1/stats, and
// recorded by tfrec-benchgate so baselines from different dispatch arms
// are never compared.
type KernelSet struct {
	// Arch is runtime.GOARCH.
	Arch string `json:"arch"`
	// Features lists the detected SIMD feature sets ("avx2"), whether
	// or not they are in use.
	Features []string `json:"features,omitempty"`
	// Disabled names the reason dispatch fell back to the generic
	// kernels despite a usable feature ("TFREC_NOSIMD", "purego
	// build"); empty when SIMD is active or simply unavailable.
	Disabled string `json:"disabled,omitempty"`
	// Ops maps each kernel op to its active implementation:
	// "avx2" or "generic".
	Ops map[string]string `json:"ops"`
}

// Kernels returns the active kernel dispatch table.
func Kernels() KernelSet {
	simd := activeImpl()
	return KernelSet{
		Arch:     runtime.GOARCH,
		Features: simdFeatures(),
		Disabled: simdDisabled(),
		Ops: map[string]string{
			"dot_i8":         simd,
			"sweep_i8_above": simd,
			"dot_f64":        implGeneric,
			"matvec_f64":     implGeneric,
		},
	}
}

// KernelsID is the compact one-line identity of the dispatch arm, e.g.
// "amd64/avx2" or "arm64/generic". Benchmark baselines record it: raw
// timings measured under different kernel sets are not comparable.
func KernelsID() string { return runtime.GOARCH + "/" + activeImpl() }

// activeImpl names the implementation serving the int8 ops.
func activeImpl() string {
	if simdActive {
		return implAVX2
	}
	return implGeneric
}

// SIMDEnabled reports whether the assembly kernels are active — DotI8
// and the fused SweepBiasI8Above both run their AVX2 bodies.
// model.Precision.Resolve keys the int8 default on it: the int8 tier is
// served only where the fused sweep runs, and the exact f64 tier
// everywhere else. The BenchmarkKernel* micro-benchmarks self-skip their
// SIMD variants when it is false.
func SIMDEnabled() bool { return simdActive }

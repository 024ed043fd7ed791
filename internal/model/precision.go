package model

import (
	"fmt"

	"repro/internal/vecmath"
)

// Precision selects the scoring data path a query sweeps, as an
// infer.Plan field: PrecisionInt8 runs the two-stage pipeline (quantized
// int8 slab sweep into an over-fetched candidate heap, then an exact
// float64 rescore of the candidates), which produces rankings
// byte-identical to the pure float64 path at an eighth of its sweep
// bandwidth; PrecisionF64 is the pure float64 sweep, the exact reference.
//
// The zero value PrecisionDefault means "no explicit choice" and resolves
// to the host's tier (Resolve). The serving edge always runs that tier;
// only infer callers (the CLIs, tests) pick another.
type Precision uint8

const (
	// PrecisionDefault is the host's tier (Resolve).
	PrecisionDefault Precision = iota
	// Slot 1 was the retired float32 tier. It stays reserved so the
	// values below keep the meaning model files recorded for them.
	_
	// PrecisionF64 is the pure float64 sweep: the exact reference the int8
	// tier is certified against and falls back to.
	PrecisionF64
	// PrecisionInt8 is the two-stage pipeline over the quantized int8
	// slabs, with an over-fetch and an exact-rescore certificate, so
	// rankings stay byte-identical to the f64 path.
	PrecisionInt8
)

// Resolve maps PrecisionDefault to the platform default: PrecisionInt8
// where the fused int8 sweep kernel runs in assembly (AVX2), and the exact
// PrecisionF64 everywhere else — on the generic kernels (every other
// architecture, `purego`, TFREC_NOSIMD) the int8 dot and combine run in
// scalar Go. Both tiers return byte-identical rankings, so the choice is
// purely one of speed.
func (p Precision) Resolve() Precision {
	switch {
	case p != PrecisionDefault:
		return p
	case vecmath.SIMDEnabled():
		return PrecisionInt8
	default:
		return PrecisionF64
	}
}

// String returns the wire spelling used by flags and the HTTP knob.
func (p Precision) String() string {
	switch p {
	case PrecisionF64:
		return "f64"
	case PrecisionInt8:
		return "int8"
	default:
		return "default"
	}
}

// ParsePrecision parses the wire spelling: "f64", "int8", or ""
// (default). The retired "f32" still parses, as PrecisionDefault, so
// clients that send it keep getting the host's tier.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "f32":
		return PrecisionDefault, nil
	case "f64":
		return PrecisionF64, nil
	case "int8":
		return PrecisionInt8, nil
	default:
		return PrecisionDefault, fmt.Errorf("model: unknown precision %q (want f32, f64 or int8)", s)
	}
}

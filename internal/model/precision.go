package model

import (
	"fmt"

	"repro/internal/vecmath"
)

// Precision selects the scoring data path a query sweeps. It is threaded
// from the CLIs through serve requests down to infer: PrecisionF32 runs
// the two-stage pipeline (compact float32 slab sweep into an over-fetched
// candidate heap, then an exact float64 rescore of the candidates), which
// halves sweep bandwidth while producing rankings byte-identical to the
// pure float64 path; PrecisionInt8 runs the same pipeline over quantized
// slabs at a quarter of the bandwidth; PrecisionF64 forces the pure
// float64 sweep.
//
// The zero value PrecisionDefault means "no explicit choice" and resolves
// per platform (Resolve) unless an outer layer (server option, model
// file) supplies one.
type Precision uint8

const (
	// PrecisionDefault defers the choice to the surrounding configuration
	// (request → server → model file), bottoming out at Resolve's
	// platform default.
	PrecisionDefault Precision = iota
	// PrecisionF32 is the two-stage exact pipeline: f32 slab sweep with
	// k' over-fetch, then f64 rescore of the candidates.
	PrecisionF32
	// PrecisionF64 is the pure float64 sweep.
	PrecisionF64
	// PrecisionInt8 is the two-stage pipeline over the quantized int8
	// slabs — a quarter of the f32 sweep bandwidth, with a larger
	// over-fetch and the same exact-rescore certificate, so rankings stay
	// byte-identical to the f64 path.
	PrecisionInt8
)

// Resolve maps PrecisionDefault to the platform default: PrecisionInt8
// where the fused int8 sweep kernel runs in assembly (AVX2) — the int8
// sweep reads a quarter of the f32 tier's bytes, and the fused kernel
// beats f32 on cache-resident and bandwidth-bound catalogs alike — and
// PrecisionF32 everywhere else: on the generic kernels the int8 dot and
// combine run in scalar Go, and on NEON the unfused int8 path (dot, then
// a separate survivor pass) has not been measured against f32. Every
// tier returns byte-identical rankings, so the choice is purely one of
// speed.
func (p Precision) Resolve() Precision {
	switch {
	case p != PrecisionDefault:
		return p
	case vecmath.FusedI8Enabled():
		return PrecisionInt8
	default:
		return PrecisionF32
	}
}

// String returns the wire spelling used by flags and the HTTP knob.
func (p Precision) String() string {
	switch p {
	case PrecisionF32:
		return "f32"
	case PrecisionF64:
		return "f64"
	case PrecisionInt8:
		return "int8"
	default:
		return "default"
	}
}

// ParsePrecision parses the wire spelling: "f32", "f64", "int8", or ""
// (default).
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "":
		return PrecisionDefault, nil
	case "f32":
		return PrecisionF32, nil
	case "f64":
		return PrecisionF64, nil
	case "int8":
		return PrecisionInt8, nil
	default:
		return PrecisionDefault, fmt.Errorf("model: unknown precision %q (want f32, f64 or int8)", s)
	}
}

package main

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/model"
	"repro/internal/vecmath"
)

// cpuReport prints the active vecmath kernel dispatch — the same table
// /v1/stats serves as inference.kernels — and the sweep tier it selects
// (inference.precision: int8 where the fused int8 kernel runs, f64
// elsewhere), so an operator can check what a host will run without
// starting a server or loading a model.
func cpuReport(w io.Writer) {
	ks := vecmath.Kernels()
	fmt.Fprintf(w, "kernel dispatch: %s\n", vecmath.KernelsID())
	fmt.Fprintf(w, "  arch:     %s\n", ks.Arch)
	features := "none detected"
	if len(ks.Features) > 0 {
		features = ""
		for i, f := range ks.Features {
			if i > 0 {
				features += " "
			}
			features += f
		}
	}
	fmt.Fprintf(w, "  features: %s\n", features)
	if ks.Disabled != "" {
		fmt.Fprintf(w, "  simd off: %s\n", ks.Disabled)
	}
	fmt.Fprintf(w, "  tier:     %s\n", model.PrecisionDefault.Resolve())
	ops := make([]string, 0, len(ks.Ops))
	for op := range ks.Ops {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	fmt.Fprintln(w, "  ops:")
	for _, op := range ops {
		fmt.Fprintf(w, "    %-18s %s\n", op, ks.Ops[op])
	}
}

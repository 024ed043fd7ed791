package main

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/vecmath"
)

// TestCPUReport pins the -cpu output to the live dispatch: the report
// must carry the same dispatch id, the served tier, and every (op, impl)
// row that vecmath.Kernels() — and therefore /v1/stats — exposes. The op
// set is the int8 tier's kernels plus the f64 ones; no float32 kernel is
// left to report.
func TestCPUReport(t *testing.T) {
	var sb strings.Builder
	cpuReport(&sb)
	out := sb.String()

	if !strings.Contains(out, "kernel dispatch: "+vecmath.KernelsID()) {
		t.Fatalf("report missing dispatch id %q:\n%s", vecmath.KernelsID(), out)
	}
	ks := vecmath.Kernels()
	if !strings.Contains(out, "arch:     "+ks.Arch) {
		t.Fatalf("report missing arch %q:\n%s", ks.Arch, out)
	}
	tier := "f64"
	if vecmath.SIMDEnabled() {
		tier = "int8"
	}
	if tier != model.PrecisionDefault.Resolve().String() || !strings.Contains(out, "tier:     "+tier+"\n") {
		t.Fatalf("report missing served tier %q:\n%s", tier, out)
	}
	ops := make([]string, 0, len(ks.Ops))
	for op := range ks.Ops {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	if want := []string{"dot_f64", "dot_i8", "matvec_f64", "sweep_i8_above"}; !slices.Equal(ops, want) {
		t.Fatalf("kernel ops %v, want %v", ops, want)
	}
	for op, impl := range ks.Ops {
		found := false
		for _, line := range strings.Split(out, "\n") {
			fields := strings.Fields(line)
			if len(fields) == 2 && fields[0] == op && fields[1] == impl {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("report missing op row %s -> %s:\n%s", op, impl, out)
		}
	}
	if ks.Disabled != "" && !strings.Contains(out, "simd off: "+ks.Disabled) {
		t.Fatalf("report missing disabled reason %q:\n%s", ks.Disabled, out)
	}
}

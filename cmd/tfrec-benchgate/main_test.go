package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTopKIndexStreaming-8        	  10000	    100000 ns/op	       0 B/op	       0 allocs/op
BenchmarkTopKIndexStreaming-8        	  10000	    102000 ns/op	       0 B/op	       0 allocs/op
BenchmarkTopKIndexStreaming-8        	  10000	     98000 ns/op	       0 B/op	       0 allocs/op
BenchmarkShardedTopK/workers=4-8     	  20000	     50000 ns/op	       0 B/op	       0 allocs/op
BenchmarkShardedTopK/workers=4-8     	  20000	     52000 ns/op	       0 B/op	       0 allocs/op
BenchmarkShardedTopK/workers=4-8     	  20000	     48000 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro	5.459s
`

func TestParseBenchMediansStripProcsSuffix(t *testing.T) {
	samples, procs, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	med := medians(samples)
	if procs != 8 {
		t.Fatalf("procs = %d, want 8", procs)
	}
	if got := med["BenchmarkTopKIndexStreaming"]; got != 100000 {
		t.Fatalf("canary median = %v, want 100000", got)
	}
	if got := med["BenchmarkShardedTopK/workers=4"]; got != 50000 {
		t.Fatalf("sharded median = %v, want 50000", got)
	}
}

func baseFixture() baseline {
	return baseline{
		Threshold: 0.10,
		Canary:    "BenchmarkTopKIndexStreaming",
		NsPerOp: map[string]float64{
			"BenchmarkTopKIndexStreaming":    100000,
			"BenchmarkShardedTopK/workers=4": 50000,
		},
	}
}

func TestGatePassesUnchangedAndFasterRuns(t *testing.T) {
	for _, scale := range []float64{1.0, 0.5, 1.4} {
		// scale models a uniformly faster/slower machine: the canary moves
		// with every bench, so normalized ratios stay at 1 and the gate
		// passes across hardware — up to the raw canary bound (+50%),
		// beyond which a refreshed baseline is required by design
		meas := map[string]float64{
			"BenchmarkTopKIndexStreaming":    100000 * scale,
			"BenchmarkShardedTopK/workers=4": 50000 * scale,
		}
		results, failed := gate(baseFixture(), meas, 8, "")
		if failed {
			t.Fatalf("scale %v: gate failed: %+v", scale, results)
		}
	}
}

// The acceptance criterion: a synthetic slowdown of one gated bench —
// here 30% on the sharded sweep while the canary is unchanged — must
// fail the gate.
func TestGateFailsOnSyntheticSlowdown(t *testing.T) {
	meas := map[string]float64{
		"BenchmarkTopKIndexStreaming":    100000,
		"BenchmarkShardedTopK/workers=4": 65000,
	}
	results, failed := gate(baseFixture(), meas, 8, "")
	if !failed {
		t.Fatalf("30%% slowdown passed the gate: %+v", results)
	}
	var hit bool
	for _, r := range results {
		if r.name == "BenchmarkShardedTopK/workers=4" && r.regressed {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("slowdown not attributed to the right bench: %+v", results)
	}
}

func TestGateFailsOnMissingBench(t *testing.T) {
	meas := map[string]float64{"BenchmarkTopKIndexStreaming": 100000}
	_, failed := gate(baseFixture(), meas, 8, "")
	if !failed {
		t.Fatal("baseline bench absent from input must fail the gate")
	}
}

func TestGateToleratesJitterWithinThreshold(t *testing.T) {
	meas := map[string]float64{
		"BenchmarkTopKIndexStreaming":    101000,
		"BenchmarkShardedTopK/workers=4": 52500, // +5% raw, well under 10%
	}
	if _, failed := gate(baseFixture(), meas, 8, ""); failed {
		t.Fatal("5% jitter must pass a 10% gate")
	}
}

// End-to-end through run(): -update writes a baseline, a clean re-gate
// passes (exit 0), and the same input with a 1.3x synthetic slowdown on a
// non-canary bench exits 1.
func TestRunUpdateGateAndSlowdown(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "BENCH_baseline.json")

	var out, errOut bytes.Buffer
	if code := run([]string{"-baseline", basePath, "-update"}, strings.NewReader(sampleBench), &out, &errOut); code != 0 {
		t.Fatalf("update: exit %d, stderr %s", code, errOut.String())
	}
	raw, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	if base.Canary != "BenchmarkTopKIndexStreaming" || len(base.NsPerOp) != 2 {
		t.Fatalf("unexpected baseline: %+v", base)
	}

	out.Reset()
	if code := run([]string{"-baseline", basePath}, strings.NewReader(sampleBench), &out, &errOut); code != 0 {
		t.Fatalf("clean gate: exit %d\n%s", code, out.String())
	}

	slow := strings.ReplaceAll(sampleBench, "50000 ns/op", "65000 ns/op")
	slow = strings.ReplaceAll(slow, "52000 ns/op", "67000 ns/op")
	slow = strings.ReplaceAll(slow, "48000 ns/op", "63000 ns/op")
	out.Reset()
	if code := run([]string{"-baseline", basePath}, strings.NewReader(slow), &out, &errOut); code != 1 {
		t.Fatalf("synthetic slowdown: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Fatalf("no FAIL line in gate output:\n%s", out.String())
	}

	// -emit-text produces benchstat-consumable lines
	out.Reset()
	if code := run([]string{"-baseline", basePath, "-emit-text"}, strings.NewReader(""), &out, &errOut); code != 0 {
		t.Fatalf("emit-text: exit %d", code)
	}
	if !strings.Contains(out.String(), "BenchmarkShardedTopK/workers=4 1 50000 ns/op") {
		t.Fatalf("emit-text output unexpected:\n%s", out.String())
	}
}

// A regression in the canary's own code path rescales every normalized
// comparison to 1.0 — the raw canary bound must catch it.
func TestGateCatchesCanarySelfRegression(t *testing.T) {
	meas := map[string]float64{
		"BenchmarkTopKIndexStreaming":    180000, // +80% across the board
		"BenchmarkShardedTopK/workers=4": 90000,
	}
	results, failed := gate(baseFixture(), meas, 8, "")
	if !failed {
		t.Fatalf("across-the-board slowdown passed the gate: %+v", results)
	}
	var hit bool
	for _, r := range results {
		if strings.HasSuffix(r.name, "(raw)") && r.regressed {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("raw canary check did not fire: %+v", results)
	}
}

func speedupFixture() baseline {
	base := baseFixture()
	base.NsPerOp["BenchmarkShardedTopKSerial"] = 100000
	base.Speedups = []speedupGate{
		{Slow: "BenchmarkShardedTopKSerial", Fast: "BenchmarkShardedTopK/workers=4", Min: 2.0, MinProcs: 4},
	}
	return base
}

// Losing parallel scaling (workers=4 as slow as serial) must fail on a
// multi-core run even though per-bench normalization cannot see it when
// the baseline came from a small machine.
func TestGateSpeedupFloorCatchesScalingLoss(t *testing.T) {
	meas := map[string]float64{
		"BenchmarkTopKIndexStreaming":    100000,
		"BenchmarkShardedTopKSerial":     100000,
		"BenchmarkShardedTopK/workers=4": 95000, // ~1x: scaling destroyed
	}
	if _, failed := gate(speedupFixture(), meas, 8, ""); !failed {
		t.Fatal("1x 'parallel' sweep passed a 2x speedup floor on 8 procs")
	}
	// healthy scaling passes
	meas["BenchmarkShardedTopK/workers=4"] = 30000
	if results, failed := gate(speedupFixture(), meas, 8, ""); failed {
		t.Fatalf("3.3x speedup failed a 2x floor: %+v", results)
	}
	// on a small machine the floor is skipped, not failed
	results, failed := gate(speedupFixture(), meas, 1, "")
	if failed {
		t.Fatalf("speedup floor fired on a 1-proc run: %+v", results)
	}
	var skipped bool
	for _, r := range results {
		if r.speedup && r.skipped != "" {
			skipped = true
		}
	}
	if !skipped {
		t.Fatalf("speedup floor not reported as skipped on 1 proc: %+v", results)
	}
}

// A speedup floor is reported exactly as the baseline states it: a
// fractional floor such as 0.95 must not print rounded to "0.9".
func TestGateSpeedupFloorPrintedExactly(t *testing.T) {
	base := speedupFixture()
	base.Speedups = append(base.Speedups, speedupGate{Slow: "BenchmarkExecuteDeadlineNone", Fast: "BenchmarkExecuteDeadlineFar", Min: 0.95, MinProcs: 1})
	meas := map[string]float64{
		"BenchmarkTopKIndexStreaming":    100000,
		"BenchmarkShardedTopKSerial":     100000,
		"BenchmarkShardedTopK/workers=4": 30000,
		"BenchmarkExecuteDeadlineNone":   1000,
		"BenchmarkExecuteDeadlineFar":    1000,
	}
	results, _ := gate(base, meas, 8, "")
	want := map[string]bool{
		"BenchmarkShardedTopK/workers=4 >= 2x BenchmarkShardedTopKSerial":   false,
		"BenchmarkExecuteDeadlineFar >= 0.95x BenchmarkExecuteDeadlineNone": false,
	}
	for _, r := range results {
		if _, ok := want[r.name]; ok && r.speedup {
			want[r.name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("no speedup result named %q in %+v", name, results)
		}
	}
}

// The raw canary bound compares un-normalized times, which only means
// something on like hardware: against a baseline recorded with a
// different proc count it must be skipped, not failed.
func TestGateRawCanarySkippedAcrossMachineClasses(t *testing.T) {
	base := baseFixture()
	base.Procs = 1 // baseline recorded on a single-core box
	meas := map[string]float64{
		"BenchmarkTopKIndexStreaming":    400000, // 4x slower machine
		"BenchmarkShardedTopK/workers=4": 200000,
	}
	results, failed := gate(base, meas, 8, "")
	if failed {
		t.Fatalf("cross-machine raw canary fired: %+v", results)
	}
	var skipped bool
	for _, r := range results {
		if strings.HasSuffix(r.name, "(raw)") && r.skipped != "" {
			skipped = true
		}
	}
	if !skipped {
		t.Fatalf("raw canary not reported as skipped: %+v", results)
	}
	// same machine class: the bound arms and fires
	base.Procs = 8
	if _, failed := gate(base, meas, 8, ""); !failed {
		t.Fatal("4x raw canary slowdown on like hardware passed")
	}
}

// A baseline recorded under one kernel dispatch must never produce
// per-bench verdicts against a run from another: every ns comparison,
// the missing-bench failure (SIMD micro-benches legitimately self-skip
// on other arms) and the raw canary bound all become skips.
func TestGateSkipsAcrossKernelSets(t *testing.T) {
	base := baseFixture()
	base.Kernels = "amd64/avx2"
	base.NsPerOp["BenchmarkKernelDotI8SIMD"] = 1000 // absent from a generic run
	meas := map[string]float64{
		"BenchmarkTopKIndexStreaming":    500000, // 5x "regression" — noise across arms
		"BenchmarkShardedTopK/workers=4": 250000,
	}
	results, failed := gate(base, meas, 8, "arm64/generic")
	if failed {
		t.Fatalf("cross-kernel-set gate fired: %+v", results)
	}
	var skips int
	for _, r := range results {
		if r.skipped == "" {
			t.Fatalf("cross-kernel-set comparison not skipped: %+v", r)
		}
		skips++
	}
	if skips != 4 { // 3 ns entries + raw canary
		t.Fatalf("got %d skips, want 4: %+v", skips, results)
	}
	// matching kernel set with the SIMD bench present: fully armed again
	meas["BenchmarkTopKIndexStreaming"] = 100000
	meas["BenchmarkShardedTopK/workers=4"] = 50000
	meas["BenchmarkKernelDotI8SIMD"] = 1000
	if results, failed := gate(base, meas, 8, "amd64/avx2"); failed {
		t.Fatalf("matching kernel set failed a clean run: %+v", results)
	}
}

// Kernel-conditioned speedup floors gate only on their own dispatch arm:
// skipped elsewhere (where the SIMD benches produce no samples at all),
// enforced — and failing — on the arm they name.
func TestGateKernelConditionedSpeedupFloor(t *testing.T) {
	base := baseFixture()
	base.Speedups = []speedupGate{
		{Slow: "BenchmarkKernelDotI8Generic", Fast: "BenchmarkKernelDotI8SIMD", Min: 3.0, MinProcs: 1, Kernels: "amd64/avx2"},
	}
	meas := map[string]float64{
		"BenchmarkTopKIndexStreaming":    100000,
		"BenchmarkShardedTopK/workers=4": 50000,
	}
	// generic arm: no SIMD samples, and the floor must skip, not fail
	results, failed := gate(base, meas, 1, "amd64/generic")
	if failed {
		t.Fatalf("kernel-conditioned floor fired off its arm: %+v", results)
	}
	var skipped bool
	for _, r := range results {
		if r.speedup && r.skipped != "" {
			skipped = true
		}
	}
	if !skipped {
		t.Fatalf("kernel-conditioned floor not reported as skipped: %+v", results)
	}
	// on the named arm with a degraded kernel (2x < the 3x floor): fail
	meas["BenchmarkKernelDotI8Generic"] = 6000
	meas["BenchmarkKernelDotI8SIMD"] = 3000
	if _, failed := gate(base, meas, 1, "amd64/avx2"); !failed {
		t.Fatal("2x SIMD kernel passed a 3x floor on its own arm")
	}
	// healthy kernel passes
	meas["BenchmarkKernelDotI8SIMD"] = 1000
	if results, failed := gate(base, meas, 1, "amd64/avx2"); failed {
		t.Fatalf("6x SIMD kernel failed a 3x floor: %+v", results)
	}
}

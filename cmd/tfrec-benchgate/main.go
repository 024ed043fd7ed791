// Command tfrec-benchgate is the CI benchmark-regression gate: it parses
// `go test -bench` output, reduces repeated runs (-count=N) to per-bench
// medians, and compares them against the committed BENCH_baseline.json,
// failing (exit 1) when any gated bench regressed beyond the threshold.
//
// Raw ns/op is not comparable across machines, so the gate normalizes
// both sides by a canary bench recorded in the baseline (the serial
// streaming top-k): what is compared is each bench's slowdown factor
// relative to the canary on the same machine. A >10% regression in that
// ratio means the bench got slower relative to the hardware it ran on —
// a real regression, not a slower runner.
//
// Canary normalization factors out machine *speed* but not machine
// *shape*: the vecmath kernel dispatch (AVX2 or generic — see
// `tfrec-inspect -cpu`) changes the relative cost of the int8, f64 and
// canary sweeps, so normalized ratios measured under one kernel set are
// meaningless against a baseline recorded under another. The baseline
// therefore records its kernel set ("kernels"); when the gating run's
// set differs, every per-bench ns comparison and the raw canary bound
// are reported as skips, and only the within-run speedup floors — which
// compare two benches of the same run — remain armed. Speedup entries
// may themselves carry a "kernels" condition ("the AVX2 int8 dot must
// stay ≥3x the generic reference") and are skipped on other arms, where
// the SIMD micro-benches self-skip and produce no samples at all.
//
// Usage:
//
//	go test -run '^$' -bench 'TopK|Sharded' -count=6 . | tfrec-benchgate -baseline BENCH_baseline.json
//	tfrec-benchgate -baseline BENCH_baseline.json -input bench.txt -update   # refresh the baseline
//	tfrec-benchgate -baseline BENCH_baseline.json -emit-text                 # baseline as bench lines (for benchstat)
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/vecmath"
)

// baseline is the committed reference: per-bench median ns/op from a
// known-good run, the regression threshold, and the canary bench used to
// factor out machine speed.
type baseline struct {
	// Note documents how to refresh the file.
	Note string `json:"note"`
	// Threshold is the allowed relative regression (0.10 = 10%).
	Threshold float64 `json:"threshold"`
	// Canary names the bench used to normalize machine speed; empty
	// disables normalization and compares raw ns/op.
	Canary string `json:"canary,omitempty"`
	// CanaryRawLimit is the allowed raw (un-normalized) slowdown of the
	// canary itself. The canary's normalized ratio is 1.0 by construction,
	// so a regression in the canary's own code path would silently rescale
	// every other comparison; this looser raw bound (default 0.5 = 50%,
	// wide enough for runner-to-runner variance) catches that. Raw ns/op
	// is only meaningful on like hardware, so the check applies only when
	// the run's processor count matches Procs and is skipped otherwise.
	CanaryRawLimit float64 `json:"canary_raw_limit,omitempty"`
	// Procs records the GOMAXPROCS of the run the baseline came from — a
	// machine-class proxy guarding the raw canary check.
	Procs int `json:"procs,omitempty"`
	// Kernels records the vecmath kernel dispatch the baseline was
	// measured under (vecmath.KernelsID(), e.g. "amd64/avx2"). A gating
	// run under a different dispatch skips every per-bench comparison:
	// the kernel set changes the relative cost of the sweeps, which is
	// exactly what canary normalization cannot correct for. Empty (a
	// pre-SIMD baseline) disables the check.
	Kernels string `json:"kernels,omitempty"`
	// Speedups are cross-bench ratio floors, checked only when the run
	// used at least MinProcs CPUs (read from the bench name's -N suffix).
	// They gate parallel *scaling* — e.g. "the sharded sweep must stay
	// ≥2x the serial sweep on ≥4 cores" — which per-bench normalization
	// cannot see when the committed baseline came from a small machine.
	Speedups []speedupGate `json:"speedups,omitempty"`
	// NsPerOp maps bench name (GOMAXPROCS suffix stripped) to median ns/op.
	NsPerOp map[string]float64 `json:"ns_per_op"`
}

// speedupGate requires meas[Slow]/meas[Fast] >= Min when the run had at
// least MinProcs processors and — when Kernels is non-empty — the run's
// kernel dispatch matches Kernels exactly.
type speedupGate struct {
	Slow     string  `json:"slow"`
	Fast     string  `json:"fast"`
	Min      float64 `json:"min"`
	MinProcs int     `json:"min_procs"`
	Kernels  string  `json:"kernels,omitempty"`
}

// benchLine matches one result line of `go test -bench` output, e.g.
// "BenchmarkShardedTopK/workers=4-8   231   1046510 ns/op   0 B/op";
// the trailing -8 is GOMAXPROCS, stripped from the name but kept as the
// run's processor count for the speedup gates.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+\d+\s+([0-9.]+(?:[eE][+-]?\d+)?) ns/op`)

// parseBench collects every ns/op sample per bench name from go test
// -bench output and reports the GOMAXPROCS the run used (1 when no
// suffix was present).
func parseBench(r io.Reader) (map[string][]float64, int, error) {
	samples := make(map[string][]float64)
	procs := 1
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, 0, fmt.Errorf("bad ns/op in %q: %w", sc.Text(), err)
		}
		if m[2] != "" {
			if p, err := strconv.Atoi(m[2]); err == nil && p > procs {
				procs = p
			}
		}
		samples[m[1]] = append(samples[m[1]], ns)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	return samples, procs, nil
}

// median reduces repeated -count runs to a robust central value.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medians(samples map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(samples))
	for name, xs := range samples {
		out[name] = median(xs)
	}
	return out
}

// gateResult is one check's verdict.
type gateResult struct {
	name      string
	oldNs     float64
	newNs     float64
	ratio     float64 // normalized new/old; > 1 means slower
	regressed bool
	missing   bool
	skipped   string // non-empty: check not applicable, with reason
	speedup   bool   // ratio is an achieved speedup, not a cost ratio
}

// gate compares measured medians against the baseline. Every baseline
// bench must be present in the input — a silently skipped bench would
// make the gate pass vacuously. procs is the GOMAXPROCS of the measured
// run; speedup gates below their MinProcs are reported as skipped.
// kernels is the run's vecmath dispatch id: when it differs from the
// baseline's, per-bench and raw-canary comparisons are skipped (the
// missing-bench failure included — SIMD micro-benches legitimately
// self-skip on other arms), and kernel-conditioned speedup gates apply
// only on their own arm.
func gate(base baseline, meas map[string]float64, procs int, kernels string) ([]gateResult, bool) {
	kernelMismatch := base.Kernels != "" && kernels != base.Kernels
	kernelSkip := fmt.Sprintf("baseline kernels %s, run has %s; refresh the baseline from this dispatch arm to arm per-bench comparisons", base.Kernels, kernels)
	norm := 1.0
	if base.Canary != "" {
		oldC, okOld := base.NsPerOp[base.Canary]
		newC, okNew := meas[base.Canary]
		if okOld && okNew && oldC > 0 && newC > 0 {
			norm = oldC / newC // machine-speed factor baseline/now
		}
	}
	names := make([]string, 0, len(base.NsPerOp))
	for name := range base.NsPerOp {
		names = append(names, name)
	}
	sort.Strings(names)
	var results []gateResult
	failed := false
	for _, name := range names {
		oldNs := base.NsPerOp[name]
		if kernelMismatch {
			results = append(results, gateResult{name: name, oldNs: oldNs, skipped: kernelSkip})
			continue
		}
		newNs, ok := meas[name]
		if !ok {
			results = append(results, gateResult{name: name, oldNs: oldNs, missing: true})
			failed = true
			continue
		}
		r := gateResult{name: name, oldNs: oldNs, newNs: newNs}
		r.ratio = (newNs * norm) / oldNs
		r.regressed = r.ratio > 1+base.Threshold
		if r.regressed {
			failed = true
		}
		results = append(results, r)
	}
	// the canary's normalized ratio is 1.0 by construction, so a slowdown
	// in the canary's own code path would rescale (and hide) every other
	// comparison; bound its raw ratio with the looser machine-variance
	// limit — but only against a baseline from the same machine class
	// (matching proc count), since raw ns/op means nothing across classes
	if base.Canary != "" {
		limit := base.CanaryRawLimit
		if limit <= 0 {
			limit = 0.5
		}
		oldC, okOld := base.NsPerOp[base.Canary]
		if newC, ok := meas[base.Canary]; ok && okOld && oldC > 0 {
			r := gateResult{name: base.Canary + " (raw)", oldNs: oldC, newNs: newC, ratio: newC / oldC}
			if kernelMismatch {
				r.skipped = kernelSkip
			} else if base.Procs != 0 && base.Procs != procs {
				r.skipped = fmt.Sprintf("baseline from %d-proc machine, run had %d; refresh the baseline from this hardware to arm the raw canary bound", base.Procs, procs)
			} else {
				r.regressed = r.ratio > 1+limit
				if r.regressed {
					failed = true
				}
			}
			results = append(results, r)
		}
	}
	for _, s := range base.Speedups {
		r := gateResult{name: fmt.Sprintf("%s >= %gx %s", s.Fast, s.Min, s.Slow), speedup: true}
		slow, okSlow := meas[s.Slow]
		fast, okFast := meas[s.Fast]
		switch {
		case s.Kernels != "" && s.Kernels != kernels:
			r.skipped = fmt.Sprintf("needs %s kernels, run has %s", s.Kernels, kernels)
		case procs < s.MinProcs:
			r.skipped = fmt.Sprintf("needs >=%d procs, run had %d", s.MinProcs, procs)
		case !okSlow || !okFast:
			r.missing = true
			failed = true
		default:
			r.oldNs, r.newNs = slow, fast
			r.ratio = slow / fast // achieved speedup
			r.regressed = r.ratio < s.Min
			if r.regressed {
				failed = true
			}
		}
		results = append(results, r)
	}
	return results, failed
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tfrec-benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "BENCH_baseline.json", "committed baseline file")
	inputPath := fs.String("input", "-", "bench output file ('-' = stdin)")
	update := fs.Bool("update", false, "rewrite the baseline from the input instead of gating")
	emitText := fs.Bool("emit-text", false, "print the baseline as go-bench lines (benchstat input) and exit")
	threshold := fs.Float64("threshold", -1, "override the baseline's regression threshold")
	kernels := fs.String("kernels", vecmath.KernelsID(), "kernel dispatch id of the machine that produced the input (defaults to this host's)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	base := baseline{Threshold: 0.10}
	raw, err := os.ReadFile(*baselinePath)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &base); err != nil {
			fmt.Fprintf(stderr, "tfrec-benchgate: bad baseline %s: %v\n", *baselinePath, err)
			return 2
		}
	case os.IsNotExist(err) && *update:
		// first -update creates the file
	default:
		fmt.Fprintf(stderr, "tfrec-benchgate: %v\n", err)
		return 2
	}
	if *threshold >= 0 {
		base.Threshold = *threshold
	}

	if *emitText {
		names := make([]string, 0, len(base.NsPerOp))
		for name := range base.NsPerOp {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(stdout, "%s 1 %v ns/op\n", name, base.NsPerOp[name])
		}
		return 0
	}

	in := stdin
	if *inputPath != "-" {
		f, err := os.Open(*inputPath)
		if err != nil {
			fmt.Fprintf(stderr, "tfrec-benchgate: %v\n", err)
			return 2
		}
		defer f.Close()
		in = f
	}
	samples, procs, err := parseBench(in)
	if err != nil {
		fmt.Fprintf(stderr, "tfrec-benchgate: %v\n", err)
		return 2
	}
	if len(samples) == 0 {
		fmt.Fprintln(stderr, "tfrec-benchgate: no benchmark lines in input")
		return 2
	}
	meas := medians(samples)

	if *update {
		base.Note = "Median ns/op from `go test -run '^$' -bench '^(BenchmarkTopK|BenchmarkCategorySweep|BenchmarkSharded|BenchmarkServe|BenchmarkExecuteDeadline|BenchmarkQuantize|BenchmarkLoad|BenchmarkKernel)' -count=6 .`; refresh with tfrec-benchgate -update after intentional perf changes. Per-bench comparisons are normalized by the canary bench (its own raw time is bounded by canary_raw_limit), so the file need not come from CI-identical hardware — but it must come from the same kernel dispatch arm (the kernels field; runs under a different arm skip per-bench comparisons entirely); the speedups entries additionally gate parallel scaling itself on machines with enough cores, and kernel-conditioned entries gate the SIMD kernels' own floors on their arm. The BenchmarkLoad pair is speedup-gated only (no absolute ns/op entry): its world is sized by TFREC_LOADBENCH_ITEMS, so raw times are not comparable across runs."
		if base.Canary == "" {
			base.Canary = "BenchmarkTopKIndexStreaming"
		}
		if base.CanaryRawLimit == 0 {
			base.CanaryRawLimit = 0.5
		}
		base.Procs = procs
		base.Kernels = *kernels
		if base.Speedups == nil {
			// the acceptance floors: sustained sharded throughput >=2x
			// serial on >=4 cores (the served int8 pipeline keeping the
			// same parallel floor), plus the query-plan executor's two
			// promises: the unfiltered plan path stays within ~10% of
			// the direct sweep it wraps (a >=0.9x "speedup" floor on the
			// direct/plan ratio), and a 95%-exclusion filter actually
			// skips work (>=2.5x over the unfiltered sweep of the same
			// world); only pairs actually measured in this input are
			// installed, so a partial bench run cannot plant a
			// vacuously-failing floor
			for _, s := range []speedupGate{
				{Slow: "BenchmarkShardedTopKSerial", Fast: "BenchmarkShardedTopKSaturated", Min: 2.0, MinProcs: 4},
				{Slow: "BenchmarkShardedTopKSerial", Fast: "BenchmarkShardedTopK/workers=4", Min: 1.5, MinProcs: 4},
				{Slow: "BenchmarkShardedTopKSerial", Fast: "BenchmarkTopKI8Saturated", Min: 2.0, MinProcs: 4},
				{Slow: "BenchmarkTopKIndexStreaming", Fast: "BenchmarkTopKPlanStreaming", Min: 0.9, MinProcs: 1},
				{Slow: "BenchmarkTopKFiltered/excl=0", Fast: "BenchmarkTopKFiltered/excl=95", Min: 2.5, MinProcs: 1},
				// serving resilience: a result-cache hit must skip the sweep
				// (>=10x the uncached request; measured ~6000x), and an armed
				// deadline must not measurably slow the uncontended sweep —
				// none/far >= 0.95 bounds the armed sweep at ~1.05x the
				// unarmed one, comfortably above bench noise yet far below
				// the +30%-style regressions a misplaced per-item check
				// would cause
				{Slow: "BenchmarkServeUncached", Fast: "BenchmarkServeCachedHit", Min: 10.0, MinProcs: 1},
				{Slow: "BenchmarkExecuteDeadlineNone", Fast: "BenchmarkExecuteDeadlineFar", Min: 0.95, MinProcs: 1},
				// category sweep floors: a skewed world must skip
				// enough to win ≥2x over the direct dense sweep, and a
				// uniform (bound-hostile) world must not pay more than ~5%
				// for the bounds and the checkpoint bail
				{Slow: "BenchmarkTopKSkewedDense", Fast: "BenchmarkTopKSkewedPruned", Min: 2.0, MinProcs: 1},
				{Slow: "BenchmarkTopKUniformDense", Fast: "BenchmarkTopKUniformPruned", Min: 0.95, MinProcs: 1},
				// the category sweep on the learned fixture must beat the
				// dense two-stage int8 sweep it replaced ≥1.5x (measured ~3x)
				{Slow: "BenchmarkCategorySweepLearnedDenseI8", Fast: "BenchmarkCategorySweepLearned", Min: 1.5, MinProcs: 1},
				// the SIMD kernels' own floors, conditioned on the AVX2
				// dispatch arm (on other arms the SIMD micro-benches
				// self-skip, those hosts serve f64, and the pairs are
				// reported as skipped): the assembly int8 dot must stay
				// ≥3x the pure-Go reference (measured ~16x), and the
				// served int8 wide-world pipeline must stay ≥1.5x the
				// exact f64 sweep single-core (measured ~7x)
				{Slow: "BenchmarkKernelDotI8Generic", Fast: "BenchmarkKernelDotI8SIMD", Min: 3.0, MinProcs: 1, Kernels: "amd64/avx2"},
				{Slow: "BenchmarkTopKF64Wide", Fast: "BenchmarkTopKI8Wide", Min: 1.5, MinProcs: 1, Kernels: "amd64/avx2"},
				// the v4 flat format's whole point: memory-mapped startup
				// must beat the gob decode+Compose path >=20x on the CI
				// bench job's million-item world (measured ~77x; the gob
				// path scales with the catalog, the mmap path only with
				// file checksumming)
				{Slow: "BenchmarkLoadGob", Fast: "BenchmarkLoadMmap", Min: 20.0, MinProcs: 1},
			} {
				if _, okSlow := meas[s.Slow]; !okSlow {
					continue
				}
				if _, okFast := meas[s.Fast]; !okFast {
					continue
				}
				base.Speedups = append(base.Speedups, s)
			}
		}
		// the load pair's world is sized by TFREC_LOADBENCH_ITEMS, so its
		// raw times mean nothing across runs — it is speedup-gated only
		// and must never get an absolute ns/op entry
		for name := range meas {
			if strings.HasPrefix(name, "BenchmarkLoad") {
				delete(meas, name)
			}
		}
		base.NsPerOp = meas
		out, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "tfrec-benchgate: %v\n", err)
			return 2
		}
		if err := os.WriteFile(*baselinePath, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "tfrec-benchgate: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "wrote %s with %d benches\n", *baselinePath, len(meas))
		return 0
	}

	results, failed := gate(base, meas, procs, *kernels)
	fmt.Fprintf(stdout, "bench gate: threshold %+.0f%%, canary %s, run procs %d, kernels %s (baseline %s)\n",
		base.Threshold*100, orNone(base.Canary), procs, *kernels, orNone(base.Kernels))
	for _, r := range results {
		switch {
		case r.skipped != "":
			fmt.Fprintf(stdout, "  skip    %-50s %s\n", r.name, r.skipped)
		case r.missing:
			fmt.Fprintf(stdout, "  MISSING %-50s bench(es) not in input\n", r.name)
		case r.speedup:
			verdict := "ok     "
			if r.regressed {
				verdict = "FAIL   "
			}
			fmt.Fprintf(stdout, "  %s %-50s achieved %.2fx\n", verdict, r.name, r.ratio)
		case r.regressed:
			fmt.Fprintf(stdout, "  FAIL    %-50s %12.0f -> %12.0f ns/op (%+.1f%%)\n", r.name, r.oldNs, r.newNs, (r.ratio-1)*100)
		default:
			fmt.Fprintf(stdout, "  ok      %-50s %12.0f -> %12.0f ns/op (%+.1f%%)\n", r.name, r.oldNs, r.newNs, (r.ratio-1)*100)
		}
	}
	if failed {
		fmt.Fprintln(stdout, "bench gate: REGRESSION detected")
		return 1
	}
	fmt.Fprintln(stdout, "bench gate: ok")
	return 0
}

func orNone(s string) string {
	if s == "" {
		return "(none)"
	}
	return s
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var (
	throughput = metricDef{Name: "throughput_rps", Better: "higher", Bound: 0.25}
	latency    = metricDef{Name: "p99_hi_ms", Better: "lower"}
)

// noisyRuns draws n paired runs around the two centres with ±spread
// relative noise, like minute-scale drift on a shared VM.
func noisyRuns(rng *rand.Rand, n int, before, after, spread float64) (b, a []float64) {
	for i := 0; i < n; i++ {
		b = append(b, before*(1+spread*(2*rng.Float64()-1)))
		a = append(a, after*(1+spread*(2*rng.Float64()-1)))
	}
	return b, a
}

// A 10% shift under ±3% noise over ten pairs is a detected gain in
// either metric direction.
func TestSummarizeDetectsTenPercentShift(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seed := 0; seed < 20; seed++ {
		b, a := noisyRuns(rng, 10, 1000, 1100, 0.03)
		if r := summarize(throughput, b, a); r.verdict != verdictBetter {
			t.Fatalf("seed %d: +10%% throughput judged %s (wins %d/%d, ratio %.3f)", seed, r.verdict, r.wins, r.n, r.ratio)
		}
		b, a = noisyRuns(rng, 10, 10, 9, 0.03)
		if r := summarize(latency, b, a); r.verdict != verdictBetter {
			t.Fatalf("seed %d: −10%% latency judged %s (wins %d/%d)", seed, r.verdict, r.wins, r.n)
		}
	}
}

// The sign test's p-value: ten wins of ten pairs (the synthetic 10%
// shift) give 2/1024 ≈ 0.002, a balanced 5/5 A/A set gives 1, and ties
// count for neither side.
func TestSignTestP(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b, a := noisyRuns(rng, 10, 1000, 1100, 0.03)
	r := summarize(throughput, b, a)
	if r.wins != 10 || math.Abs(r.signP-2.0/1024) > 1e-12 {
		t.Fatalf("10%% shift: wins %d/%d, sign p %g, want 10/10 and %g", r.wins, r.n, r.signP, 2.0/1024)
	}
	aa := summarize(throughput,
		[]float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100},
		[]float64{101, 99, 102, 98, 103, 97, 101, 99, 102, 98})
	if aa.wins != 5 || aa.losses != 5 || aa.signP != 1 {
		t.Fatalf("balanced A/A: %d wins, %d losses, sign p %g, want 5/5 and 1", aa.wins, aa.losses, aa.signP)
	}
	for _, tc := range []struct {
		wins, losses int
		want         float64
	}{
		{0, 0, 1},
		{1, 0, 1},
		{9, 1, 22.0 / 1024}, // 2·(C(10,0)+C(10,1))/2¹⁰
		{1, 9, 22.0 / 1024},
		{6, 0, 2.0 / 64},
		{3, 2, 1},
	} {
		if got := signTestP(tc.wins, tc.losses); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("signTestP(%d, %d) = %g, want %g", tc.wins, tc.losses, got, tc.want)
		}
	}
	// a tie drops its pair
	if r := summarize(throughput, []float64{5, 5, 5}, []float64{6, 6, 5}); r.wins != 2 || r.signP != 0.5 {
		t.Fatalf("2 wins and a tie: wins %d, sign p %g, want 2 and 0.5", r.wins, r.signP)
	}
}

// A/A pairs — both sides from one distribution — never claim a gain.
func TestSummarizeAANoWin(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for seed := 0; seed < 200; seed++ {
		b, a := noisyRuns(rng, 10, 1000, 1000, 0.05)
		if r := summarize(throughput, b, a); r.verdict == verdictBetter || r.verdict == verdictRegressed {
			t.Fatalf("A/A trial %d judged %s (wins %d/%d, ratio %.3f)", seed, r.verdict, r.wins, r.n, r.ratio)
		}
	}
}

// A drop past the bound regresses; a parent spread wider than the bound
// is unresolved unless the change separates completely, and a separated
// change still needs a gap past the parent IQR to count as a gain; ties
// count for neither side; a missing run drops its pair.
func TestSummarizeBoundsAndTies(t *testing.T) {
	if r := summarize(throughput, []float64{100, 101, 99, 100}, []float64{70, 71, 69, 70}); r.verdict != verdictRegressed {
		t.Fatalf("−30%% throughput judged %s", r.verdict)
	}
	wide := []float64{60, 100, 140, 100, 61, 139, 60, 100, 140, 100}
	if r := summarize(throughput, wide, []float64{100, 101, 99, 100, 100, 100, 101, 99, 100, 100}); r.verdict != verdictUnresolved {
		t.Fatalf("wide parent judged %s", r.verdict)
	}
	if r := summarize(throughput, wide, []float64{150, 151, 152, 150, 150, 150, 151, 152, 150, 150}); r.verdict != verdictNeutral {
		t.Fatalf("separated change inside the parent IQR judged %s", r.verdict)
	}
	if r := summarize(throughput, wide, []float64{200, 201, 202, 200, 200, 200, 201, 202, 200, 200}); r.verdict != verdictBetter {
		t.Fatalf("separated change past the parent IQR judged %s", r.verdict)
	}
	r := summarize(throughput, []float64{5, 5, 5, math.NaN()}, []float64{5, 6, 4, 7})
	if r.n != 3 || r.wins != 1 || r.losses != 1 || r.verdict != verdictNeutral {
		t.Fatalf("ties/missing: n=%d wins=%d losses=%d verdict %s", r.n, r.wins, r.losses, r.verdict)
	}
}

// Fewer than minPairs pairs never yield a paired claim in either
// direction, however clean the shift; a regression past the bound is
// still reported.
func TestSummarizeTooFewPairs(t *testing.T) {
	for _, n := range []int{1, 6, minPairs - 1} {
		b := make([]float64, n)
		a := make([]float64, n)
		for i := range b {
			b[i], a[i] = 100+float64(i%2), 150+float64(i%2)
		}
		if r := summarize(throughput, b, a); r.verdict != verdictFewPairs {
			t.Fatalf("%d pairs of +50%% judged %s", n, r.verdict)
		}
		if r := summarize(latency, b, a); r.verdict != verdictFewPairs {
			t.Fatalf("%d pairs of +50%% latency judged %s", n, r.verdict)
		}
		for i := range a {
			a[i] = 70
		}
		if r := summarize(throughput, b, a); r.verdict != verdictRegressed {
			t.Fatalf("%d pairs of −30%% judged %s", n, r.verdict)
		}
	}
}

// The CLI pairs before-<i>/after-<i> files, prints a verdict row per
// declared metric and merges each side in the bench result schema.
func TestRunPairsAndMerges(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	writeFile(t, spec, `{"end_to_end":[{"name":"throughput_rps","unit":"req/s","better":"higher","bound":0.25}],"per_layer":[]}`)
	runs := filepath.Join(dir, "runs")
	if err := os.Mkdir(runs, 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		for side, v := range map[string]float64{"before": 100 + float64(i%3), "after": 150 + float64(i%2)} {
			writeFile(t, filepath.Join(runs, fmt.Sprintf("%s-%d.json", side, i)), fmt.Sprintf(
				`{"results":[{"workload":"node_dense","seed":1,"trace":false,"correct":true,"attempted":9,"failed":0,"metrics":{"throughput_rps":{"value":%g,"unit":"req/s"}},"timeline":[]}]}`, v))
		}
	}
	var out bytes.Buffer
	merged := filepath.Join(dir, "after.json")
	if err := run(&out, spec, "", merged, []string{runs}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "node_dense") || !strings.Contains(out.String(), "10/10  0.00195  better") {
		t.Fatalf("report:\n%s", out.String())
	}
	b, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	var rf struct {
		Results []map[string]any `json:"results"`
	}
	if err := json.Unmarshal(b, &rf); err != nil || len(rf.Results) != 10 || rf.Results[0]["timeline"] == nil {
		t.Fatalf("merged file: %d results, err %v:\n%s", len(rf.Results), err, b)
	}
}

func writeFile(t *testing.T, path, body string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

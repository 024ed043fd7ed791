package main

import (
	"math"
	"sort"
)

// metricDef is one metric declared in BENCHMARK.json: which direction is
// better and, for end-to-end metrics, the relative bound by which the
// change may worsen before it counts as a regression (0 = no bound).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Verdicts, in the order summarize tests them.
const (
	verdictBetter     = "better"        // ≥9/10 paired wins and a median gap wider than the parent IQR
	verdictRegressed  = "REGRESSED"     // median worse than the parent's by more than the bound
	verdictWorse      = "worse"         // within the bound, but ≥9/10 losses and a gap past the IQR
	verdictFewPairs   = "too few pairs" // better or worse by the rule, but on fewer than minPairs pairs
	verdictUnresolved = "unresolved"    // the parent's own spread exceeds the bound
	verdictNeutral    = "neutral"
)

// minPairs is the fewest pairs on which the paired rule may call a
// metric better or worse.
const minPairs = 10

// row is the summary of one metric over n paired runs.
type row struct {
	def                   metricDef
	n, wins, losses       int
	beforeMed, beforeIQR  float64
	afterMed, afterIQR    float64
	ratio                 float64 // median of the per-pair after/before ratios
	verdict               string
	beforeRuns, afterRuns []float64
}

// summarize compares paired runs of one metric: before[i] and after[i]
// came from the same pair (NaN marks a run that did not report it, and
// drops the pair). It applies the paired-claim rule — a gain needs the
// change to win at least nine tenths of at least minPairs pairs (ties
// count for neither) and the medians to differ by more than the parent's
// interquartile range — and the no-regression rule: a median worse by
// more than the bound regresses, and a parent spread wider than the bound
// leaves the metric unresolved unless every run of the change beats every
// run of the parent.
func summarize(def metricDef, before, after []float64) row {
	r := row{def: def}
	var ratios []float64
	for i := range before {
		b, a := before[i], after[i]
		if math.IsNaN(b) || math.IsNaN(a) {
			continue
		}
		r.n++
		r.beforeRuns = append(r.beforeRuns, b)
		r.afterRuns = append(r.afterRuns, a)
		switch d := improvement(def, b, a); {
		case d > 0:
			r.wins++
		case d < 0:
			r.losses++
		}
		if b != 0 {
			ratios = append(ratios, a/b)
		}
	}
	if r.n == 0 {
		r.verdict = verdictNeutral
		return r
	}
	r.beforeMed, r.beforeIQR = medianIQR(r.beforeRuns)
	r.afterMed, r.afterIQR = medianIQR(r.afterRuns)
	if len(ratios) > 0 {
		r.ratio, _ = medianIQR(ratios)
	}
	gap := improvement(def, r.beforeMed, r.afterMed)
	switch {
	case r.wins*10 >= 9*r.n && gap > r.beforeIQR:
		r.verdict = pairedVerdict(r.n, verdictBetter)
	case def.Bound > 0 && -gap > def.Bound*math.Abs(r.beforeMed):
		r.verdict = verdictRegressed
	case r.losses*10 >= 9*r.n && -gap > r.beforeIQR:
		r.verdict = pairedVerdict(r.n, verdictWorse)
	case def.Bound > 0 && r.beforeIQR > def.Bound*math.Abs(r.beforeMed) && !separated(def, r.beforeRuns, r.afterRuns):
		r.verdict = verdictUnresolved
	default:
		r.verdict = verdictNeutral
	}
	return r
}

// pairedVerdict withholds a paired claim v made on fewer than minPairs
// pairs.
func pairedVerdict(n int, v string) string {
	if n < minPairs {
		return verdictFewPairs
	}
	return v
}

// improvement is how much better a is than b in the metric's direction
// (positive = better).
func improvement(def metricDef, b, a float64) float64 {
	if def.Better == "lower" {
		return b - a
	}
	return a - b
}

// separated reports whether every after run is strictly better than
// every before run.
func separated(def metricDef, before, after []float64) bool {
	worstAfter, bestBefore := after[0], before[0]
	for _, a := range after {
		if improvement(def, a, worstAfter) > 0 {
			worstAfter = a
		}
	}
	for _, b := range before {
		if improvement(def, bestBefore, b) > 0 {
			bestBefore = b
		}
	}
	return improvement(def, bestBefore, worstAfter) > 0
}

// medianIQR returns the median and the interquartile range (q3 − q1) of
// xs, with quartiles linearly interpolated between order statistics.
func medianIQR(xs []float64) (median, iqr float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	return q(0.5), q(0.75) - q(0.25)
}

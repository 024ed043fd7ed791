package main

import (
	"math"
	"slices"
)

// quantile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending slice; 0 for an empty one.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the middle value of xs (mean of the two middle ones for
// an even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tailPercentiles are the percentiles a report may name, ascending.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9}

// supportedPercentile applies the reporting rule: the highest percentile
// with at least ten samples beyond it. A p99 needs 1000 samples; with
// fewer than 20 nothing past the median is supported.
func supportedPercentile(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not exactly 0.1
			best = p
		}
	}
	return best
}

// tailPct is the tail percentile every latency report names.
const tailPct = 99

// latencySummary is a timing reported the way the rule asks: median,
// tail percentile, whether the sample supports that percentile, and n.
type latencySummary struct {
	n         int
	p50       float64
	tail      float64 // value at tailPct
	supported bool    // tailPct <= supportedPercentile(n)
}

// summarize sorts xs in place and reports its median and tail.
func summarize(xs []float64) latencySummary {
	slices.Sort(xs)
	return latencySummary{
		n: len(xs), p50: quantile(xs, 0.5), tail: quantile(xs, tailPct/100.0),
		supported: tailPct <= supportedPercentile(len(xs)),
	}
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method); xs needs at
// least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the run-to-run spread of a metric: the distance between its
// first and third quartile as a share of its median.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}

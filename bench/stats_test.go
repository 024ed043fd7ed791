package main

import (
	"math"
	"testing"
)

func TestSupportedPercentile(t *testing.T) {
	// the highest percentile with at least ten samples beyond it
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := supportedPercentile(tc.n); got != tc.want {
			t.Errorf("supportedPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestSummarizeFlagsUnsupportedTail(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // descending: summarize must sort
	}
	s := summarize(xs)
	if s.supported {
		t.Error("999 samples must not support a p99")
	}
	if s.p50 != 500 || s.tail != 990 {
		t.Errorf("p50=%g p99=%g, want 500 and 990", s.p50, s.tail)
	}
	if s = summarize(append(xs, 1000)); !s.supported {
		t.Error("1000 samples must support a p99")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	xs := []float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22}
	q1, q3 := quartiles(xs)
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %g, %g; want 3.5, 31", q1, q3)
	}
	if got, want := spread(xs), (31-3.5)/13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	// statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
	if q1, q3 := quartiles([]float64{10, 20}); q1 != 7.5 || q3 != 22.5 {
		t.Errorf("two-point quartiles = %g, %g; want 7.5, 22.5", q1, q3)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	if m := median(xs); m != 2 {
		t.Errorf("median = %g, want 2", m)
	}
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("median reordered its input")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %g, want 2.5", m)
	}
}

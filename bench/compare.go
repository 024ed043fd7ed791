package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// verdicts of one (metric, workload) comparison.
const (
	verdictPass       = "pass"
	verdictFail       = "FAIL"
	verdictUnresolved = "unresolved"
)

// comparison is one row of -compare: an end-to-end metric on a workload,
// the baseline's median against the candidate's.
type comparison struct {
	workload, metric string
	base, cand       float64
	runs             int     // baseline runs behind the median
	spread           float64 // baseline IQR / median; 0 with fewer than 4 runs
	bound            float64
	worse            float64 // share of the baseline by which cand is worse (< 0: better)
	verdict          string
}

// worseBy is how much worse cand is than base as a share of base, signed
// so that positive is always worse whichever way the metric points.
func worseBy(def metricDef, base, cand float64) float64 {
	if base == 0 {
		return 0
	}
	if def.better == "higher" {
		return (base - cand) / base
	}
	return (cand - base) / base
}

// compareResults checks cand against base on every pairing of end-to-end
// metric and workload present in both. A pairing fails when cand's
// median is worse than base's by more than the metric's bound; where the
// baseline's own run-to-run spread is wider than the bound the pairing
// is unresolved, not passed.
func compareResults(base, cand *resultFile) ([]comparison, error) {
	values := func(rf *resultFile, workload, metric string) (xs []float64, kernels string) {
		for _, r := range rf.Results {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
				xs = append(xs, m.Value)
				kernels = r.Kernels
			}
		}
		return xs, kernels
	}
	var out []comparison
	for i := range workloads {
		for _, def := range endToEnd {
			b, bk := values(base, workloads[i].name, def.name)
			c, ck := values(cand, workloads[i].name, def.name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			if bk != ck {
				return nil, fmt.Errorf("kernel dispatch differs (%s vs %s): numbers from different arms are not compared", bk, ck)
			}
			row := comparison{
				workload: workloads[i].name, metric: def.name, base: median(b), cand: median(c),
				runs: len(b), bound: def.bound, verdict: verdictPass,
			}
			row.worse = worseBy(def, row.base, row.cand)
			if len(b) >= 4 {
				row.spread = spread(b)
			}
			switch {
			case row.spread > row.bound:
				row.verdict = verdictUnresolved
			case row.worse > row.bound:
				row.verdict = verdictFail
			}
			out = append(out, row)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("the two files share no end-to-end result")
	}
	return out, nil
}

// compareFiles prints the comparison of two result files and reports
// whether no pairing failed.
func compareFiles(w io.Writer, basePath, candPath string) (bool, error) {
	base, err := readResults(basePath)
	if err != nil {
		return false, err
	}
	cand, err := readResults(candPath)
	if err != nil {
		return false, err
	}
	rows, err := compareResults(base, cand)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base %s  vs  new %s  (medians; ratio is new/base)\n", basePath, candPath)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tnew/base\tworse by\tbound\tbase spread\tverdict")
	ok := true
	for _, r := range rows {
		sp := "n/a"
		if r.runs >= 4 {
			sp = fmt.Sprintf("%.1f%%", 100*r.spread)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.3f\t%+.1f%%\t%.0f%%\t%s\t%s\n",
			r.workload, r.metric, r.base, r.cand, r.cand/r.base, 100*r.worse, 100*r.bound, sp, r.verdict)
		ok = ok && r.verdict != verdictFail
	}
	return ok, tw.Flush()
}

package main

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/infer"
	"repro/internal/model"
	"repro/internal/vecmath"
)

// slackBuckets are the histogram edges for bound slack, log-spaced: a
// sample lands in the first bucket whose upper edge exceeds its slack
// (one extra bucket catches everything >= the last edge). Slack is
// measured in score units, so the buckets read directly against typical
// top-k score gaps.
var slackBuckets = []float64{1e-9, 1e-6, 1e-3, 1e-1, 1, 10}

// checkpointK is the page size whose first heap fill the checkpoint
// audit replays, the API's default page.
const checkpointK = 10

// cutTightness is the audit of the cut's ball bounds (model/cut.go) over
// a set of probe queries — users' factor rows, the queries the service
// answers. Per category and query, slack = bound + ε − the category's
// max exact score: the margin the category sweep compares against its
// running k-th score. Near-zero slack lets the sweep stop after a few
// categories; a negative slack would mean a broken ball, the invariant the
// sweep's exactness rests on. Shares and Early hold, per query, the two
// checkpoint shares: the fraction of the catalog the bounds already rule
// out when a top-10 heap first fills, and before any row is read, against
// the best category centre's score (the sweep bails to the dense sweep
// when either is below infer.CheckpointShare).
type cutTightness struct {
	Categories int
	Samples    int // category × query measurements
	Min        float64
	Max        float64
	sum        float64
	Hist       []int // len(slackBuckets)+1 counts
	Shares     []float64
	Early      []float64
}

// Mean is the average slack over all samples.
func (ct *cutTightness) Mean() float64 {
	if ct.Samples == 0 {
		return 0
	}
	return ct.sum / float64(ct.Samples)
}

func (ct *cutTightness) add(slack float64) {
	if ct.Samples == 0 || slack < ct.Min {
		ct.Min = slack
	}
	if ct.Samples == 0 || slack > ct.Max {
		ct.Max = slack
	}
	ct.sum += slack
	ct.Samples++
	b := 0
	for b < len(slackBuckets) && slack >= slackBuckets[b] {
		b++
	}
	ct.Hist[b]++
}

// percentile returns the p-th percentile (0..100) of v, nearest rank.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return s[min(len(s)-1, int(p/100*float64(len(s))))]
}

// boundTightness probes the cut with the factor rows of queries seeded
// random users. Each probe scores the whole catalog exactly once, takes
// every category's max, and replays the sweep's two checkpoints: the
// share of the catalog whose category bound + ε sits below the best
// centre score (bound − ‖q‖·r), and, sweeping categories in bound order
// until a top-10 heap fills, below the heap's k-th score. Cost is
// O(queries × numItems·K).
func boundTightness(c *model.Composed, queries int, seed uint64) cutTightness {
	ix := c.Index
	m := ix.NumCut()
	rng := vecmath.NewRNG(seed)
	q := make([]float64, c.K())
	scores := make([]float64, c.NumItems())
	bounds := make([]float64, m)
	order := make([]int, m)
	dfs := ix.DFSItems()
	ct := cutTightness{Categories: m, Hist: make([]int, len(slackBuckets)+1)}
	heap := vecmath.NewTopKStream(checkpointK)
	for qi := 0; qi < queries && m > 0; qi++ {
		c.BuildQueryInto(rng.Intn(c.User.Rows()), nil, q)
		ix.ItemScoresInto(q, scores)
		eps := ix.CutBoundsInto(q, bounds)
		qn := vecmath.Norm2(q)
		centre := math.Inf(-1)
		for j := range order {
			centre = max(centre, bounds[j]-qn*ix.CutRadius(j))
		}
		for j := range order {
			order[j] = j
			lo, hi := ix.DFSSpan(ix.CutNode(j))
			best := math.Inf(-1)
			for _, item := range dfs[lo:hi] {
				best = max(best, scores[item])
			}
			ct.add(bounds[j] + eps - best)
		}
		ct.Early = append(ct.Early, ruledOutShare(ix, bounds, order, eps, centre))
		slices.SortFunc(order, func(a, b int) int { return cmp.Compare(bounds[b], bounds[a]) })
		heap.Reset(checkpointK)
		for i, j := range order {
			lo, hi := ix.DFSSpan(ix.CutNode(j))
			for _, item := range dfs[lo:hi] {
				heap.Push(int(item), scores[item])
			}
			th, full := heap.Threshold()
			if !full {
				continue
			}
			ct.Shares = append(ct.Shares, ruledOutShare(ix, bounds, order[i+1:], eps, th))
			break
		}
	}
	return ct
}

// ruledOutShare is the share of the catalog in the listed categories
// whose bound + eps sits strictly below th.
func ruledOutShare(ix *model.ScoringIndex, bounds []float64, cats []int, eps, th float64) float64 {
	out := 0
	for _, j := range cats {
		if bounds[j]+eps < th {
			out += ix.CutSize(j)
		}
	}
	return float64(out) / float64(ix.NumItems())
}

// printBoundTightness renders the audit: slack summary and histogram,
// then the checkpoint share percentiles and how many probes would bail.
func printBoundTightness(w io.Writer, queries int, ct *cutTightness) {
	fmt.Fprintf(w, "\ncut ball-bound tightness over %d probe queries (%d categories; slack = bound + eps − category max score):\n", queries, ct.Categories)
	if ct.Samples == 0 {
		fmt.Fprintln(w, "  no cut: every query runs the dense sweep")
		return
	}
	fmt.Fprintf(w, "  slack: min %.3g  mean %.3g  max %.3g\n", ct.Min, ct.Mean(), ct.Max)
	fmt.Fprintf(w, "  slack histogram:")
	prev := 0.0
	for b, count := range ct.Hist {
		if count == 0 {
			if b < len(slackBuckets) {
				prev = slackBuckets[b]
			}
			continue
		}
		if b < len(slackBuckets) {
			fmt.Fprintf(w, "  [%.3g..%.3g) %d", prev, slackBuckets[b], count)
			prev = slackBuckets[b]
		} else {
			fmt.Fprintf(w, "  [>=%.3g] %d", prev, count)
		}
	}
	fmt.Fprintln(w)
	bails := 0
	for i := range ct.Early {
		if ct.Early[i] < infer.CheckpointShare || (i < len(ct.Shares) && ct.Shares[i] < infer.CheckpointShare) {
			bails++
		}
	}
	fmt.Fprintf(w, "  checkpoint share before any row (best centre): p10 %.3f  p50 %.3f  p90 %.3f\n",
		percentile(ct.Early, 10), percentile(ct.Early, 50), percentile(ct.Early, 90))
	fmt.Fprintf(w, "  checkpoint share at the first top-%d fill:      p10 %.3f  p50 %.3f  p90 %.3f\n",
		checkpointK, percentile(ct.Shares, 10), percentile(ct.Shares, 50), percentile(ct.Shares, 90))
	fmt.Fprintf(w, "  %d/%d probes fall below %.2g and bail to the dense sweep\n", bails, len(ct.Early), infer.CheckpointShare)
}

// Command tfrec-ab summarises paired A/B runs of the end-to-end benchmark
// (bench/run.sh): for every workload, seed and pass it prints each
// declared metric's parent ("before") and change ("after") median and
// interquartile range, the median of the per-pair after/before ratios,
// the change's wins out of the pairs, the exact two-sided sign-test
// p-value of those wins against the losses, and a verdict under the
// paired-claim and no-regression rules (see summarize). scripts/ab.sh collects the
// runs and calls it.
//
// Usage:
//
//	tfrec-ab [-spec BENCHMARK.json] [-before merged.json -after merged.json] DIR...
//
// Each DIR holds before-<i>.json and after-<i>.json, the result files of
// pair i (bench/out/result-<workload>[-trace].json copies). -before and
// -after also write every run of each side, merged, in the same result
// schema.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// runResult is the part of one bench result this tool reads; raw keeps
// the whole object for the merged output.
type runResult struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Correct  bool   `json:"correct"`
	Failed   int    `json:"failed"`
	Metrics  map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
	raw json.RawMessage
}

// pair is one before/after pair of runs of the same workload and pass.
type pair struct{ before, after *runResult }

func main() {
	spec := flag.String("spec", "BENCHMARK.json", "benchmark declaration naming each metric's direction and bound")
	beforeOut := flag.String("before", "", "write every parent run, merged, to this result file")
	afterOut := flag.String("after", "", "write every change run, merged, to this result file")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: tfrec-ab [-spec BENCHMARK.json] [-before f -after f] DIR...")
		os.Exit(2)
	}
	if err := run(os.Stdout, *spec, *beforeOut, *afterOut, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "tfrec-ab:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, specPath, beforeOut, afterOut string, dirs []string) error {
	defs, err := readSpec(specPath)
	if err != nil {
		return err
	}
	var pairs []pair
	for _, dir := range dirs {
		ps, err := readPairs(dir)
		if err != nil {
			return err
		}
		pairs = append(pairs, ps...)
	}
	report(w, defs, pairs)
	for _, out := range []struct {
		path  string
		after bool
	}{{beforeOut, false}, {afterOut, true}} {
		if out.path == "" {
			continue
		}
		if err := writeMerged(out.path, pairs, out.after); err != nil {
			return err
		}
	}
	return nil
}

// readSpec returns the declared metrics: end-to-end first, then per-layer.
func readSpec(path string) ([]metricDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return append(spec.EndToEnd, spec.PerLayer...), nil
}

// readPairs loads before-<i>.json / after-<i>.json for every i in dir.
func readPairs(dir string) ([]pair, error) {
	befores, err := filepath.Glob(filepath.Join(dir, "before-*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(befores)
	var pairs []pair
	for _, bpath := range befores {
		apath := filepath.Join(dir, "after-"+strings.TrimPrefix(filepath.Base(bpath), "before-"))
		b, err := readResult(bpath)
		if err != nil {
			return nil, err
		}
		a, err := readResult(apath)
		if err != nil {
			return nil, err
		}
		if a.Workload != b.Workload || a.Seed != b.Seed || a.Trace != b.Trace {
			return nil, fmt.Errorf("%s and %s are not runs of the same workload, seed and pass", bpath, apath)
		}
		pairs = append(pairs, pair{b, a})
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("%s: no before-*.json runs", dir)
	}
	return pairs, nil
}

func readResult(path string) (*runResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rf.Results) != 1 {
		return nil, fmt.Errorf("%s: %d results, want one run", path, len(rf.Results))
	}
	r := &runResult{raw: rf.Results[0]}
	if err := json.Unmarshal(r.raw, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// report prints one table per (workload, seed, pass) group.
func report(w io.Writer, defs []metricDef, pairs []pair) {
	type key struct {
		workload string
		seed     uint64
		trace    bool
	}
	groups := map[key][]pair{}
	var order []key
	for _, p := range pairs {
		k := key{p.before.Workload, p.before.Seed, p.before.Trace}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], p)
	}
	for _, k := range order {
		ps := groups[k]
		pass := "end-to-end"
		if k.trace {
			pass = "traced"
		}
		failedB, failedA, wrong := 0, 0, 0
		for _, p := range ps {
			failedB += p.before.Failed
			failedA += p.after.Failed
			if !p.before.Correct || !p.after.Correct {
				wrong++
			}
		}
		fmt.Fprintf(w, "== %s  seed %d  %s  %d pairs  ops_failed before %d after %d  incorrect runs %d\n",
			k.workload, k.seed, pass, len(ps), failedB, failedA, wrong)
		fmt.Fprintf(w, "  %-34s %14s %10s %14s %10s %8s %7s %7s  %s\n",
			"metric", "before med", "IQR", "after med", "IQR", "ratio", "wins", "sign p", "verdict")
		for _, def := range defs {
			before := make([]float64, len(ps))
			after := make([]float64, len(ps))
			for i, p := range ps {
				before[i], after[i] = value(p.before, def.Name), value(p.after, def.Name)
			}
			r := summarize(def, before, after)
			if r.n == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-34s %14.4g %10.3g %14.4g %10.3g %7.3fx %3d/%-3d %7.3g  %s\n",
				def.Name, r.beforeMed, r.beforeIQR, r.afterMed, r.afterIQR, r.ratio, r.wins, r.n, r.signP, r.verdict)
		}
	}
}

// value is the named metric of a run, NaN when the run did not report it.
func value(r *runResult, name string) float64 {
	m, ok := r.Metrics[name]
	if !ok {
		return math.NaN()
	}
	return m.Value
}

// writeMerged writes one side's runs as a single result file.
func writeMerged(path string, pairs []pair, after bool) error {
	var out struct {
		Results []json.RawMessage `json:"results"`
	}
	for _, p := range pairs {
		r := p.before
		if after {
			r = p.after
		}
		out.Results = append(out.Results, r.raw)
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

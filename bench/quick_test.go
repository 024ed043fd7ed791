package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestBenchQuick runs the whole benchmark in smoke mode — every
// workload, both passes, the oracle, the trace files and -compare — in
// this process, so the test suite fails the day an API the benchmark
// calls drifts.
func TestBenchQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs about twenty seconds of load")
	}
	dir := t.TempDir()
	var log strings.Builder
	o := options{seed: 1, quick: true, nproc: runtime.NumCPU(), outDir: dir, tmpDir: dir}
	if err := runQuick(&log, o); err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	for i := range workloads {
		path := filepath.Join(dir, "trace-"+workloads[i].name+".jsonl")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		var sp span
		if err := json.Unmarshal([]byte(lines[0]), &sp); err != nil || sp.Name == "" || sp.EndUS < sp.StartUS {
			t.Errorf("%s: first span %q does not parse: %v", path, lines[0], err)
		}
		if len(lines) < 100 {
			t.Errorf("%s: only %d spans", path, len(lines))
		}
	}
	left, _ := filepath.Glob(filepath.Join(dir, "*.tfrec*"))
	if len(left) != 0 {
		t.Errorf("model files left behind: %v", left)
	}
}

// TestBenchmarkJSONMatchesTheCatalog pins BENCHMARK.json, which the
// driver reads, to the metric and workload tables the program reports
// from.
func TestBenchmarkJSONMatchesTheCatalog(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
		Why    string   `json:"why"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, the program has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, the program's is %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, the program reports %d", kind, len(got), len(want))
		}
		for i, e := range got {
			d := want[i]
			if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
				t.Errorf("%s %d: declared %s [%s, %s], program has %s [%s, %s]", kind, i, e.Name, e.Unit, e.Better, d.name, d.unit, d.better)
			}
			switch {
			case bounded && (e.Bound == nil || *e.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s: bound must be declared, equal the program's %g and lie in (0, 0.25]", e.Name, d.bound)
			case !bounded && e.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", e.Name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
}

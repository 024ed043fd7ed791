// Command bench is the end-to-end and per-layer benchmark of the TF
// recommender: three serving workloads and one training workload, each
// measured from outside through the exported functions and HTTP handlers
// of the repo's packages, with outputs checked against an independent
// oracle. README.md in this directory says how to run it and what every
// metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// resultFile is what a run of the benchmark writes and -compare reads:
// every result of every workload, one entry per run.
type resultFile struct {
	Results []*result `json:"results"`
}

func main() {
	start := time.Now()
	var o options
	name := flag.String("workload", "all", "workload to run: node_dense, node_hot, router3_taxo, train_tf, or all (each in a fresh child process)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated worlds and request streams")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long one workload measures")
	trace := flag.Int("trace", 0, "1 runs the traced pass (per-layer metrics) in place of the end-to-end pass")
	flag.BoolVar(&o.quick, "quick", false, "smoke mode: tiny worlds, one-second phases, every workload and both passes in this process, then -compare of the run against itself")
	runs := flag.Int("runs", 1, "with -workload all: how many times to run the whole set")
	compare := flag.Bool("compare", false, "compare two result files: -compare base.json new.json")
	flag.StringVar(&o.outDir, "out", "out", "directory for result files and traces")
	flag.StringVar(&o.tmpDir, "tmp", "", "directory for generated model files (default <out>/tmp)")
	flag.Parse()
	o.trace = *trace != 0
	// the reference load generator: one process, nproc sender goroutines
	// and connections, and the Go scheduler held to the same nproc
	o.nproc = runtime.NumCPU()
	runtime.GOMAXPROCS(o.nproc)

	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: bench -compare base.json new.json")
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, "%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if o.tmpDir == "" {
		o.tmpDir = filepath.Join(o.outDir, "tmp")
	}
	for _, dir := range []string{o.outDir, o.tmpDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(2, "%v", err)
		}
	}
	switch {
	case o.quick:
		if err := runQuick(os.Stdout, o); err != nil {
			fatal(1, "%v", err)
		}
	case *name == "all":
		if err := runAll(o, *runs); err != nil {
			fatal(1, "%v", err)
		}
	default:
		wl, ok := findWorkload(*name)
		if !ok {
			fatal(2, "unknown workload %q", *name)
		}
		res, err := runOne(wl, o, start)
		if err != nil {
			fatal(1, "%s: %v", wl.name, err)
		}
		printResult(os.Stdout, res)
		if err := writeJSON(filepath.Join(o.outDir, resultName(wl.name, o.trace)), resultFile{[]*result{res}}); err != nil {
			fatal(1, "%v", err)
		}
		// the contract's result: one JSON object, last line of stdout
		fmt.Println(contractLine(res))
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

// runOne runs one pass of one workload in this process.
func runOne(wl *workload, o options, start time.Time) (*result, error) {
	if o.trace {
		return runTraced(wl, o)
	}
	return runWorkload(wl, o, start)
}

// resultName is the file one workload's result is written to.
func resultName(workload string, trace bool) string {
	if trace {
		return "result-" + workload + "-trace.json"
	}
	return "result-" + workload + ".json"
}

// passMetrics are the metrics a pass must report: the end-to-end list
// untraced, the per-layer list traced.
func passMetrics(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// contractLine renders a result as the one-line JSON object the
// benchmark contract asks for: exactly the pass's declared metrics, each
// with its value and unit.
func contractLine(res *result) string {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]valueUnit{}}
	for _, def := range passMetrics(res.Trace) {
		out.Metrics[def.name] = valueUnit{res.Metrics[def.name].Value, def.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

// printResult prints every metric of a result by name, with its unit and
// sample count, then the run's timeline and notes.
func printResult(w io.Writer, res *result) {
	pass := "end-to-end"
	if res.Trace {
		pass = "traced"
	}
	fmt.Fprintf(w, "== %s  (%s pass, seed %d, %gs, nproc %d, kernels %s)\n", res.Workload, pass, res.Seed, res.Seconds, res.NProc, res.Kernels)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		count := ""
		if m.N > 0 {
			count = "n=" + strconv.Itoa(m.N)
		}
		fmt.Fprintf(w, "  %-34s %16.4f %-11s %s\n", n, m.Value, m.Unit, count)
	}
	fmt.Fprintf(w, "  ops_attempted %d  ops_failed %d  correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, st := range res.Timeline {
		fmt.Fprintf(w, "  stage %-14s %7.2fs\n", st.Name, st.Seconds)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  NOTE %s\n", n)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// runAll runs every workload, each in a fresh child process so set-up
// time and peak memory are per workload, the whole set runs times over,
// and writes every result to one file.
func runAll(o options, runs int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var all resultFile
	failed := false
	for run := 0; run < runs; run++ {
		for i := range workloads {
			wl := &workloads[i]
			cmd := exec.Command(self,
				"-workload", wl.name, "-seed", strconv.FormatUint(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", map[bool]string{false: "0", true: "1"}[o.trace],
				"-out", o.outDir, "-tmp", o.tmpDir)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s: %w", wl.name, err)
			}
			rf, err := readResults(filepath.Join(o.outDir, resultName(wl.name, o.trace)))
			if err != nil {
				return err
			}
			all.Results = append(all.Results, rf.Results...)
			failed = failed || !rf.Results[0].Correct
		}
	}
	name := "results.json"
	if o.trace {
		name = "results-trace.json"
	}
	path := filepath.Join(o.outDir, name)
	if err := writeJSON(path, all); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	if failed {
		return fmt.Errorf("a workload's checks failed; see the NOTE lines")
	}
	return nil
}

// runQuick is the smoke mode: every workload, both passes, in this
// process, then the result set compared with itself. It exists so a test
// can fail the day an API the benchmark calls drifts.
func runQuick(w io.Writer, o options) error {
	o.seconds = 4 // one-second phases
	var all resultFile
	for i := range workloads {
		for _, trace := range []bool{false, true} {
			o.trace = trace
			res, err := runOne(&workloads[i], o, time.Now())
			if err != nil {
				return fmt.Errorf("%s: %w", workloads[i].name, err)
			}
			printResult(w, res)
			if !res.Correct {
				return fmt.Errorf("%s: checks failed: %v", res.Workload, res.Notes)
			}
			for _, def := range passMetrics(trace) {
				if _, ok := res.Metrics[def.name]; !ok {
					return fmt.Errorf("%s: metric %s was not reported", res.Workload, def.name)
				}
			}
			all.Results = append(all.Results, res)
		}
	}
	path := filepath.Join(o.outDir, "results-quick.json")
	if err := writeJSON(path, all); err != nil {
		return err
	}
	ok, err := compareFiles(w, path, path)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("a run compared against itself did not pass")
	}
	return nil
}

package main

import (
	"io"
	"path/filepath"
	"testing"
)

// runsOf builds untraced results of one workload from metric value
// lists.
func runsOf(workload string, values map[string][]float64) []*result {
	var out []*result
	for name, xs := range values {
		for i, x := range xs {
			if i == len(out) {
				out = append(out, &result{Workload: workload, Kernels: "test", Metrics: map[string]metric{}})
			}
			out[i].Metrics[name] = metric{Value: x}
		}
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	base := &resultFile{runsOf("node_dense", map[string][]float64{
		"throughput_rps":      {1000, 1010, 990, 1005, 995},
		"peak_rss_mib":        {500, 500, 510, 490, 500},
		"train_samples_per_s": {1e5, 3e5, 1.2e5, 2.8e5, 2e5}, // its own spread exceeds the 25% bound
	})}
	cand := &resultFile{runsOf("node_dense", map[string][]float64{
		"throughput_rps":      {700, 705, 695}, // 30% lower: worse than the 25% bound
		"peak_rss_mib":        {525, 525, 525}, // 5% higher: inside the 10% bound
		"train_samples_per_s": {1e5, 1e5, 1e5},
	})}
	rows, err := compareResults(base, cand)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, r := range rows {
		got[r.metric] = r.verdict
	}
	want := map[string]string{"throughput_rps": verdictFail, "peak_rss_mib": verdictPass, "train_samples_per_s": verdictUnresolved}
	for m, v := range want {
		if got[m] != v {
			t.Errorf("%s: verdict %s, want %s", m, got[m], v)
		}
	}
	if len(rows) != len(want) {
		t.Errorf("%d rows, want %d", len(rows), len(want))
	}
	// an improvement never fails, whichever way the metric points
	better := &resultFile{runsOf("node_dense", map[string][]float64{"throughput_rps": {2000}, "peak_rss_mib": {100}})}
	rows, err = compareResults(base, better)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.verdict != verdictPass || r.worse >= 0 {
			t.Errorf("%s: verdict %s, worse %+.2f for an improvement", r.metric, r.verdict, r.worse)
		}
	}
}

func TestCompareRefusesAcrossKernelArms(t *testing.T) {
	a := &resultFile{runsOf("node_dense", map[string][]float64{"setup_s": {2}})}
	b := &resultFile{runsOf("node_dense", map[string][]float64{"setup_s": {2}})}
	b.Results[0].Kernels = "generic"
	if _, err := compareResults(a, b); err == nil {
		t.Error("results from different kernel arms were compared")
	}
}

func TestCompareFilesExitStatus(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, tput float64) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, resultFile{runsOf("train_tf", map[string][]float64{"throughput_rps": {tput}})}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := write("a.json", 1000), write("b.json", 700)
	if ok, err := compareFiles(io.Discard, a, a); err != nil || !ok {
		t.Errorf("a file against itself: ok=%v err=%v", ok, err)
	}
	if ok, err := compareFiles(io.Discard, a, b); err != nil || ok {
		t.Errorf("a 30%% throughput loss passed: ok=%v err=%v", ok, err)
	}
}

package experiments

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// The experiment tests are the reproduction assertions: at tiny scale,
// with fixed seeds and deterministic serial training, each figure's
// qualitative claim must hold. Absolute numbers differ from the paper
// (synthetic substrate); orderings must not.

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"tiny", "small", "medium", "paper"} {
		sc, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sc.Name != name {
			t.Fatalf("name mismatch: %s vs %s", sc.Name, name)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("expected error for unknown scale")
	}
}

func TestBuildWorkload(t *testing.T) {
	w, err := BuildWorkload(Tiny(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if w.Tree.Depth() != 4 {
		t.Fatalf("depth = %d, want 4 (three category levels)", w.Tree.Depth())
	}
	if w.MaxU() != 4 {
		t.Fatalf("MaxU = %d, want 4", w.MaxU())
	}
	if w.History.NumPurchases() == 0 || w.Split.Test.NumPurchases() == 0 {
		t.Fatal("workload has empty sides")
	}
}

func TestFig5(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunFig5(&buf, Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.AvgPurchasesPerUser <= 0 {
		t.Fatal("no purchases recorded")
	}
	if res.Stats.DistinctItemsPerUser.Total() != res.Users {
		t.Fatal("histogram total mismatch")
	}
	if !strings.Contains(buf.String(), "Figure 5") {
		t.Fatal("missing table header")
	}
}

func TestFig6TFBeatsMF(t *testing.T) {
	res, err := RunFig6(nil, Tiny())
	if err != nil {
		t.Fatal(err)
	}
	mfBest, _, tfBest, _ := res.BestAUC()
	if tfBest <= mfBest {
		t.Fatalf("Fig6a shape violated: TF best AUC %.4f <= MF best %.4f", tfBest, mfBest)
	}
	// Fig 6b: TF's mean rank should be substantially better (lower)
	for i := range res.Factors {
		if res.TF[i].MeanRank >= res.MF[i].MeanRank {
			t.Fatalf("Fig6b shape violated at K=%d: TF rank %.1f >= MF rank %.1f",
				res.Factors[i], res.TF[i].MeanRank, res.MF[i].MeanRank)
		}
	}
	// Fig 6c/6d: category-level metrics exist and are strong
	for i := range res.Factors {
		if res.TF[i].CatAUC < res.TF[i].AUC-0.05 {
			t.Fatalf("Fig6c: category AUC %.4f unexpectedly below product AUC %.4f",
				res.TF[i].CatAUC, res.TF[i].AUC)
		}
		if res.TF[i].CatMeanRank <= 0 {
			t.Fatal("Fig6d: category mean rank missing")
		}
	}
}

func TestFig6eTFBeatsFPMC(t *testing.T) {
	res, err := RunFig6e(nil, Tiny())
	if err != nil {
		t.Fatal(err)
	}
	mfBest, _, tfBest, _ := res.BestAUC()
	if tfBest <= mfBest {
		t.Fatalf("Fig6e shape violated: TF(4,1) best %.4f <= FPMC best %.4f", tfBest, mfBest)
	}
}

func TestFig7aMoreLevelsHelp(t *testing.T) {
	res, err := RunFig7a(nil, Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AUC) != 4 {
		t.Fatalf("expected 4 systems, got %d", len(res.AUC))
	}
	first, last := res.AUC[0], res.AUC[len(res.AUC)-1]
	if last <= first {
		t.Fatalf("Fig7a shape violated: TF(4,0) %.4f <= MF(0) %.4f", last, first)
	}
}

func TestFig7bSparsityGap(t *testing.T) {
	res, err := RunFig7b(nil, Tiny())
	if err != nil {
		t.Fatal(err)
	}
	gaps := res.Gap()
	for i, g := range gaps {
		if g <= 0 {
			t.Fatalf("TF must beat MF at every mu; gap[%d] = %v", i, g)
		}
	}
	// the benefit must be largest on the sparsest split
	if gaps[0] <= gaps[len(gaps)-1] {
		t.Fatalf("Fig7b shape violated: sparse gap %.4f <= dense gap %.4f", gaps[0], gaps[len(gaps)-1])
	}
}

func TestFig7cColdStart(t *testing.T) {
	res, err := RunFig7c(nil, Tiny())
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range res.Factors {
		if res.ColdCount[i] == 0 {
			t.Fatalf("K=%d: no cold positives; the experiment is vacuous", k)
		}
		if res.TFCold[i] <= res.MFCold[i] {
			t.Fatalf("Fig7c shape violated at K=%d: TF cold %.4f <= MF cold %.4f",
				k, res.TFCold[i], res.MFCold[i])
		}
	}
}

func TestFig7dSiblingHelps(t *testing.T) {
	res, err := RunFig7d(nil, Tiny())
	if err != nil {
		t.Fatal(err)
	}
	var withSum, withoutSum float64
	for i := range res.Factors {
		withSum += res.WithSib[i]
		withoutSum += res.WithoutSib[i]
	}
	if withSum <= withoutSum {
		t.Fatalf("Fig7d shape violated: sibling mean %.4f <= no-sibling %.4f",
			withSum/float64(len(res.Factors)), withoutSum/float64(len(res.Factors)))
	}
}

func TestFig7eFactorsCluster(t *testing.T) {
	res, err := RunFig7e(nil, Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.RawStats.Ratio() >= 1 {
		t.Fatalf("factor space not clustered by taxonomy: ratio %.3f", res.RawStats.Ratio())
	}
	if res.Embedding.Rows() != len(res.Nodes) {
		t.Fatal("embedding row count mismatch")
	}
	if res.Method != "tsne" {
		t.Fatalf("tiny scale should use t-SNE, got %s", res.Method)
	}
}

func TestFig7fMarkovOrderHelps(t *testing.T) {
	res, err := RunFig7f(nil, Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AUC) != 4 {
		t.Fatalf("want orders 0..3, got %v", res.Orders)
	}
	if res.AUC[1] <= res.AUC[0] {
		t.Fatalf("Fig7f shape violated: TF(4,1) %.4f <= TF(4,0) %.4f", res.AUC[1], res.AUC[0])
	}
	best := res.AUC[0]
	for _, a := range res.AUC[1:] {
		if a > best {
			best = a
		}
	}
	if best != max3(res.AUC[1], res.AUC[2], res.AUC[3]) {
		t.Fatal("higher orders should hold the best AUC")
	}
}

func max3(a, b, c float64) float64 {
	m := a
	if b > m {
		m = b
	}
	if c > m {
		m = c
	}
	return m
}

func TestFig8abRunsAndMeasures(t *testing.T) {
	res, err := RunFig8ab(nil, Tiny(), []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Systems) != 2 {
		t.Fatalf("want 2 systems, got %v", res.Systems)
	}
	for s := range res.Systems {
		if len(res.EpochTime[s]) != 3 {
			t.Fatal("missing measurements")
		}
		for _, d := range res.EpochTime[s] {
			if d <= 0 {
				t.Fatal("non-positive epoch time")
			}
		}
		if res.Speedup[s][0] != 1 {
			t.Fatalf("speedup at 1 thread must be 1, got %v", res.Speedup[s][0])
		}
	}
}

// Fig. 8b's claim: more workers train an epoch faster. The round engine
// at one worker is the baseline, so the ratio measures parallelism, not
// the serial path's lower overhead.
func TestFig8bParallelBeatsOneWorker(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector serialises memory accesses; timings under it say nothing about scaling")
	}
	if runtime.NumCPU() < 2 {
		t.Skip("one CPU: two workers cannot run at once")
	}
	// other packages' tests may hold a core for a while; the best of a
	// few attempts is the machine's capability, not its momentary load
	best := 0.0
	for attempt := 0; attempt < 3 && best < 1.1; attempt++ {
		res, err := RunFig8ab(nil, Tiny(), []int{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		best = max(best, res.Speedup[1][1])
	}
	if best < 1.1 {
		t.Fatalf("TF speedup at 2 workers = %.2f, want >= 1.1", best)
	}
}

func TestFig8cTradeoffShape(t *testing.T) {
	res, err := RunFig8c(nil, Tiny())
	if err != nil {
		t.Fatal(err)
	}
	last := len(res.KeepPct) - 1
	if res.KeepPct[last] != 100 {
		t.Fatal("sweep must end at 100%")
	}
	// at 100% the cascade is exact
	if res.AccRatio[last] < 0.999 || res.AccRatio[last] > 1.001 {
		t.Fatalf("accuracy ratio at k=100%% is %.4f, want 1", res.AccRatio[last])
	}
	// pruning must reduce accuracy at the smallest keep
	if res.AccRatio[0] >= res.AccRatio[last] {
		t.Fatalf("no trade-off visible: %.4f at 5%% vs %.4f at 100%%", res.AccRatio[0], res.AccRatio[last])
	}
}

func TestFig8dMonotoneAccuracy(t *testing.T) {
	res, err := RunFig8d(nil, Tiny())
	if err != nil {
		t.Fatal(err)
	}
	// Holding upper levels at 100%, accuracy grows with k3: candidates are
	// only added. The PrunedAUC convention allows a newly admitted
	// negative to overtake an already-ranked positive, so tolerate tiny
	// dips (the paper's own Figure 8(c) curve is non-monotone; 8(d) is
	// monotone up to measurement noise).
	const tol = 0.01
	for i := 1; i < len(res.AccRatio); i++ {
		if res.AccRatio[i] < res.AccRatio[i-1]-tol {
			t.Fatalf("Fig8d monotonicity violated at %d%%: %.4f -> %.4f",
				res.KeepPct[i], res.AccRatio[i-1], res.AccRatio[i])
		}
	}
	if res.AccRatio[len(res.AccRatio)-1] < 0.999 {
		t.Fatal("k3=100% must recover naive accuracy")
	}
	// and it must rise substantially overall
	if res.AccRatio[0] > res.AccRatio[len(res.AccRatio)-1]-0.2 {
		t.Fatalf("no growth across the sweep: %.4f -> %.4f", res.AccRatio[0], res.AccRatio[len(res.AccRatio)-1])
	}
}

func TestRegistryCoversAllFigures(t *testing.T) {
	ids := FigureIDs()
	want := []string{"5", "6ad", "6e", "7a", "7b", "7c", "7d", "7e", "7f", "8ab", "8c", "8d"}
	if len(ids) != len(want) {
		t.Fatalf("registry has %d figures, want %d: %v", len(ids), len(want), ids)
	}
	reg := Registry()
	for _, id := range want {
		if reg[id] == nil {
			t.Fatalf("missing figure %s", id)
		}
	}
}

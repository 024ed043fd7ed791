package eval

import (
	"repro/internal/infer"
	"repro/internal/model"
	"testing"
)

func TestEvaluateTopKPerfectAndEmpty(t *testing.T) {
	c, hist, test := buildTrainedWorld(t)
	res, err := EvaluateTopK(c, hist, test, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Users == 0 {
		t.Fatal("no users evaluated")
	}
	if res.Precision < 0 || res.Precision > 1 || res.Recall < 0 || res.Recall > 1 || res.HitRate < 0 || res.HitRate > 1 {
		t.Fatalf("metrics out of [0,1]: %+v", res)
	}
	// the trained world is easy: some hits must land
	if res.HitRate == 0 {
		t.Fatal("trained model should hit at least occasionally in top-10")
	}
	if _, err := EvaluateTopK(c, hist, test, 0); err == nil {
		t.Fatal("expected error for k=0")
	}
}

func TestEvaluateTopKMonotoneInK(t *testing.T) {
	c, hist, test := buildTrainedWorld(t)
	small, err := EvaluateTopK(c, hist, test, 5)
	if err != nil {
		t.Fatal(err)
	}
	big, err := EvaluateTopK(c, hist, test, 50)
	if err != nil {
		t.Fatal(err)
	}
	if big.Recall < small.Recall {
		t.Fatalf("recall must grow with k: %v -> %v", small.Recall, big.Recall)
	}
	if big.HitRate < small.HitRate {
		t.Fatalf("hit rate must grow with k: %v -> %v", small.HitRate, big.HitRate)
	}
}

func TestEvaluateTopKWorkersMatchesSerial(t *testing.T) {
	c, hist, test := buildTrainedWorld(t)
	want, err := EvaluateTopK(c, hist, test, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 7} {
		got, err := EvaluateTopKWorkers(c, hist, test, 10, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got.Users != want.Users || got.K != want.K {
			t.Fatalf("workers=%d: users/k mismatch: %+v vs %+v", workers, got, want)
		}
		// per-user contributions are identical; only the float reduction
		// order differs across worker counts
		const tol = 1e-12
		if diffAbs(got.Precision, want.Precision) > tol || diffAbs(got.Recall, want.Recall) > tol ||
			diffAbs(got.HitRate, want.HitRate) > tol || diffAbs(got.NDCG, want.NDCG) > tol {
			t.Fatalf("workers=%d: metrics diverged: %+v vs %+v", workers, got, want)
		}
	}
}

// Pruned retrieval is ranking-identical to the dense sweep, so every
// metric must match EXACTLY (same per-user pages, same reduction order).
func TestEvaluateTopKPlanPrunedMatchesDense(t *testing.T) {
	c, hist, test := buildTrainedWorld(t)
	for _, prec := range []model.Precision{model.PrecisionF64, model.PrecisionInt8} {
		dense := infer.Plan{K: 10, Precision: prec, MaxWorkers: 1}
		pruned := dense
		pruned.Pruned = true
		want, err := EvaluateTopKPlan(c, hist, test, 3, dense)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EvaluateTopKPlan(c, hist, test, 3, pruned)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("prec %v: pruned metrics diverged: %+v vs %+v", prec, got, want)
		}
	}
	if _, err := EvaluateTopKPlan(c, hist, test, 1, infer.Plan{}); err == nil {
		t.Fatal("expected error for k=0 plan")
	}
}

func diffAbs(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

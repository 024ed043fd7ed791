package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/infer"
)

// Pruned requests must return byte-identical pages to dense requests —
// per request, as the server default, and across precision overrides.
func TestPrunedRequestsMatchDense(t *testing.T) {
	m, _ := trainedModel(t)
	s := New(m, WithWorkers(4))
	defer s.Close()
	base := Request{User: 3, K: 7, Offset: 2, Recent: nil}
	want, err := s.Recommend(base)
	if err != nil {
		t.Fatal(err)
	}
	req := base
	req.Pruned = true
	got, err := s.Recommend(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("pruned: %d items, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pruned rank %d: %+v vs %+v", i, got[i], want[i])
		}
	}

	// server-level default: same page, no per-request flag
	sp := New(m, WithPruned(true))
	got, err = sp.Recommend(base)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("server default rank %d: %+v vs %+v", i, got[i], want[i])
		}
	}

	// the knob is ignored (not rejected) on taxonomy-walking strategies
	req.MaxPerCategory = 2
	if _, err := s.Recommend(req); err != nil {
		t.Fatalf("pruned+diversified should ignore the knob, got %v", err)
	}
}

// The wire surfaces: the "pruned" JSON field and ?pruned= parameter both
// reach the plan, bad values are 400s, and /v1/stats reports the counters.
func TestHTTPPruned(t *testing.T) {
	m, _ := trainedModel(t)
	h := NewHTTP(New(m), nil)
	ts := httptest.NewServer(h.Handler())
	defer ts.Close()

	want, err := h.srv.Recommend(Request{User: 3, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	before := infer.PruneCounters()
	for _, url := range []string{
		ts.URL + "/v1/recommend",
		ts.URL + "/v1/recommend?pruned=true",
	} {
		body := `{"user":3,"k":5}`
		if url == ts.URL+"/v1/recommend" {
			body = `{"user":3,"k":5,"pruned":true}`
		}
		resp, out := postJSON(t, ts.Client(), url, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", url, resp.StatusCode)
		}
		for i := range want {
			if out.Items[i].Item != want[i].ID || out.Items[i].Score != want[i].Score {
				t.Fatalf("%s rank %d: %+v vs %+v", url, i, out.Items[i], want[i])
			}
		}
	}
	if after := infer.PruneCounters(); after.BoundEvals <= before.BoundEvals {
		t.Fatal("pruned requests evaluated no bounds")
	}

	if resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/recommend?pruned=maybe", `{"user":3,"k":5}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad pruned parameter: status %d", resp.StatusCode)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Inference.Pruning.BoundEvals <= 0 {
		t.Fatal("stats report no bound evaluations after pruned traffic")
	}
	if stats.Inference.Pruning.Default {
		t.Fatal("stats report a pruned default on a dense-default server")
	}
}

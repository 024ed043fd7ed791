package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/infer"
	"repro/internal/model"
)

// Served pages are the exact f64 pages of the category sweep — pooled
// and serial servers alike, paged and diversified — so they must equal
// the dense f64 sweep's.
func TestPrunedRequestsMatchDense(t *testing.T) {
	m, _ := trainedModel(t)
	c := m.Compose()
	q := make([]float64, c.K())
	for _, s := range []*Server{New(m, WithWorkers(4)), New(m)} {
		for _, req := range []Request{{User: 3, K: 7, Offset: 2}, {User: 5, K: 4, MaxPerCategory: 1}} {
			got, err := s.Recommend(req)
			if err != nil {
				t.Fatal(err)
			}
			c.BuildQueryInto(req.User, nil, q)
			pl := infer.Plan{K: req.K, Offset: req.Offset, Precision: model.PrecisionF64, MaxWorkers: 1}
			if req.MaxPerCategory > 0 {
				pl.Strategy, pl.Diversify = infer.StrategyDiversified, &infer.Diversify{MaxPerCategory: req.MaxPerCategory}
			}
			want, err := infer.Execute(context.Background(), c, q, pl)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want.Items) {
				t.Fatalf("%+v: %d items, want %d", req, len(got), len(want.Items))
			}
			for i, w := range want.Items {
				if got[i].ID != w.ID || got[i].Score != w.Score {
					t.Fatalf("%+v rank %d: %+v vs %+v", req, i, got[i], w)
				}
			}
		}
		s.Close()
	}
}

// The wire surfaces: the "pruned" JSON field and ?pruned= parameter are
// validated and ignored (bad values are 400s), and /v1/stats reports the
// category sweep counters.
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
		t.Fatal("stats report no bound evaluations after naive traffic")
	}
}

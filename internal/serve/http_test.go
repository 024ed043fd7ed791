package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/model"
	"repro/internal/vecmath"
)

func postJSON(t *testing.T, client *http.Client, url, body string) (*http.Response, api.RecommendResponse) {
	t.Helper()
	resp, err := client.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out api.RecommendResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func TestHTTPEndpoints(t *testing.T) {
	m, data := trainedModel(t)
	s := New(m)
	h := NewHTTP(s, nil)
	ts := httptest.NewServer(h.Handler())
	defer ts.Close()

	// user recommendations match the in-process path
	resp, out := postJSON(t, ts.Client(), ts.URL+"/v1/recommend", `{"user":3,"k":5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("user: status %d", resp.StatusCode)
	}
	want, err := s.Recommend(Request{User: 3, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != 5 {
		t.Fatalf("user: got %d items", len(out.Items))
	}
	for i := range want {
		if out.Items[i].Item != want[i].ID || out.Items[i].Score != want[i].Score {
			t.Fatalf("user rank %d: %+v vs %+v", i, out.Items[i], want[i])
		}
	}

	// recent baskets round-trip through JSON
	recent, _ := json.Marshal(data.Users[3].Baskets)
	resp, out = postJSON(t, ts.Client(), ts.URL+"/v1/recommend",
		fmt.Sprintf(`{"user":3,"recent":%s,"k":4}`, recent))
	if resp.StatusCode != http.StatusOK || len(out.Items) != 4 {
		t.Fatalf("user+recent: status %d items %d", resp.StatusCode, len(out.Items))
	}

	// user -1 is a session request, ranked on the recent baskets alone
	resp, out = postJSON(t, ts.Client(), ts.URL+"/v1/recommend", `{"user":-1,"recent":[[7]],"k":5}`)
	if resp.StatusCode != http.StatusOK || len(out.Items) != 5 {
		t.Fatalf("session: status %d items %d", resp.StatusCode, len(out.Items))
	}

	// full-keep cascade equals the naive user ranking
	resp, out = postJSON(t, ts.Client(), ts.URL+"/v1/recommend", `{"user":3,"k":5,"strategy":"cascade","keep":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cascade: status %d", resp.StatusCode)
	}
	for i := range want {
		if out.Items[i].Item != want[i].ID {
			t.Fatalf("cascade rank %d: %d vs %d", i, out.Items[i].Item, want[i].ID)
		}
	}

	// diversified respects the quota
	resp, out = postJSON(t, ts.Client(), ts.URL+"/v1/recommend", `{"user":3,"k":5,"strategy":"diversified","max_per_category":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diversified: status %d", resp.StatusCode)
	}
	seen := map[int]bool{}
	for _, it := range out.Items {
		cat := m.Tree.AncestorAtDepth(m.Tree.ItemNode(it.Item), m.Tree.Depth()-1)
		if seen[cat] {
			t.Fatal("diversified repeated a category")
		}
		seen[cat] = true
	}
}

// The per-shape routes retired in favour of POST /v1/recommend answer the
// same typed 404 envelope as any unknown path, and count nowhere.
func TestHTTPRetiredRoutesNotFound(t *testing.T) {
	m, _ := trainedModel(t)
	h := NewHTTP(New(m), nil)
	ts := httptest.NewServer(h.Handler())
	defer ts.Close()

	for _, shape := range []string{"user", "session", "cascade", "diversified"} {
		resp, err := ts.Client().Post(ts.URL+"/v1/recommend/"+shape, "application/json",
			bytes.NewReader([]byte(`{"user":3,"k":5}`)))
		if err != nil {
			t.Fatal(err)
		}
		var eb api.ErrorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusNotFound || eb.Err.Code != api.CodeNotFound {
			t.Fatalf("%s: status %d, envelope %+v (%v), want 404 not_found", shape, resp.StatusCode, eb, err)
		}
	}
	if h.plans.Load() != 0 || h.errors.Load() != 0 {
		t.Fatalf("retired routes moved the counters: plan %d, errors %d", h.plans.Load(), h.errors.Load())
	}
}

func TestHTTPErrors(t *testing.T) {
	m, _ := trainedModel(t)
	h := NewHTTP(New(m), nil)
	ts := httptest.NewServer(h.Handler())
	defer ts.Close()

	for name, probe := range map[string]struct{ path, body string }{
		"bad json":       {"/v1/recommend", `{"user":`},
		"bad user":       {"/v1/recommend", `{"user":99999,"k":5}`},
		"zero k":         {"/v1/recommend", `{"user":1}`},
		"cascade nokeep": {"/v1/recommend", `{"user":1,"k":5,"strategy":"cascade"}`},
		"div noquota":    {"/v1/recommend", `{"user":1,"k":5,"strategy":"diversified"}`},
	} {
		resp, _ := postJSON(t, ts.Client(), ts.URL+probe.path, probe.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	var st statsResponse
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Served.Errors != 5 {
		t.Fatalf("errors counter = %d, want 5", st.Served.Errors)
	}
}

func TestHTTPStats(t *testing.T) {
	m, _ := trainedModel(t)
	h := NewHTTP(New(m), nil)
	ts := httptest.NewServer(h.Handler())
	defer ts.Close()

	postJSON(t, ts.Client(), ts.URL+"/v1/recommend", `{"user":1,"k":3}`)
	postJSON(t, ts.Client(), ts.URL+"/v1/recommend", `{"user":-1,"recent":[[2]],"k":3}`)

	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Model.Items != m.Tree.NumItems() || st.Model.K != m.P.K || st.Model.Depth != m.Tree.Depth() {
		t.Fatalf("stats model block wrong: %+v", st.Model)
	}
	if st.Served.Plan != 2 {
		t.Fatalf("stats counters wrong: %+v", st.Served)
	}
	// the kernels section must mirror the process-wide vecmath dispatch
	ks := vecmath.Kernels()
	if st.Inference.Kernels.Arch != ks.Arch {
		t.Fatalf("stats kernels arch = %q, want %q", st.Inference.Kernels.Arch, ks.Arch)
	}
	if len(st.Inference.Kernels.Ops) == 0 {
		t.Fatalf("stats kernels ops missing: %+v", st.Inference.Kernels)
	}
	for op, impl := range ks.Ops {
		if st.Inference.Kernels.Ops[op] != impl {
			t.Fatalf("stats kernels op %s = %q, want %q", op, st.Inference.Kernels.Ops[op], impl)
		}
	}

	if resp, err := ts.Client().Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
}

// TestHTTPHotSwap hammers the service with requests while the model is
// hot-swapped via Reload: no request may fail or observe a torn snapshot.
func TestHTTPHotSwap(t *testing.T) {
	m, data := trainedModel(t)
	s := New(m)
	reloaded := 0
	h := NewHTTP(s, func() (*model.TF, error) {
		reloaded++
		return m, nil
	})
	ts := httptest.NewServer(h.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body := fmt.Sprintf(`{"user":%d,"k":3}`, (w*13+i)%data.NumUsers())
				resp, err := ts.Client().Post(ts.URL+"/v1/recommend", "application/json", bytes.NewReader([]byte(body)))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("in-flight request failed during hot swap: %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 10; i++ {
		if err := h.Reload(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if reloaded != 10 || h.reloads.Load() != 10 {
		t.Fatalf("reloads = %d / counter %d, want 10", reloaded, h.reloads.Load())
	}

	// a reload source failure must not disturb the serving snapshot
	h2 := NewHTTP(s, func() (*model.TF, error) { return nil, fmt.Errorf("boom") })
	if err := h2.Reload(); err == nil {
		t.Fatal("expected reload error")
	}
	if _, err := s.Recommend(Request{User: 0, K: 3}); err != nil {
		t.Fatal(err)
	}
}

// The ?workers= knob and a batching-enabled server must serve the same
// rankings as the plain serial HTTP path.
func TestHTTPWorkersKnobAndBatching(t *testing.T) {
	m, _ := trainedModel(t)
	serial := New(m)
	s := New(m, WithWorkers(3))
	defer s.Close()
	h := NewHTTP(s, nil)
	h.EnableBatching(4, time.Millisecond)
	ts := httptest.NewServer(h.Handler())
	defer ts.Close()

	want, err := serial.Recommend(Request{User: 3, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{"", "?workers=0", "?workers=1", "?workers=2"} {
		resp, out := postJSON(t, ts.Client(), ts.URL+"/v1/recommend"+suffix, `{"user":3,"k":5}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q: status %d", suffix, resp.StatusCode)
		}
		if len(out.Items) != len(want) {
			t.Fatalf("%q: got %d items, want %d", suffix, len(out.Items), len(want))
		}
		for i := range want {
			if out.Items[i].Item != want[i].ID || out.Items[i].Score != want[i].Score {
				t.Fatalf("%q: item %d = %+v, want %+v", suffix, i, out.Items[i], want[i])
			}
		}
	}
	// cascaded requests bypass the batcher but honor the pool
	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/recommend?workers=2", `{"user":3,"k":5,"strategy":"cascade","keep":0.6}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cascade with workers: status %d", resp.StatusCode)
	}
	// malformed knob is a client error
	resp, _ = postJSON(t, ts.Client(), ts.URL+"/v1/recommend?workers=lots", `{"user":3,"k":5}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad workers value: status %d, want 400", resp.StatusCode)
	}
	// stats reflect the inference configuration
	st, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(st.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Inference.PoolWorkers != 3 || !stats.Inference.Batching {
		t.Fatalf("stats.Inference = %+v, want 3 workers with batching", stats.Inference)
	}
	if stats.Inference.Batches == 0 || stats.Inference.BatchedReqs == 0 {
		t.Fatalf("batching counters never moved: %+v", stats.Inference)
	}
}

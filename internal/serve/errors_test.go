package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/model"
)

// Every client mistake must come back as a clean 4xx JSON error — and the
// body-size limit as 413 — never as a hung connection or a 500.
func TestHTTPErrorPaths(t *testing.T) {
	m, _ := trainedModel(t)
	s := New(m)
	h := NewHTTP(s, nil)
	h.SetMaxBodyBytes(256)
	ts := httptest.NewServer(h.Handler())
	defer ts.Close()

	errBody := func(t *testing.T, resp *http.Response) string {
		t.Helper()
		defer resp.Body.Close()
		var e api.ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("error response is not JSON: %v", err)
		}
		if e.Err.Code == "" || e.Err.Message == "" {
			t.Fatalf("error envelope incomplete: %+v", e)
		}
		// the typed code must agree with the HTTP status it was served under
		if got := e.Err.Code.Status(); got != resp.StatusCode {
			t.Fatalf("code %s maps to %d but the response status is %d", e.Err.Code, got, resp.StatusCode)
		}
		return e.Err.Message
	}

	t.Run("malformed JSON", func(t *testing.T) {
		resp, err := ts.Client().Post(ts.URL+"/v1/recommend", "application/json",
			strings.NewReader(`{"user": 3, "k": `))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		errBody(t, resp)
	})

	t.Run("unknown user", func(t *testing.T) {
		resp, err := ts.Client().Post(ts.URL+"/v1/recommend", "application/json",
			strings.NewReader(`{"user": 99999, "k": 5}`))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		if msg := errBody(t, resp); !strings.Contains(msg, "out of range") {
			t.Fatalf("unhelpful error: %q", msg)
		}
	})

	t.Run("oversize body gets 413", func(t *testing.T) {
		big := `{"user":3,"k":5,"recent":[[` + strings.Repeat("1,", 400) + `1]]}`
		resp, err := ts.Client().Post(ts.URL+"/v1/recommend", "application/json",
			strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413", resp.StatusCode)
		}
		if msg := errBody(t, resp); !strings.Contains(msg, "exceeds") {
			t.Fatalf("unhelpful error: %q", msg)
		}
	})

	t.Run("bad workers parameter", func(t *testing.T) {
		for _, ws := range []string{"abc", "-1", "1.5"} {
			resp, err := ts.Client().Post(ts.URL+"/v1/recommend?workers="+ws,
				"application/json", strings.NewReader(`{"user":3,"k":5}`))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("workers=%s: status %d, want 400", ws, resp.StatusCode)
			}
			errBody(t, resp)
		}
	})

	t.Run("bad precision parameter", func(t *testing.T) {
		for _, ps := range []string{"f16", "float64", "exact"} {
			resp, err := ts.Client().Post(ts.URL+"/v1/recommend?precision="+ps,
				"application/json", strings.NewReader(`{"user":3,"k":5}`))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("precision=%s: status %d, want 400", ps, resp.StatusCode)
			}
			if msg := errBody(t, resp); !strings.Contains(msg, "precision") {
				t.Fatalf("unhelpful error: %q", msg)
			}
		}
	})
}

// Both explicit precisions must serve identical rankings over HTTP, and
// /v1/stats must surface the resolved default and the escalation counter.
func TestHTTPPrecisionKnob(t *testing.T) {
	m, _ := trainedModel(t)
	s := New(m)
	h := NewHTTP(s, nil)
	ts := httptest.NewServer(h.Handler())
	defer ts.Close()

	resp32, out32 := postJSON(t, ts.Client(), ts.URL+"/v1/recommend?precision=f32", `{"user":3,"k":8}`)
	resp64, out64 := postJSON(t, ts.Client(), ts.URL+"/v1/recommend?precision=f64", `{"user":3,"k":8}`)
	respI8, outI8 := postJSON(t, ts.Client(), ts.URL+"/v1/recommend?precision=int8", `{"user":3,"k":8}`)
	if resp32.StatusCode != http.StatusOK || resp64.StatusCode != http.StatusOK || respI8.StatusCode != http.StatusOK {
		t.Fatalf("statuses %d/%d/%d", resp32.StatusCode, resp64.StatusCode, respI8.StatusCode)
	}
	if !reflect.DeepEqual(out32, out64) {
		t.Fatalf("precision changed the ranking:\nf32 %+v\nf64 %+v", out32, out64)
	}
	if !reflect.DeepEqual(outI8, out64) {
		t.Fatalf("int8 precision changed the ranking:\nint8 %+v\nf64 %+v", outI8, out64)
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
	if stats.Inference.Precision != "f32" {
		t.Fatalf("stats precision %q, want f32 default", stats.Inference.Precision)
	}
	if stats.Inference.F32Escalations < 0 || stats.Inference.I8Escalations < 0 {
		t.Fatal("negative escalation counter")
	}
}

// The server-level precision option and the model-file preference must
// resolve in the documented order: request > server > snapshot > f32.
func TestPrecisionResolutionOrder(t *testing.T) {
	m, _ := trainedModel(t)
	m.Precision = model.PrecisionF64
	s := New(m)
	if got := s.Precision(); got != model.PrecisionF64 {
		t.Fatalf("snapshot preference ignored: %v", got)
	}
	s2 := New(m, WithPrecision(model.PrecisionF32))
	if got := s2.Precision(); got != model.PrecisionF32 {
		t.Fatalf("server option lost to snapshot: %v", got)
	}
	c := s2.snap.Load().c
	if got := s2.effectivePrecision(c, Request{Precision: model.PrecisionF64}); got != model.PrecisionF64 {
		t.Fatalf("request override lost: %v", got)
	}
}

// A caller abandoning a coalesced request mid-batch must unblock with the
// context error while the rest of the batch completes normally.
func TestBatcherCancelledMidBatch(t *testing.T) {
	m, _ := trainedModel(t)
	s := New(m, WithWorkers(2))
	defer s.Close()
	// a long window so the batch only cuts via the size trigger we control
	b := NewBatcher(s, 3, time.Hour)

	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	go func() {
		_, err := b.RecommendContext(ctx, Request{User: 1, K: 5})
		cancelled <- err
	}()
	// wait until the request is queued in the pending batch, then abandon it
	for {
		b.mu.Lock()
		queued := b.cur != nil && len(b.cur.reqs) == 1
		b.mu.Unlock()
		if queued {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-cancelled; err != context.Canceled {
		t.Fatalf("cancelled caller got %v, want context.Canceled", err)
	}

	// two more requests hit the size trigger; they must still be answered,
	// and the abandoned slot must have been computed and discarded
	want, err := s.Recommend(Request{User: 2, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan Response, 2)
	for i := 0; i < 2; i++ {
		go func() {
			items, err := b.Recommend(Request{User: 2, K: 5})
			results <- Response{Items: items, Err: err}
		}()
	}
	for i := 0; i < 2; i++ {
		r := <-results
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if !reflect.DeepEqual(want, r.Items) {
			t.Fatalf("batch member diverged: %v vs %v", r.Items, want)
		}
	}
	if batches, coalesced := b.Stats(); batches != 1 || coalesced != 3 {
		t.Fatalf("stats %d batches / %d coalesced, want 1/3", batches, coalesced)
	}
}

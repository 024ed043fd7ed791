package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/api"
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

// A panic while executing a request must answer 500 with the internal
// envelope, count in /v1/stats (served.panics and errors), and leave the
// server answering the next request normally.
func TestHTTPPanicAnswersInternal(t *testing.T) {
	m, _ := trainedModel(t)
	var fault atomic.Bool
	execHook = func() {
		if fault.Load() {
			panic("injected fault")
		}
	}
	defer func() { execHook = nil }()
	s := New(m, WithWorkers(2))
	defer s.Close()
	h := NewHTTP(s, nil)
	ts := httptest.NewServer(h.Handler())
	defer ts.Close()

	fault.Store(true)
	resp, err := ts.Client().Post(ts.URL+"/v1/recommend", "application/json", strings.NewReader(`{"user":3,"k":5}`))
	if err != nil {
		t.Fatal(err)
	}
	var eb api.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("panic response is not the JSON envelope: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || eb.Err.Code != api.CodeInternal {
		t.Fatalf("panic answered %d %q, want 500 internal", resp.StatusCode, eb.Err.Code)
	}

	fault.Store(false)
	if resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/recommend", `{"user":3,"k":5}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("request after a panic answered %d", resp.StatusCode)
	}
	sresp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if stats.Served.Panics != 1 || stats.Served.Errors != 1 || stats.Served.Plan != 1 {
		t.Fatalf("stats served %+v, want 1 panic, 1 error, 1 plan", stats.Served)
	}
}

// postRaw posts body and returns the status and the raw response bytes.
func postRaw(t *testing.T, client *http.Client, url, body string) (int, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

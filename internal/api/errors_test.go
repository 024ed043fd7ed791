package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// Recover turns a handler panic into the typed 500 internal envelope after
// reporting it, and re-raises net/http's deliberate abort untouched.
func TestRecoverAnswersInternal(t *testing.T) {
	var reported []any
	h := Recover(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}), func(r *http.Request, v any) { reported = append(reported, v) })
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/recommend", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var eb ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Err.Code != CodeInternal {
		t.Fatalf("body %q (%v), want the internal envelope", rec.Body.String(), err)
	}
	if len(reported) != 1 || reported[0] != "boom" {
		t.Fatalf("onPanic saw %v, want one boom", reported)
	}

	abort := Recover(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}), func(r *http.Request, v any) { t.Errorf("abort reported as a fault: %v", v) })
	defer func() {
		if v := recover(); v != http.ErrAbortHandler {
			t.Fatalf("re-raised %v, want http.ErrAbortHandler", v)
		}
	}()
	abort.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	t.Fatal("ErrAbortHandler was swallowed")
}

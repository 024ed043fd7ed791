package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
)

// The limiter itself: fast-path admission, bounded queueing, and both
// shed flavors — 429 when the queue is full, 503 when the wait expires.
func TestAdmissionLimiter(t *testing.T) {
	a := NewAdmission(1, 1, 5*time.Millisecond)
	ctx := context.Background()

	release, code := a.Acquire(ctx)
	if release == nil {
		t.Fatalf("first acquire shed with %s", code)
	}

	// slot held: a second caller queues, a third finds the queue full
	var wg sync.WaitGroup
	queued := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(queued)
		rel, st := a.Acquire(ctx)
		if rel == nil {
			t.Errorf("queued caller shed with %s", st)
			return
		}
		rel()
	}()
	<-queued
	// wait until the goroutine is actually parked in the queue
	for i := 0; a.queued.Load() == 0 && i < 1000; i++ {
		time.Sleep(100 * time.Microsecond)
	}
	if rel, st := a.Acquire(ctx); rel != nil || st != api.CodeQueueFull {
		t.Fatalf("queue-full acquire: release=%v code=%s, want queue_full", rel != nil, st)
	}
	release() // queued caller takes the slot
	wg.Wait()

	// hold the slot past the queue wait: the waiter sheds with 503
	release, _ = a.Acquire(ctx)
	if rel, st := a.Acquire(ctx); rel != nil || st != api.CodeOverloaded {
		t.Fatalf("wait-expiry acquire: release=%v code=%s, want overloaded", rel != nil, st)
	}

	// a client hanging up while queued sheds too, but lands in the
	// abandoned counter, not shed_wait_timeout (that one means "a slot
	// never freed in time", and client churn must not inflate it)
	gone, cancel := context.WithCancel(ctx)
	cancel()
	if rel, st := a.Acquire(gone); rel != nil || st != api.CodeOverloaded {
		t.Fatalf("cancelled-ctx acquire: release=%v code=%s, want overloaded", rel != nil, st)
	}
	// a deadline expiring while queued IS slot starvation
	expired, cancel2 := context.WithTimeout(ctx, time.Nanosecond)
	defer cancel2()
	time.Sleep(time.Millisecond)
	if rel, st := a.Acquire(expired); rel != nil || st != api.CodeOverloaded {
		t.Fatalf("expired-ctx acquire: release=%v code=%s, want overloaded", rel != nil, st)
	}
	release()

	st := a.Stats()
	if st.ShedQueueFull != 1 || st.ShedWait != 2 || st.QueueAborted != 1 || st.Inflight != 0 || st.Queued != 0 {
		t.Fatalf("unexpected admission stats: %+v", st)
	}
}

// The HTTP layer must shed with Retry-After while saturated and serve
// normally once the pressure is gone, without counting sheds as errors.
func TestHTTPAdmissionSheds(t *testing.T) {
	m, _ := trainedModel(t)
	s := New(m)
	h := NewHTTP(s, nil)
	h.SetAdmission(1, 0, time.Millisecond)
	ts := httptest.NewServer(h.Handler())
	defer ts.Close()

	// occupy the only slot directly, then hit the endpoint
	h.adm.slots <- struct{}{}
	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/recommend", `{"user":1,"k":3}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	<-h.adm.slots

	resp, out := postJSON(t, ts.Client(), ts.URL+"/v1/recommend", `{"user":1,"k":3}`)
	if resp.StatusCode != http.StatusOK || len(out.Items) != 3 {
		t.Fatalf("after release: status %d items %d", resp.StatusCode, len(out.Items))
	}
	if h.errors.Load() != 0 {
		t.Fatalf("sheds were counted as errors: %d", h.errors.Load())
	}
	if h.adm.Stats().ShedQueueFull != 1 {
		t.Fatalf("shed not counted: %+v", h.adm.Stats())
	}
	// /v1/stats itself must never be throttled
	h.adm.slots <- struct{}{}
	sr, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil || sr.StatusCode != http.StatusOK {
		t.Fatalf("stats throttled under saturation: %v %v", err, sr)
	}
	sr.Body.Close()
	<-h.adm.slots
}

// A per-request timeout firing mid-request answers 503 + Retry-After —
// never a partial ranking, never a 500 — and is counted in the deadline
// stat.
func TestHTTPTimeoutSheds(t *testing.T) {
	m, _ := trainedModel(t)
	s := New(m)
	h := NewHTTP(s, nil)
	h.SetTimeout(time.Nanosecond) // guaranteed to expire before the sweep
	ts := httptest.NewServer(h.Handler())
	defer ts.Close()

	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/recommend", `{"user":1,"k":3}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("timed-out request: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("deadline shed missing Retry-After")
	}
	if h.deadlines.Load() == 0 {
		t.Fatal("deadline shed not counted")
	}

	h.SetTimeout(10 * time.Second)
	resp, out := postJSON(t, ts.Client(), ts.URL+"/v1/recommend", `{"user":1,"k":3}`)
	if resp.StatusCode != http.StatusOK || len(out.Items) != 3 {
		t.Fatalf("generous timeout: status %d items %d", resp.StatusCode, len(out.Items))
	}
}

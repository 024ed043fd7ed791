package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/infer"
	"repro/internal/vecmath"
)

// A server with a pool must return exactly what the serial server
// returns, for every request flavor and pool size.
func TestParallelServerMatchesSerial(t *testing.T) {
	m, data := trainedModel(t)
	serial := New(m)
	reqs := []Request{
		{User: 3, Recent: data.Users[3].Baskets, K: 7},
		{User: -1, Recent: data.Users[5].Baskets, K: 5},
		{User: 8, K: 4, Cascade: &infer.CascadeConfig{KeepFrac: []float64{0.5, 0.5, 0.5}}},
		{User: 2, K: 6, MaxPerCategory: 2},
	}
	for _, workers := range []int{0, 2, 3, 4} {
		parallel := New(m, WithWorkers(workers))
		parallel.Snapshot().Index.SetShardItems(37) // force many shards on the tiny catalog
		for i, req := range reqs {
			want, err := serial.Recommend(req)
			if err != nil {
				t.Fatalf("req %d serial: %v", i, err)
			}
			got, err := parallel.Recommend(req)
			if err != nil {
				t.Fatalf("req %d workers=%d: %v", i, workers, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("req %d workers=%d: parallel ranking diverged\nwant %v\ngot  %v", i, workers, want, got)
			}
		}
		parallel.Close()
	}
}

// Concurrent batched requests must each receive exactly their individual
// serial ranking, and the batcher must actually coalesce them.
func TestBatcherCoalescesAndMatchesSerial(t *testing.T) {
	m, data := trainedModel(t)
	s := New(m, WithWorkers(2))
	defer s.Close()
	serial := New(m)
	b := NewBatcher(s, 8, 5*time.Millisecond)

	const n = 16
	reqs := make([]Request, n)
	for i := range reqs {
		u := i % 20
		reqs[i] = Request{User: u, Recent: data.Users[u].Baskets, K: 3 + i%5}
	}
	reqs[4].User = -1                                   // session request in the same batch
	reqs[9] = Request{User: 1, K: 4, MaxPerCategory: 1} // non-naive: per-request path
	reqs[11] = Request{User: 999999, K: 5}              // invalid user: per-request error
	want := make([]Response, n)
	for i, req := range reqs {
		items, err := serial.Recommend(req)
		want[i] = Response{Items: items, Err: err}
	}

	got := make([]Response, n)
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			items, err := b.Recommend(reqs[i])
			got[i] = Response{Items: items, Err: err}
		}(i)
	}
	wg.Wait()

	for i := range want {
		if (want[i].Err == nil) != (got[i].Err == nil) {
			t.Fatalf("req %d: error mismatch: want %v, got %v", i, want[i].Err, got[i].Err)
		}
		if want[i].Err == nil && !reflect.DeepEqual(want[i].Items, got[i].Items) {
			t.Fatalf("req %d: batched ranking diverged\nwant %v\ngot  %v", i, want[i].Items, got[i].Items)
		}
	}
	batches, coalesced := b.Stats()
	if coalesced != n {
		t.Fatalf("batcher saw %d requests, want %d", coalesced, n)
	}
	if batches == 0 || batches > n {
		t.Fatalf("implausible batch count %d for %d requests", batches, n)
	}
}

// The window path must cut a lone request's batch without waiting for
// maxBatch to fill.
func TestBatcherWindowFlushesPartialBatch(t *testing.T) {
	m, data := trainedModel(t)
	s := New(m)
	b := NewBatcher(s, 64, time.Millisecond)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := b.Recommend(Request{User: 0, Recent: data.Users[0].Baskets, K: 3}); err != nil {
			t.Errorf("lone batched request: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("batcher never flushed a partial batch")
	}
}

// Close must flush a pending micro-batch immediately: a caller parked on
// a long window gets its (correct) result now, not at window expiry and
// not never.
func TestBatcherCloseFlushesPending(t *testing.T) {
	m, data := trainedModel(t)
	s := New(m)
	serial := New(m)
	// an hour-long window: only Close can release the caller in time
	b := NewBatcher(s, 64, time.Hour)
	want, err := serial.Recommend(Request{User: 2, Recent: data.Users[2].Baskets, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		items []vecmath.Scored
		err   error
	}
	done := make(chan result, 1)
	go func() {
		items, err := b.Recommend(Request{User: 2, Recent: data.Users[2].Baskets, K: 4})
		done <- result{items, err}
	}()
	// wait until the request is actually queued in the current batch
	for i := 0; i < 5000; i++ {
		b.mu.Lock()
		queued := b.cur != nil && len(b.cur.reqs) > 0
		b.mu.Unlock()
		if queued {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	b.Close()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("flushed request errored: %v", r.err)
		}
		if !reflect.DeepEqual(want, r.items) {
			t.Fatal("flushed request returned a wrong ranking")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("caller still hanging after Close: pending batch was not flushed")
	}
	// Close is idempotent and post-Close traffic still gets answers
	b.Close()
	items, err := b.Recommend(Request{User: 3, Recent: data.Users[3].Baskets, K: 3})
	if err != nil || len(items) != 3 {
		t.Fatalf("post-close request: items=%d err=%v", len(items), err)
	}
}

// Closing with nothing pending must not block or break later requests.
func TestBatcherCloseEmpty(t *testing.T) {
	m, _ := trainedModel(t)
	s := New(m)
	b := NewBatcher(s, 8, time.Millisecond)
	b.Close()
	if _, err := b.Recommend(Request{User: 1, K: 2}); err != nil {
		t.Fatal(err)
	}
}

// A ?precision=f64 request resolves to the batch's tier, so it joins the
// coalesced batch — one shared sweep for both members, not a per-request
// detour — and answers the default request's bytes.
func TestBatcherCoalescesF64Request(t *testing.T) {
	m, _ := trainedModel(t)
	s := New(m, WithWorkers(2))
	defer s.Close()
	h := NewHTTP(s, nil)
	defer h.Close()
	// the batch cuts only when both requests have joined it
	h.EnableBatching(2, 10*time.Second)
	var execs atomic.Int64
	execHook = func() { execs.Add(1) }
	defer func() { execHook = nil }()
	ts := httptest.NewServer(h.Handler())
	defer ts.Close()

	urls := []string{ts.URL + "/v1/recommend", ts.URL + "/v1/recommend?precision=f64"}
	bodies := make([][]byte, len(urls))
	var wg sync.WaitGroup
	for i, url := range urls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body := postRaw(t, ts.Client(), url, `{"user":3,"k":8}`)
			if code != http.StatusOK {
				t.Errorf("%s: status %d: %s", url, code, body)
			}
			bodies[i] = body
		}()
	}
	wg.Wait()
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("?precision=f64 changed the bytes:\n%s\ndefault:\n%s", bodies[1], bodies[0])
	}
	if batches, coalesced := h.batcher.Stats(); batches != 1 || coalesced != 2 {
		t.Fatalf("batcher stats %d batches / %d coalesced, want 1/2", batches, coalesced)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("the batch reached the executor %d times, want one shared sweep", n)
	}
}

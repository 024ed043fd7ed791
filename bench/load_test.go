package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// An open loop times every request from the moment it was due, not from
// the moment it was sent: when the system stalls once, the requests that
// queued behind the stall must show it, even though each of them was
// answered quickly once sent.
func TestOpenLoopChargesAStallToLaterRequests(t *testing.T) {
	const stall = 300 * time.Millisecond
	var first atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
		w.Write([]byte(`{"items":[],"epoch":0}`))
	}))
	defer ts.Close()

	tree := testTree(t, []int{4, 16, 64}, 500)
	g := newStream(1, hotMix, tree, 100, 0)
	ss := newSenders(1, ts.URL, 1)
	defer closeIdle(ss)
	dur := 600 * time.Millisecond
	samples := runOpen(ss, g, newSchedule(1, 100, dur))
	if len(samples) < 30 {
		t.Fatalf("only %d arrivals at 100/s over %v", len(samples), dur)
	}
	queued := 0
	for _, sm := range samples[1:] {
		if !sm.ok {
			t.Fatal("a request failed")
		}
		if sm.due > stall*2/3 {
			continue // arrived after most of the stall
		}
		queued++
		latency, service := sm.done-sm.due, sm.done-sm.sent
		if want := stall - sm.due - 20*time.Millisecond; latency < want {
			t.Errorf("due at %v: latency %v hides the stall (want >= %v)", sm.due, latency, want)
		}
		if service > stall/3 {
			t.Errorf("due at %v: took %v once sent; only the first request stalls", sm.due, service)
		}
	}
	if queued < 5 {
		t.Fatalf("only %d requests queued behind the stall", queued)
	}
	st := openLoop(samples, dur, 50)
	if st.withinSLO >= st.sent {
		t.Error("every request met a 50 ms limit despite a 300 ms stall")
	}
	if st.late.tail < 100 {
		t.Errorf("generator lateness p99 %.1f ms does not show the backlog", st.late.tail)
	}
}

func TestScheduleIsSeededAndPoisson(t *testing.T) {
	draw := func(seed uint64) []time.Duration {
		s := newSchedule(seed, 1000, 5*time.Second)
		var out []time.Duration
		for {
			d, ok := s.next()
			if !ok {
				return out
			}
			out = append(out, d)
		}
	}
	a, b, c := draw(1), draw(1), draw(2)
	if len(a) != len(b) || a[len(a)-1] != b[len(b)-1] {
		t.Error("the same seed gave different schedules")
	}
	if len(a) == len(c) && a[10] == c[10] {
		t.Error("different seeds gave the same schedule")
	}
	if n := len(a); n < 4700 || n > 5300 {
		t.Errorf("%d arrivals at 1000/s over 5 s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatal("arrivals out of order")
		}
	}
}

func TestClosedRateCountsCorrectAnswersInsideThePhase(t *testing.T) {
	samples := []sample{
		{ok: true, done: time.Second}, {ok: true, done: 2 * time.Second},
		{ok: false, done: time.Second},    // a failure is not throughput
		{ok: true, done: 5 * time.Second}, // finished after the phase closed
	}
	if got := closedRate(samples, 4*time.Second); got != 0.5 {
		t.Errorf("closedRate = %g, want 0.5", got)
	}
}

// One stall must not own the reported tail: it lands in one of the five
// slices and the median of the slices' p99s looks past it.
func TestOpenLoopTailSurvivesOneStall(t *testing.T) {
	dur := 5 * time.Second
	var samples []sample
	for i := 0; i < 5000; i++ {
		due := time.Duration(i) * time.Millisecond
		lat := 2 * time.Millisecond
		if i%50 == 0 {
			lat = 10 * time.Millisecond // the steady tail: 2% of requests
		}
		if i >= 2000 && i < 2200 {
			lat = 300 * time.Millisecond // 4% of the phase behind one stall
		}
		samples = append(samples, sample{ok: true, due: due, sent: due, done: due + lat})
	}
	st := openLoop(samples, dur, 50)
	if st.lat.tail != 10 || st.lat.p50 != 2 {
		t.Errorf("p50 %.1f p99 %.1f, want 2 and 10", st.lat.p50, st.lat.tail)
	}
	if !st.lat.supported || st.lat.n != 5000 {
		t.Errorf("n=%d supported=%v", st.lat.n, st.lat.supported)
	}
	// but every request behind the stall still misses the latency limit
	if st.withinSLO != 4800 {
		t.Errorf("withinSLO = %d, want 4800", st.withinSLO)
	}
}

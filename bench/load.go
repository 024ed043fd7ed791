package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/vecmath"
)

// sample is one request the load generator made. Times are offsets from
// the phase start.
type sample struct {
	sc   *scenario
	due  time.Duration // open loop: when the schedule wanted it sent
	sent time.Duration
	done time.Duration // response fully read
	ok   bool          // a 200 that decoded into api.RecommendResponse
	// resp is kept only for the responses drawn into the oracle sample.
	resp *api.RecommendResponse
}

// sender is one load-generating client: a goroutine's worth of state
// with its own single keep-alive connection.
type sender struct {
	hc  *http.Client
	url string
	rng *vecmath.RNG // decides which responses the oracle re-derives
	out []sample
}

// oracleShare is the fraction of responses kept for the oracle.
const oracleShare = 0.02

// newSenders builds n senders against url, one connection each.
func newSenders(n int, url string, seed uint64) []*sender {
	out := make([]*sender, n)
	for i := range out {
		out[i] = &sender{
			hc: &http.Client{Transport: &http.Transport{
				MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
			}},
			url: url + api.EndpointUnified.Path(),
			rng: vecmath.NewRNG(subSeed(seed, 20+uint64(i))),
		}
	}
	return out
}

// closeIdle drops the senders' connections.
func closeIdle(ss []*sender) {
	for _, s := range ss {
		s.hc.CloseIdleConnections()
	}
}

// roundtrip sends sc and reads the whole answer. read is when the last
// body byte arrived, before the harness decodes it.
func (s *sender) roundtrip(sc *scenario) (resp *api.RecommendResponse, read time.Time, ok bool) {
	u := s.url
	if sc.query != "" {
		u += "?" + sc.query
	}
	hr, err := s.hc.Post(u, "application/json", bytes.NewReader(sc.body))
	if err != nil {
		return nil, time.Now(), false
	}
	body, err := io.ReadAll(hr.Body)
	hr.Body.Close()
	read = time.Now()
	if err != nil || hr.StatusCode != http.StatusOK {
		return nil, read, false
	}
	resp = new(api.RecommendResponse)
	if err := json.Unmarshal(body, resp); err != nil {
		return nil, read, false
	}
	return resp, read, true
}

// send performs one request of a phase that began at start and records
// it.
func (s *sender) send(sc *scenario, start time.Time, due time.Duration) {
	sent := time.Now()
	resp, read, ok := s.roundtrip(sc)
	sm := sample{sc: sc, due: due, sent: sent.Sub(start), done: read.Sub(start), ok: ok}
	if ok && s.rng.Float64() < oracleShare {
		sm.resp = resp
	}
	s.out = append(s.out, sm)
}

// drain returns and clears everything the senders recorded.
func drain(ss []*sender) []sample {
	var all []sample
	for _, s := range ss {
		all = append(all, s.out...)
		s.out = s.out[:0]
	}
	return all
}

// runClosed drives a closed loop for dur: every sender issues its next
// request the moment the previous one completes, so a slower system
// receives less load. It measures capacity.
func runClosed(ss []*sender, g *streamGen, dur time.Duration) []sample {
	start := time.Now()
	var wg sync.WaitGroup
	for _, s := range ss {
		wg.Add(1)
		go func(s *sender) {
			defer wg.Done()
			for time.Since(start) < dur {
				s.send(g.next(), start, 0)
			}
		}(s)
	}
	wg.Wait()
	return drain(ss)
}

// schedule is a seeded Poisson arrival process at a fixed rate: the
// open loop's clock. Arrivals do not depend on how the system responds.
type schedule struct {
	mu   sync.Mutex
	rng  *vecmath.RNG
	mean float64 // mean inter-arrival gap, seconds
	at   float64 // last arrival issued, seconds from phase start
	end  float64
}

func newSchedule(seed uint64, rate float64, dur time.Duration) *schedule {
	return &schedule{rng: vecmath.NewRNG(subSeed(seed, 30)), mean: 1 / rate, end: dur.Seconds()}
}

// next issues the next arrival's due time; ok is false once the phase's
// arrivals are exhausted.
func (s *schedule) next() (due time.Duration, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.at += -math.Log(1-s.rng.Float64()) * s.mean
	if s.at > s.end {
		return 0, false
	}
	return time.Duration(s.at * float64(time.Second)), true
}

// runOpen drives an open loop: arrivals follow the schedule whatever the
// system does. Each sender takes the next due arrival, waits for its due
// time if it is early, and sends; every arrival is sent, however late.
// Latency is later taken from the due time, so a stall charges every
// request that queued behind it.
func runOpen(ss []*sender, g *streamGen, sch *schedule) []sample {
	start := time.Now()
	var wg sync.WaitGroup
	for _, s := range ss {
		wg.Add(1)
		go func(s *sender) {
			defer wg.Done()
			for {
				due, ok := sch.next()
				if !ok {
					return
				}
				sc := g.next()
				if wait := due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				s.send(sc, start, due)
			}
		}(s)
	}
	wg.Wait()
	return drain(ss)
}

// closedRate is the closed loop's throughput: correct answers completed
// inside the phase, per second.
func closedRate(samples []sample, dur time.Duration) float64 {
	n := 0
	for i := range samples {
		if samples[i].ok && samples[i].done <= dur {
			n++
		}
	}
	return float64(n) / dur.Seconds()
}

// openLoopStats is what one open-loop phase yields.
type openLoopStats struct {
	lat  latencySummary // ms from due time, correct answers only
	late latencySummary // ms between due time and actual send
	// withinSLO counts requests answered correctly within the limit;
	// sent counts every arrival. A failed request misses the limit.
	withinSLO, sent int
	// achieved is offered duration over the time the system took to
	// finish the offered arrivals: 1 when it kept up, below 1 when a
	// backlog was still draining after the phase's last arrival.
	achieved float64
}

// latencySlices is how many equal time slices an open-loop phase is cut
// into. Its median and tail latency are the medians of the slices' own:
// a stall (a host hiccup, a collection, a reload) lands in one slice and
// moves one of five values, where pooled it would own the whole tail.
const latencySlices = 5

// openLoop reduces an open-loop phase's samples.
func openLoop(samples []sample, dur time.Duration, sloMS float64) openLoopStats {
	st := openLoopStats{sent: len(samples), achieved: 1}
	slices := make([][]float64, latencySlices)
	late := make([]float64, 0, len(samples))
	var last time.Duration
	n := 0
	for i := range samples {
		sm := &samples[i]
		late = append(late, float64(sm.sent-sm.due)/1e6)
		last = max(last, sm.done)
		if !sm.ok {
			continue
		}
		ms := float64(sm.done-sm.due) / 1e6
		k := min(int(sm.due*latencySlices/dur), latencySlices-1)
		slices[k] = append(slices[k], ms)
		n++
		if ms <= sloMS {
			st.withinSLO++
		}
	}
	if last > dur {
		st.achieved = float64(dur) / float64(last)
	}
	p50s, tails := make([]float64, latencySlices), make([]float64, latencySlices)
	for k, xs := range slices {
		sum := summarize(xs)
		p50s[k], tails[k] = sum.p50, sum.tail
	}
	st.lat = latencySummary{n: n, p50: median(p50s), tail: median(tails), supported: tailPct <= supportedPercentile(n)}
	st.late = summarize(late)
	return st
}

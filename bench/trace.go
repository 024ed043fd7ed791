package main

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one client
// request share Req; Parent names the span that caused this one.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent string `json:"parent,omitempty"`
	// Node is the topology node a serve-side span ran on.
	Node    int     `json:"node"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// dur is the span's length in microseconds.
func (s span) dur() float64 { return s.EndUS - s.StartUS }

// tracer collects spans in memory; they are written out once, at exit.
// The traced pass is one sequential client, so the request in flight is
// a single number (cur) the handler wrappers can read: spans nest by
// time and need no header propagation through the router.
type tracer struct {
	t0      time.Time
	cur     atomic.Int64
	on      atomic.Bool       // spans are kept only while set
	parents map[string]string // span name -> parent span name

	mu    sync.Mutex
	spans []span
	mark  int // index of the first span of the request in flight
}

// newTracer builds a tracer for a topology with or without a router in
// front of the serve handlers.
func newTracer(routed bool) *tracer {
	t := &tracer{t0: time.Now(), parents: map[string]string{
		"router.handler": "client.roundtrip", "serve.handler": "client.roundtrip",
		"replay":     "client.roundtrip", // caused by it, though it runs after it
		"api.decode": "replay", "serve.recommend": "replay", "api.encode": "replay",
		"model.build_query": "serve.recommend", "infer.execute": "serve.recommend",
	}}
	if routed {
		t.parents["serve.handler"] = "router.handler"
	}
	return t
}

// add records a finished span of node against the request in flight.
func (t *tracer) add(name string, node int, start, end time.Time) span {
	s := span{
		Name: name, Req: t.cur.Load(), Parent: t.parents[name], Node: node,
		StartUS: float64(start.Sub(t.t0)) / 1e3, EndUS: float64(end.Sub(t.t0)) / 1e3,
	}
	if t.on.Load() {
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
	return s
}

// timed runs fn as a span called name.
func (t *tracer) timed(name string, node int, fn func()) span {
	start := time.Now()
	fn()
	return t.add(name, node, start, time.Now())
}

// begin makes id the request in flight.
func (t *tracer) begin(id int64) {
	t.cur.Store(id)
	t.mu.Lock()
	t.mark = len(t.spans)
	t.mu.Unlock()
}

// inFlight returns the spans recorded since begin.
func (t *tracer) inFlight() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans[t.mark:])
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap each other (three shard handlers
// run at once behind a router) and may stick out of the parent; covered
// time is the measure of their union clipped to the parent.
func selfTime(parent span, children []span) float64 {
	kids := slices.Clone(children)
	slices.SortFunc(kids, func(a, b span) int {
		switch {
		case a.StartUS < b.StartUS:
			return -1
		case a.StartUS > b.StartUS:
			return 1
		}
		return 0
	})
	covered, edge := 0.0, parent.StartUS
	for _, k := range kids {
		lo, hi := max(k.StartUS, edge), min(k.EndUS, parent.EndUS)
		if hi > lo {
			covered += hi - lo
			edge = hi
		}
	}
	return parent.dur() - covered
}

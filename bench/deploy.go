package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/router"
	"repro/internal/serve"
)

// The reference deployment, identical for every serving workload (only
// the world and the traffic differ). Batching stays off, tfrec-serve's
// default; with at most nproc requests in flight it could not coalesce
// anyway.
const (
	cacheEntries  = 4096
	admitInflight = 64
	admitQueue    = 128
	admitWait     = 50 * time.Millisecond
	reqTimeout    = 2 * time.Second
)

// node is one tfrec-serve process's worth of stack, in-process: a mapped
// snapshot, the server over it, and its HTTP handler on a loopback
// listener.
type node struct {
	srv *serve.Server
	h   *serve.HTTP
	ts  *httptest.Server
}

// deployConfig is what differs between deployments of one model file.
type deployConfig struct {
	path    string
	workers int
	cache   int              // result cache entries; 0 = none
	shards  int              // > 1 puts a router over that many range-scoped nodes
	history *dataset.Dataset // backs exclude_purchased; may be nil
	tr      *tracer          // non-nil wraps every handler in a timing span
}

// deployment is a running serving topology and its front URL.
type deployment struct {
	url   string
	nodes []*node
	front *httptest.Server // the router's listener; nil on a single node
	rt    *router.Router
}

// newNode opens path the production way (model.LoadFile, memory-mapped)
// and serves it, scoped to [lo, hi) when hi > lo.
func newNode(cfg deployConfig, index, lo, hi int) (*node, error) {
	sn, err := model.LoadFile(cfg.path)
	if err != nil {
		return nil, err
	}
	opts := []serve.Option{serve.WithWorkers(cfg.workers), serve.WithCache(cfg.cache)}
	if hi > lo {
		opts = append(opts, serve.WithItemRange(lo, hi))
	}
	if cfg.history != nil {
		opts = append(opts, serve.WithHistory(cfg.history))
	}
	srv := serve.NewSnapshot(sn, opts...)
	h := serve.NewHTTP(srv, nil)
	h.SetSnapshotReload(func() (*model.Snapshot, error) { return model.LoadFile(cfg.path) })
	h.SetAdmission(admitInflight, admitQueue, admitWait)
	h.SetTimeout(reqTimeout)
	return &node{srv: srv, h: h, ts: httptest.NewServer(cfg.tr.wrap("serve.handler", index, h.Handler()))}, nil
}

// close stops the listener and releases the server and its mapping.
func (n *node) close() {
	n.ts.Close()
	n.h.Close()
	n.srv.Close()
}

// deploy brings up the topology cfg describes.
func deploy(cfg deployConfig) (*deployment, error) {
	d := &deployment{}
	if cfg.shards <= 1 {
		n, err := newNode(cfg, 0, 0, 0)
		if err != nil {
			return nil, err
		}
		d.nodes, d.url = []*node{n}, n.ts.URL
		return d, nil
	}
	sn, err := model.LoadFile(cfg.path)
	if err != nil {
		return nil, err
	}
	items := sn.Composed.NumItems()
	sn.Close()
	var urls []string
	for s := 0; s < cfg.shards; s++ {
		n, err := newNode(cfg, s, s*items/cfg.shards, (s+1)*items/cfg.shards)
		if err != nil {
			d.close()
			return nil, err
		}
		d.nodes = append(d.nodes, n)
		urls = append(urls, n.ts.URL)
	}
	d.rt, err = router.New(router.Config{
		Shards: urls, Timeout: reqTimeout, MaxInflight: admitInflight, QueueWait: admitWait,
	})
	if err != nil {
		d.close()
		return nil, fmt.Errorf("router bootstrap: %w", err)
	}
	d.front = httptest.NewServer(cfg.tr.wrap("router.handler", 0, router.NewHTTP(d.rt).Handler()))
	d.url = d.front.URL
	return d, nil
}

// close tears the topology down, front first.
func (d *deployment) close() {
	if d.front != nil {
		d.front.Close()
	}
	for _, n := range d.nodes {
		n.close()
	}
}

// wrap returns h timed as a span called name on the given node; a nil
// tracer returns h itself, so the untraced pass serves through the
// unwrapped handler.
func (t *tracer) wrap(name string, node int, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(name, node, start, time.Now())
	})
}

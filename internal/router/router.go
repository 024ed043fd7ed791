// Package router implements the scatter-gather front of a sharded
// serving topology: one tfrec-router process fans each recommend
// request out to N tfrec-serve backends, each running in shard mode
// (-item-range) over a contiguous slice of the item catalog, and merges
// the per-shard rankings into a response that is byte-identical to what
// a single full-catalog node would have served.
//
// The byte-identity rests on three properties the rest of the stack
// already pins:
//
//   - a shard's top-k' over its range is exactly the restriction of the
//     global ranking to that range (the range mask is an eligibility
//     filter; filters never reorder survivors);
//   - vecmath.TopKStream's merge of bounded heaps equals one serial
//     stream over the union (the same lemma the in-process parallel
//     sweep relies on), so re-merging shard heaps under the identical
//     score-then-lower-ID order reproduces the global heap; and
//   - scores travel as JSON float64 and Go's encoder writes the shortest
//     round-tripping decimal, so parse→merge→re-encode preserves bytes.
//
// Diversified rankings need more than the plain heap merge — a
// per-category quota is not preserved by restriction — so shards
// annotate each item with its quota category and the router re-applies
// the exact per-category quota selection of infer.executeDiversified
// over the returned union (see merge.go for the argument that shard
// pages of size K+Offset suffice).
//
// On top of the merge the router runs the same edge stack as a single
// node — admission control, per-request deadlines, and a versioned
// result cache keyed on the MINIMUM epoch across the shard set — plus
// topology-specific concerns: hedged shard requests, per-request model
// identity checks (a mid-reload topology never mixes snapshots), and a
// configurable degraded mode when a shard is down (shed 503s, or serve
// the reachable part of the catalog marked "degraded").
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
)

// Config carries a Router's construction parameters.
type Config struct {
	// Shards lists the backend base URLs (for example
	// "http://127.0.0.1:9001"). Order is irrelevant; the topology is
	// ordered by each shard's reported item range.
	Shards []string
	// HedgeDelay, when positive, re-sends a shard request that has not
	// answered within the delay and takes whichever copy responds first.
	HedgeDelay time.Duration
	// Timeout bounds each router request end to end (0 = unbounded).
	Timeout time.Duration
	// DegradedPartial picks the policy when a shard is unreachable:
	// false sheds the request with 503 shard_unavailable; true serves
	// the reachable shards' merge with "degraded":true.
	DegradedPartial bool
	// CacheSize is the merged-result cache capacity in entries (0 = off).
	CacheSize int
	// MaxInflight arms admission control (0 = unlimited); QueueWait is
	// how long an excess request may wait for a slot.
	MaxInflight int
	QueueWait   time.Duration
	// MaxBody bounds request bodies in bytes (0 = 1MiB default).
	MaxBody int64
	// Client is the HTTP client for shard traffic (nil = a pooled
	// default sized for the fan-out).
	Client *http.Client
}

// shard is one backend in the topology: its address, the catalog range
// it owns, and live state the router learns from its responses.
type shard struct {
	url string
	rng api.ItemRange

	// epoch is the shard's last reported snapshot generation; the
	// minimum across shards versions the router's result cache. modelID
	// is its last reported content fingerprint.
	epoch   atomic.Uint64
	modelID atomic.Pointer[string]
	healthy atomic.Bool

	requests  atomic.Int64
	errors    atomic.Int64
	hedges    atomic.Int64
	hedgeWins atomic.Int64
}

func (s *shard) setModelID(id string) { s.modelID.Store(&id) }

func (s *shard) getModelID() string {
	if p := s.modelID.Load(); p != nil {
		return *p
	}
	return ""
}

// topology is an immutable view of the shard set: the shards ordered by
// range plus the catalog shape they agreed on at refresh time. Requests
// load it once and work against that snapshot, so a concurrent Refresh
// can never hand one request two different shard sets.
type topology struct {
	shards []*shard
	model  api.StatsModel // sample shape: users/items/nodes/depth/k/...
}

// Router is the scatter-gather core; NewHTTP wraps it in the HTTP
// serving layer.
type Router struct {
	cfg    Config
	client *http.Client
	topo   atomic.Pointer[topology]

	requests      atomic.Int64
	errors        atomic.Int64
	degraded      atomic.Int64
	shed          atomic.Int64
	hedges        atomic.Int64
	hedgeWins     atomic.Int64
	epochMismatch atomic.Int64
	cacheHits     atomic.Int64
	deadlines     atomic.Int64
	panics        atomic.Int64

	start time.Time
}

// New builds a Router and performs the initial topology bootstrap: every
// shard must be reachable, report an item range, and the ranges must
// tile the catalog exactly. Construction fails otherwise — a router that
// cannot cover the catalog has nothing correct to serve.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("router: no shards configured")
	}
	client := cfg.Client
	if client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = 64
		client = &http.Client{Transport: tr}
	}
	r := &Router{cfg: cfg, client: client, start: time.Now()}
	if err := r.Refresh(context.Background()); err != nil {
		return nil, err
	}
	return r, nil
}

// Refresh re-reads every shard's /v1/stats and installs a fresh
// topology. It validates the invariants the merge depends on: every
// shard runs in shard mode, all shards serve the same model content,
// and the ranges tile [0, items) contiguously with no gap or overlap.
// On error the previous topology (if any) stays installed.
func (r *Router) Refresh(ctx context.Context) error {
	type probe struct {
		url   string
		stats api.Stats
		err   error
	}
	probes := make([]probe, len(r.cfg.Shards))
	var wg sync.WaitGroup
	for i, u := range r.cfg.Shards {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			probes[i] = probe{url: u}
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/v1/stats", nil)
			if err != nil {
				probes[i].err = err
				return
			}
			resp, err := r.client.Do(req)
			if err != nil {
				probes[i].err = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				probes[i].err = fmt.Errorf("stats returned %s", resp.Status)
				return
			}
			probes[i].err = json.NewDecoder(resp.Body).Decode(&probes[i].stats)
		}(i, u)
	}
	wg.Wait()

	shards := make([]*shard, 0, len(probes))
	var model api.StatsModel
	for i, p := range probes {
		if p.err != nil {
			return fmt.Errorf("router: shard %s: %w", p.url, p.err)
		}
		m := p.stats.Model
		if m.ItemRange == nil {
			return fmt.Errorf("router: shard %s is not in shard mode (no item_range in /v1/stats; start it with -item-range)", p.url)
		}
		if i == 0 {
			model = m
		} else if m.ModelID != model.ModelID {
			return fmt.Errorf("router: shard %s serves model %s but %s serves %s; topology must agree before routing",
				p.url, m.ModelID, probes[0].url, model.ModelID)
		} else if m.Items != model.Items {
			return fmt.Errorf("router: shard %s reports %d catalog items, %s reports %d",
				p.url, m.Items, probes[0].url, model.Items)
		}
		sh := &shard{url: p.url, rng: *m.ItemRange}
		sh.epoch.Store(m.Epoch)
		sh.setModelID(m.ModelID)
		sh.healthy.Store(true)
		shards = append(shards, sh)
	}
	sort.Slice(shards, func(i, j int) bool { return shards[i].rng.Lo < shards[j].rng.Lo })
	at := 0
	for _, sh := range shards {
		if sh.rng.Lo != at {
			return fmt.Errorf("router: shard ranges do not tile the catalog: gap or overlap at item %d (shard %s owns %s)", at, sh.url, sh.rng)
		}
		at = sh.rng.Hi
	}
	if at != model.Items {
		return fmt.Errorf("router: shard ranges cover [0,%d) but the catalog has %d items", at, model.Items)
	}
	model.ItemRange = nil // the router serves the whole catalog
	r.topo.Store(&topology{shards: shards, model: model})
	return nil
}

// minEpoch is the epoch the whole merged catalog is guaranteed current
// at: the minimum last-seen snapshot generation across the shard set.
// Any shard reload raises it, invalidating every cached merged result
// stamped under the old minimum.
func (t *topology) minEpoch() uint64 {
	min := t.shards[0].epoch.Load()
	for _, sh := range t.shards[1:] {
		if e := sh.epoch.Load(); e < min {
			min = e
		}
	}
	return min
}

// cacheVersion is the result cache's validity check: the minimum
// last-seen epoch plus the model fingerprint the shard set agrees on.
// ok is false while the tracked fingerprints disagree — a rolling
// reload observed in progress — during which cached merges may not be
// served at all: the epoch scalar alone cannot tell "nothing changed"
// from "one shard changed and the others' reloads are still unseen".
func (t *topology) cacheVersion() (epoch uint64, modelID string, ok bool) {
	modelID = t.shards[0].getModelID()
	epoch = t.shards[0].epoch.Load()
	for _, sh := range t.shards[1:] {
		if sh.getModelID() != modelID {
			return 0, "", false
		}
		if e := sh.epoch.Load(); e < epoch {
			epoch = e
		}
	}
	return epoch, modelID, true
}

// shardResult is one backend's answer to a scattered request. Exactly
// one of ok/clientErr/err describes the outcome: a merged 2xx body, a
// 4xx the router propagates verbatim (the request is bad on every
// shard), or an availability failure (transport error or 5xx) that
// triggers the degraded policy.
type shardResult struct {
	sh        *shard
	ok        *api.RecommendResponse
	clientErr *api.ErrorDetail
	err       error
	hedged    bool // answered by the hedge copy, not the primary
}

// scatter fans body out to every shard of the topology concurrently and
// waits for all outcomes. rawQuery is appended to each shard URL — the
// pass-through knobs (workers, precision, pruned) ride it; the
// result-affecting parameters were already folded into body.
func (r *Router) scatter(ctx context.Context, t *topology, body []byte, rawQuery string) []shardResult {
	results := make([]shardResult, len(t.shards))
	var wg sync.WaitGroup
	for i, sh := range t.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			results[i] = r.askShard(ctx, sh, body, rawQuery)
		}(i, sh)
	}
	wg.Wait()
	return results
}

// askShard sends one shard its copy of the request, hedging with a
// second identical copy if the first has not answered within the
// configured delay. First response wins — but a failed first response
// waits for the outstanding copy rather than failing the shard, which
// is the point of hedging: one slow or dying connection must not take
// the whole catalog slice with it.
func (r *Router) askShard(ctx context.Context, sh *shard, body []byte, rawQuery string) shardResult {
	sh.requests.Add(1)
	if r.cfg.HedgeDelay <= 0 {
		res := r.post(ctx, sh, body, rawQuery)
		r.account(&res)
		return res
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // reels in whichever copy lost
	ch := make(chan shardResult, 2)
	send := func(hedged bool) {
		res := r.post(ctx, sh, body, rawQuery)
		res.hedged = hedged
		ch <- res
	}
	go send(false)
	timer := time.NewTimer(r.cfg.HedgeDelay)
	defer timer.Stop()
	var res shardResult
	select {
	case res = <-ch:
	case <-timer.C:
		sh.hedges.Add(1)
		r.hedges.Add(1)
		go send(true)
		res = <-ch
		if res.err != nil {
			// the first finisher failed; the other copy is still in
			// flight and may yet save the shard
			if second := <-ch; second.err == nil {
				res = second
			}
		}
		if res.err == nil && res.hedged {
			sh.hedgeWins.Add(1)
			r.hedgeWins.Add(1)
		}
	}
	r.account(&res)
	return res
}

// account folds one outcome into the shard's health and error state. A
// 4xx leaves the shard healthy — the request was bad, not the backend.
func (r *Router) account(res *shardResult) {
	if res.err != nil {
		res.sh.errors.Add(1)
		res.sh.healthy.Store(false)
		return
	}
	res.sh.healthy.Store(true)
	if res.ok != nil {
		res.sh.epoch.Store(res.ok.Epoch)
		res.sh.setModelID(res.ok.ModelID)
	}
}

// post performs one HTTP exchange with a shard and classifies the
// outcome. 2xx parses as a ranking, 4xx as a propagatable client error,
// and everything else — transport failure or a 5xx (including a shard's
// own load shedding) — as shard unavailability.
func (r *Router) post(ctx context.Context, sh *shard, body []byte, rawQuery string) shardResult {
	res := shardResult{sh: sh}
	u := sh.url + api.EndpointUnified.Path()
	if rawQuery != "" {
		u += "?" + rawQuery
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		res.err = err
		return res
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode < 300:
		var out api.RecommendResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			res.err = fmt.Errorf("shard %s: bad response body: %w", sh.url, err)
			return res
		}
		res.ok = &out
	case resp.StatusCode < 500:
		var eb api.ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Err.Code == "" {
			res.clientErr = &api.ErrorDetail{Code: api.CodeBadRequest, Message: fmt.Sprintf("shard rejected the request with %s", resp.Status)}
		} else {
			res.clientErr = &eb.Err
		}
	default:
		res.err = fmt.Errorf("shard %s answered %s", sh.url, resp.Status)
	}
	return res
}

package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/infer"
	"repro/internal/serve"
)

// cachedResult is one merged ranking in the router's result cache: the
// paged items plus the model content they were computed against.
// Degraded responses are never cached — a shard coming back must not
// leave stale partial pages behind.
type cachedResult struct {
	items   []api.Item
	modelID string
}

// HTTP is the router's serving layer. It exposes exactly the endpoint
// surface of a single tfrec-serve node — POST /v1/recommend, /v1/stats,
// /healthz, and the same typed 404 envelope for every other path — so
// clients, load generators and dashboards cannot tell a router from a
// node without reading the stats body.
type HTTP struct {
	r       *Router
	adm     *serve.Admission
	cache   *serve.VersionedCache[cachedResult]
	maxBody int64
}

// NewHTTP wraps a Router in its HTTP serving layer, arming the edge
// stack the Config asked for.
func NewHTTP(r *Router) *HTTP {
	h := &HTTP{r: r, maxBody: serve.DefaultMaxBodyBytes}
	if r.cfg.MaxBody > 0 {
		h.maxBody = r.cfg.MaxBody
	}
	if r.cfg.MaxInflight > 0 {
		h.adm = serve.NewAdmission(r.cfg.MaxInflight, 2*r.cfg.MaxInflight, r.cfg.QueueWait)
	}
	if r.cfg.CacheSize > 0 {
		h.cache = serve.NewVersionedCache[cachedResult](r.cfg.CacheSize, nil)
	}
	return h
}

// Handler returns the route table. A panic anywhere under it answers
// 500 internal, is logged with its stack, and counts in /v1/stats
// (router.panics and router.errors).
func (h *HTTP) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+api.EndpointUnified.Path(), h.recommend)
	mux.HandleFunc("GET /v1/stats", h.stats)
	mux.Handle("GET /healthz", api.HealthzHandler())
	mux.Handle("/", api.NotFoundHandler())
	return api.Recover(mux, func(r *http.Request, v any) {
		h.r.panics.Add(1)
		h.r.errors.Add(1)
		log.Printf("router: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
	})
}

// foldQuery applies the result-affecting query parameters into the wire
// request — the same override semantics, spellings and error messages
// as a single node's queryParams — and returns the remaining parameters
// re-encoded for pass-through to the shards. Folding matters for two
// reasons: the folded fields join the cache key (a ?category= filter
// must not share an entry with the unfiltered request), and the offset
// must be absorbed before the scatter rewrite zeroes it (a forwarded
// ?offset= would re-paginate every shard). Execution knobs (workers,
// precision, pruned) pass through untouched — they are result-neutral:
// each shard applies pruned, and validates and ignores the other two.
func foldQuery(q url.Values, wr *api.RecommendRequest) (string, error) {
	if es := q.Get("exclude_purchased"); es != "" {
		v, err := strconv.ParseBool(es)
		if err != nil {
			return "", fmt.Errorf("bad exclude_purchased parameter %q", es)
		}
		wr.ExcludePurchased = v
	}
	if cs := q.Get("category"); cs != "" {
		nodes, err := infer.ParseIDList(cs)
		if err != nil {
			return "", fmt.Errorf("bad category parameter %q", cs)
		}
		wr.Categories = nodes
	}
	if cs := q.Get("exclude_category"); cs != "" {
		nodes, err := infer.ParseIDList(cs)
		if err != nil {
			return "", fmt.Errorf("bad exclude_category parameter %q", cs)
		}
		wr.ExcludeCategories = nodes
	}
	if os := q.Get("offset"); os != "" {
		n, err := strconv.Atoi(os)
		if err != nil || n < 0 {
			return "", fmt.Errorf("bad offset parameter %q", os)
		}
		wr.Offset = n
	}
	for _, folded := range []string{"exclude_purchased", "category", "exclude_category", "offset"} {
		q.Del(folded)
	}
	return q.Encode(), nil
}

func (h *HTTP) recommend(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	if h.r.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, h.r.cfg.Timeout)
		defer cancel()
	}
	if h.adm != nil {
		release, code := h.adm.Acquire(ctx)
		if release == nil {
			h.r.shed.Add(1)
			api.WriteError(w, api.ErrorDetail{Code: code, Message: "router overloaded, retry later", RetryAfter: 1})
			return
		}
		defer release()
	}
	r.Body = http.MaxBytesReader(w, r.Body, h.maxBody)
	var wr api.RecommendRequest
	if err := json.NewDecoder(r.Body).Decode(&wr); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			h.fail(w, api.CodeBodyTooLarge, fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		h.fail(w, api.CodeBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	passQuery, err := foldQuery(r.URL.Query(), &wr)
	if err != nil {
		h.fail(w, api.CodeBadRequest, err)
		return
	}
	t := h.r.topo.Load()
	// reject what every shard would reject before paying the fan-out —
	// wording identical to a single node's validation, because error
	// envelopes are part of the byte-identity contract too; anything
	// subtler (unknown user, bad strategy, bad keep_frac) the shards
	// validate and the router propagates verbatim. The K/Offset bounds
	// must run here regardless: the scatter rewrite clamps k' to the
	// catalog, so the shards would never see the oversized original.
	if wr.K <= 0 {
		h.fail(w, api.CodeBadRequest, fmt.Errorf("serve: K must be positive, got %d", wr.K))
		return
	}
	if wr.K > t.model.Items {
		h.fail(w, api.CodeBadRequest, fmt.Errorf("serve: K %d exceeds the catalog size %d", wr.K, t.model.Items))
		return
	}
	if wr.Offset < 0 {
		h.fail(w, api.CodeBadRequest, fmt.Errorf("serve: offset must be non-negative, got %d", wr.Offset))
		return
	}
	if wr.Offset > t.model.Items {
		h.fail(w, api.CodeBadRequest, fmt.Errorf("serve: offset %d beyond the catalog size %d", wr.Offset, t.model.Items))
		return
	}

	var key string
	cacheEpoch, cacheID, cacheable := t.cacheVersion()
	cacheable = cacheable && h.cache != nil
	if cacheable {
		key = cacheKey(wr)
		// the cache version is the minimum epoch across the shard set:
		// the instant the router sees a response (or a Refresh) from a
		// reloaded shard, the minimum rises and every merged entry
		// stamped under the old one reads as stale. The model-id gate
		// covers the rolling-reload windows the scalar cannot: while
		// the tracked fingerprints disagree the cache is bypassed, and
		// an entry whose fingerprint is not the agreed one is a miss.
		if v, ok := h.cache.Get(cacheEpoch, key); ok && v.modelID == cacheID {
			h.r.cacheHits.Add(1)
			h.r.requests.Add(1)
			h.writeJSON(w, api.RecommendResponse{Items: v.items, Epoch: cacheEpoch, ModelID: v.modelID})
			return
		}
	}
	resp, errDetail := h.r.route(ctx, t, wr, passQuery)
	if errDetail != nil {
		h.r.errors.Add(1)
		api.WriteError(w, *errDetail)
		return
	}
	if cacheable && !resp.Degraded {
		h.cache.Put(resp.Epoch, key, cachedResult{items: resp.Items, modelID: resp.ModelID})
	}
	h.r.requests.Add(1)
	h.writeJSON(w, resp)
}

func (h *HTTP) fail(w http.ResponseWriter, code api.Code, err error) {
	h.r.errors.Add(1)
	api.WriteError(w, api.ErrorDetail{Code: code, Message: err.Error()})
}

func (h *HTTP) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		h.r.errors.Add(1)
	}
}

func (h *HTTP) stats(w http.ResponseWriter, r *http.Request) {
	t := h.r.topo.Load()
	out := api.RouterStats{
		Model:            t.model,
		Shards:           make([]api.ShardStats, len(t.shards)),
		DeadlineExceeded: h.r.deadlines.Load(),
		TimeoutMS:        h.r.cfg.Timeout.Milliseconds(),
		Goroutines:       runtime.NumGoroutine(),
		UptimeSeconds:    time.Since(h.r.start).Seconds(),
	}
	out.Model.Epoch = t.minEpoch()
	out.Model.ModelID = t.shards[0].getModelID()
	for i, sh := range t.shards {
		out.Shards[i] = api.ShardStats{
			URL:       sh.url,
			ItemRange: sh.rng,
			Epoch:     sh.epoch.Load(),
			ModelID:   sh.getModelID(),
			Healthy:   sh.healthy.Load(),
			Requests:  sh.requests.Load(),
			Errors:    sh.errors.Load(),
			Hedges:    sh.hedges.Load(),
			HedgeWins: sh.hedgeWins.Load(),
		}
	}
	mode := "shed"
	if h.r.cfg.DegradedPartial {
		mode = "partial"
	}
	out.Router = api.RouterCounters{
		Requests:      h.r.requests.Load(),
		Errors:        h.r.errors.Load(),
		Degraded:      h.r.degraded.Load(),
		Shed:          h.r.shed.Load(),
		Hedges:        h.r.hedges.Load(),
		HedgeWins:     h.r.hedgeWins.Load(),
		EpochMismatch: h.r.epochMismatch.Load(),
		CacheHits:     h.r.cacheHits.Load(),
		Panics:        h.r.panics.Load(),
		HedgeDelayMS:  h.r.cfg.HedgeDelay.Milliseconds(),
		DegradedMode:  mode,
	}
	if h.cache != nil {
		cs := h.cache.Stats()
		// the version that matters is the shard-set minimum, not the
		// cache's unused internal counter
		cs.Epoch = t.minEpoch()
		out.Cache = &cs
	}
	if h.adm != nil {
		as := h.adm.Stats()
		out.Admission = &as
	}
	h.writeJSON(w, out)
}

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/model"
	"repro/internal/vecmath"
)

// HTTP exposes a Server over JSON endpoints — the network-facing
// deployment shape of the recommender. Endpoints:
//
//	POST /v1/recommend  {"user":17,"k":10,"strategy":"cascade","keep":0.2,...}
//	GET  /v1/stats
//	GET  /healthz
//
// The wire shapes are the internal/api types (see docs/API.md).
// /v1/recommend is the one recommend route: "strategy" picks naive
// (default), cascade or diversified, and "user":-1 makes a session
// request. Every other path answers the typed 404 not_found envelope.
//
// Responses are api.RecommendResponse: the ranked items (with the quota
// category annotated on diversified rankings), the snapshot epoch the
// ranking ran on, and the model's content fingerprint. Errors are the
// structured api.ErrorBody envelope with a typed code.
//
// Every recommend endpoint accepts request-time candidate filtering and
// pagination, as JSON fields (exclude_purchased, categories,
// exclude_categories, offset) or query parameters (?exclude_purchased=,
// ?category=3,17, ?exclude_category=, ?offset=; parameters win). Filters
// apply before the ranking heap, so k items come back even when most of
// the catalog is filtered out. A "pruned" field or ?pruned= parameter
// turns on taxonomy-guided branch-and-bound retrieval for naive sweeps;
// rankings are byte-identical either way (see infer.Plan.Pruned).
//
// Reload hot-swaps a retrained snapshot: in-flight requests finish on the
// snapshot they loaded, new requests see the new one (Server.Update is an
// atomic pointer swap, so nothing blocks or drops). cmd/tfrec-serve wires
// Reload to SIGHUP.
type HTTP struct {
	srv *Server
	// reload produces a fresh trainable model for Reload; reloadSnap, when
	// set (SetSnapshotReload), takes precedence and produces a loaded
	// snapshot instead — the zero-Compose mmap reload path.
	reload     func() (*model.TF, error)
	reloadSnap func() (*model.Snapshot, error)
	start      time.Time
	maxBody    int64
	adm        *Admission
	timeout    time.Duration

	plans     atomic.Int64
	errors    atomic.Int64
	panics    atomic.Int64
	reloads   atomic.Int64
	cacheHits atomic.Int64
	deadlines atomic.Int64
}

// DefaultMaxBodyBytes caps request bodies unless SetMaxBodyBytes chooses
// otherwise. Recommend bodies are a few hundred bytes of ids; 1 MiB is
// three orders of magnitude of headroom while keeping a hostile client
// from streaming gigabytes into the JSON decoder.
const DefaultMaxBodyBytes = 1 << 20

// NewHTTP wraps srv. reload, which may be nil, produces a fresh model for
// Reload (typically by re-reading the model file).
func NewHTTP(srv *Server, reload func() (*model.TF, error)) *HTTP {
	return &HTTP{srv: srv, reload: reload, start: time.Now(), maxBody: DefaultMaxBodyBytes}
}

// SetMaxBodyBytes overrides the request-body size limit; n <= 0 restores
// the default. Bodies over the limit fail with 413. Call before the
// handler starts serving.
func (h *HTTP) SetMaxBodyBytes(n int64) {
	if n <= 0 {
		n = DefaultMaxBodyBytes
	}
	h.maxBody = n
}

// SetAdmission puts a load-shedding front before the recommend
// endpoints: at most maxInflight requests execute concurrently, at most
// maxQueue more wait up to queueWait for a slot, and everything beyond
// is rejected with 429 (queue full) or 503 (wait expired), both carrying
// Retry-After. maxInflight <= 0 disables admission control. /v1/stats
// and /healthz are never throttled — an overloaded server must stay
// observable. Call before the handler starts serving.
func (h *HTTP) SetAdmission(maxInflight, maxQueue int, queueWait time.Duration) {
	if maxInflight <= 0 {
		h.adm = nil
		return
	}
	h.adm = NewAdmission(maxInflight, maxQueue, queueWait)
}

// SetTimeout bounds each recommend request's total time — admission
// queue wait and sweep included (the deadline is armed before
// admission). A deadline firing mid-sweep abandons the query at the next
// shard boundary (infer.ErrDeadline) and answers 503 with Retry-After,
// counted in the deadline stat. d <= 0 disables (the default). Call
// before the handler starts serving.
func (h *HTTP) SetTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.timeout = d
}

// Close is a no-op: the handler owns no background state to release.
//
// Deprecated: nothing needs closing; shut down the http.Server and close
// the Server instead.
func (h *HTTP) Close() {}

// SetSnapshotReload makes Reload fetch a loaded snapshot (typically
// model.LoadFile on the model path — the mmap fast path) instead of a
// trainable model. The server takes ownership of each snapshot; the
// previous one is released once in-flight requests drain. Call before
// the handler starts serving.
func (h *HTTP) SetSnapshotReload(fn func() (*model.Snapshot, error)) {
	h.reloadSnap = fn
}

// Reload fetches a retrained model via the reload hook and swaps it in
// without disturbing in-flight requests.
func (h *HTTP) Reload() error {
	if h.reloadSnap != nil {
		sn, err := h.reloadSnap()
		if err != nil {
			return fmt.Errorf("serve: reload: %w", err)
		}
		h.srv.UpdateSnapshot(sn)
		h.reloads.Add(1)
		return nil
	}
	if h.reload == nil {
		return fmt.Errorf("serve: no reload source configured")
	}
	m, err := h.reload()
	if err != nil {
		return fmt.Errorf("serve: reload: %w", err)
	}
	h.srv.Update(m)
	h.reloads.Add(1)
	return nil
}

// Handler returns the route table. A panic anywhere under it answers
// 500 internal, is logged with its stack, and counts in /v1/stats
// (served.panics and served.errors); the process keeps serving.
func (h *HTTP) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+api.EndpointUnified.Path(), h.recommend)
	mux.HandleFunc("GET /v1/stats", h.stats)
	mux.Handle("GET /healthz", api.HealthzHandler())
	// unknown routes answer the structured envelope, not net/http's
	// plain-text 404, so every error a client sees parses the same way
	mux.Handle("/", api.NotFoundHandler())
	return api.Recover(mux, func(r *http.Request, v any) {
		h.panics.Add(1)
		h.errors.Add(1)
		log.Printf("serve: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
	})
}

// toRequest translates the wire form against the current snapshot: the
// strategy string resolves the plan shape and the shape-specific fields
// are validated for it.
func toRequest(wr api.RecommendRequest, c *model.Composed) (Request, error) {
	req := Request{
		User:              wr.User,
		K:                 wr.K,
		Offset:            wr.Offset,
		ExcludePurchased:  wr.ExcludePurchased,
		Categories:        wr.Categories,
		ExcludeCategories: wr.ExcludeCategories,
		Pruned:            wr.Pruned,
	}
	for _, b := range wr.Recent {
		req.Recent = append(req.Recent, dataset.Basket(b))
	}
	strat, err := infer.ParseStrategy(wr.Strategy)
	if err != nil {
		return req, err
	}
	switch strat {
	case infer.StrategyCascade:
		kf := wr.KeepFrac
		if len(kf) == 0 {
			if wr.Keep <= 0 {
				return req, fmt.Errorf("cascade request needs keep_frac or keep")
			}
			kf = infer.UniformCascade(c.Tree.Depth(), wr.Keep).KeepFrac
		}
		req.Cascade = &infer.CascadeConfig{KeepFrac: kf}
	case infer.StrategyDiversified:
		if wr.MaxPerCategory <= 0 {
			return req, fmt.Errorf("diversified request needs max_per_category > 0")
		}
		req.MaxPerCategory = wr.MaxPerCategory
		req.CatDepth = wr.CatDepth
	}
	return req, nil
}

// queryParams applies the per-request knobs carried as URL query
// parameters; parameters override the JSON body's fields.
func queryParams(r *http.Request, req *Request) error {
	qv := r.URL.Query()
	// ?workers=n and ?precision=f32|f64|int8 are validated (junk is a
	// client error) and otherwise ignored: the fan-out is the server's
	// pool, the tier is the host's, and no value changes the ranking
	if ws := qv.Get("workers"); ws != "" {
		if n, err := strconv.Atoi(ws); err != nil || n < 0 {
			return fmt.Errorf("bad workers parameter %q", ws)
		}
	}
	if ps := qv.Get("precision"); ps != "" {
		if _, err := model.ParsePrecision(ps); err != nil {
			return fmt.Errorf("bad precision parameter %q (want f32, f64 or int8)", ps)
		}
	}
	if es := qv.Get("exclude_purchased"); es != "" {
		v, err := strconv.ParseBool(es)
		if err != nil {
			return fmt.Errorf("bad exclude_purchased parameter %q", es)
		}
		req.ExcludePurchased = v
	}
	if cs := qv.Get("category"); cs != "" {
		nodes, err := infer.ParseIDList(cs)
		if err != nil {
			return fmt.Errorf("bad category parameter %q", cs)
		}
		req.Categories = nodes
	}
	if cs := qv.Get("exclude_category"); cs != "" {
		nodes, err := infer.ParseIDList(cs)
		if err != nil {
			return fmt.Errorf("bad exclude_category parameter %q", cs)
		}
		req.ExcludeCategories = nodes
	}
	if os := qv.Get("offset"); os != "" {
		n, err := strconv.Atoi(os)
		if err != nil || n < 0 {
			return fmt.Errorf("bad offset parameter %q", os)
		}
		req.Offset = n
	}
	// ?pruned=true turns on branch-and-bound retrieval (rankings are
	// byte-identical; the knob only changes the sweep's execution shape)
	if ps := qv.Get("pruned"); ps != "" {
		v, err := strconv.ParseBool(ps)
		if err != nil {
			return fmt.Errorf("bad pruned parameter %q", ps)
		}
		req.Pruned = v
	}
	return nil
}

func (h *HTTP) recommend(w http.ResponseWriter, r *http.Request) {
	// the per-request budget is armed before admission so the queue
	// wait spends it too — "-timeout 2s" bounds the request, not just
	// its sweep; admission still comes before the body parse so a
	// shed request costs a channel poll and a JSON error, not decoder
	// garbage
	ctx := r.Context()
	if h.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, h.timeout)
		defer cancel()
	}
	if h.adm != nil {
		release, code := h.adm.Acquire(ctx)
		if release == nil {
			h.shed(w, code)
			return
		}
		defer release()
	}
	// bound the body before the decoder touches it: a streamed
	// gigabyte must die at the limit, not in the decoder's buffers
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
	// pin one (epoch, snapshot) pair for request translation, cache
	// identity and execution, so a concurrent hot swap (which may
	// change taxonomy depth) cannot invalidate a request between the
	// steps — or stamp its result under the wrong cache epoch. The
	// reference also keeps a memory-mapped snapshot mapped until this
	// request finishes with it.
	epoch, ref := h.srv.pin()
	defer ref.release()
	c := ref.c
	req, err := toRequest(wr, c)
	if err != nil {
		h.fail(w, api.CodeBadRequest, err)
		return
	}
	if err := queryParams(r, &req); err != nil {
		h.fail(w, api.CodeBadRequest, err)
		return
	}
	resp := h.srv.run(ctx, epoch, c, req)
	if resp.Err != nil {
		// a deadline expired mid-sweep — the armed per-request budget or
		// a middleware deadline. That is load, not client error: shed
		// with Retry-After so well-behaved clients back off, and count
		// it so /v1/stats shows deadline pressure. The check is on the
		// wrapped cause, NOT on ErrDeadline alone: a client that hung
		// up mid-sweep also surfaces as ErrDeadline (wrapping
		// context.Canceled) and must not inflate the deadline stat.
		if errors.Is(resp.Err, context.DeadlineExceeded) {
			h.deadlines.Add(1)
			h.shed(w, api.CodeDeadlineExceeded)
			return
		}
		// a cancellation means the client went away mid-sweep — not a
		// serving error worth alerting on. Still write 503 in case the
		// connection is alive, so nothing reads as an empty 200.
		if errors.Is(resp.Err, context.Canceled) {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		// request validation failures are typed; anything else that
		// escapes the executor is a server fault, not a client error
		code := api.CodeInternal
		var reqErr *RequestError
		if errors.As(resp.Err, &reqErr) {
			code = api.CodeBadRequest
		}
		h.fail(w, code, resp.Err)
		return
	}
	if resp.Cached {
		h.cacheHits.Add(1)
	}
	h.plans.Add(1)
	h.writeJSON(w, toWire(c, ref.gen, req, resp.Items))
}

// shed answers a load-shedding rejection: 429 (wait queue full) or 503
// (queue wait or request deadline expired), with a Retry-After hinting
// clients to back off for a beat rather than hammering a saturated
// server. Sheds are intentional degradation, not serving errors, so the
// errors counter is untouched — the admission/deadline counters in
// /v1/stats carry them.
func (h *HTTP) shed(w http.ResponseWriter, code api.Code) {
	api.WriteError(w, api.ErrorDetail{Code: code, Message: shedMessage(code), RetryAfter: 1})
}

// shedMessage is the human line for each load-shedding code.
func shedMessage(code api.Code) string {
	switch code {
	case api.CodeQueueFull:
		return "admission queue full, retry later"
	case api.CodeDeadlineExceeded:
		return "request deadline exceeded, retry later"
	default:
		return "overloaded, retry later"
	}
}

// toWire renders a ranking as the wire response: items, the snapshot
// generation the ranking ran on, and the model's content fingerprint. A
// diversified ranking annotates each item with the taxonomy node its
// per-category quota was charged to — the field a scatter-gather router
// needs to re-apply the quota merge across shards.
func toWire(c *model.Composed, gen uint64, req Request, items []vecmath.Scored) api.RecommendResponse {
	out := api.RecommendResponse{
		Items:   make([]api.Item, len(items)),
		Epoch:   gen,
		ModelID: c.Fingerprint(),
	}
	catDepth := -1
	if req.MaxPerCategory > 0 {
		catDepth = infer.DiversifyDepth(c, req.CatDepth)
	}
	for i, s := range items {
		out.Items[i] = api.Item{Item: s.ID, Score: s.Score}
		if catDepth >= 0 {
			out.Items[i].Category = int32(c.Index.ItemCategory(s.ID, catDepth))
		}
	}
	return out
}

// statsResponse is the wire shape of GET /v1/stats (canonically
// api.Stats; aliased for the serve-level tests that decode it).
type statsResponse = api.Stats

func (h *HTTP) stats(w http.ResponseWriter, r *http.Request) {
	_, ref := h.srv.pin()
	defer ref.release()
	c := ref.c
	var out statsResponse
	out.Model.Epoch = h.srv.Epoch()
	out.Model.FormatVersion, out.Model.Mapped = h.srv.SnapshotInfo()
	out.Model.Users = c.User.Rows()
	out.Model.Items = c.NumItems()
	out.Model.Nodes = c.Tree.NumNodes()
	out.Model.Depth = c.Tree.Depth()
	out.Model.K = c.K()
	out.Model.MarkovOrder = c.P.MarkovOrder
	out.Model.UseBias = c.P.UseBias
	out.Model.ModelID = c.Fingerprint()
	if lo, hi, ok := h.srv.ItemRange(); ok {
		// the range assertion a router's topology bootstrap reads: which
		// contiguous catalog slice this process answers for
		out.Model.ItemRange = &api.ItemRange{Lo: lo, Hi: hi}
	}
	out.Served.Plan = h.plans.Load()
	out.Served.Errors = h.errors.Load()
	out.Served.Panics = h.panics.Load()
	out.Inference.PoolWorkers = h.srv.Pool().Workers()
	out.Inference.Precision = h.srv.Precision().String()
	out.Inference.I8Escalations = infer.I8Escalations()
	out.Inference.DiversifyRefetches = infer.DiversifyRefetches()
	out.Inference.Filters.ExcludePurchased, out.Inference.Filters.Category, out.Inference.Filters.Paged = h.srv.FilterStats()
	out.Inference.Kernels = vecmath.Kernels()
	ps := infer.PruneCounters()
	out.Inference.Pruning.SubtreesPruned = ps.SubtreesPruned
	out.Inference.Pruning.ItemsPruned = ps.ItemsPruned
	out.Inference.Pruning.BoundEvals = ps.BoundEvals
	out.Inference.Pruning.Fallbacks = ps.Fallbacks
	out.Inference.Pruning.Default = h.srv.pruned
	if cs, ok := h.srv.CacheStats(); ok {
		out.Cache = &api.StatsCache{CacheStats: cs, HTTPHits: h.cacheHits.Load()}
	}
	if h.adm != nil {
		as := h.adm.Stats()
		out.Admission = &as
	}
	out.DeadlineExceeded = h.deadlines.Load()
	out.TimeoutMS = h.timeout.Milliseconds()
	out.Goroutines = runtime.NumGoroutine()
	out.Reloads = h.reloads.Load()
	out.UptimeSeconds = time.Since(h.start).Seconds()
	h.writeJSON(w, out)
}

func (h *HTTP) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		h.errors.Add(1)
	}
}

func (h *HTTP) fail(w http.ResponseWriter, code api.Code, err error) {
	h.errors.Add(1)
	api.WriteError(w, api.ErrorDetail{Code: code, Message: err.Error()})
}

// Package serve wraps a trained TF model in a concurrency-safe
// recommendation service: requests run against an immutable composed
// snapshot, and a retrained model can be swapped in atomically without
// blocking in-flight requests — the deployment shape a recommender needs
// when training (§6.1) runs continuously beside serving (§5).
//
// A Request is translated into exactly one infer.Plan and executed by the
// plan executor; strategy, result page, item filters and pruning are all
// plan fields, so the serving layer carries no per-shape dispatch of its
// own. The sweep tier is the host's (model.PrecisionDefault.Resolve) and
// the fan-out is the server's pool (WithWorkers): neither varies per
// request.
package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/model"
	"repro/internal/vecmath"
)

// RequestError marks a client-side request validation failure. The HTTP
// layer renders it (and only it) as a 400; anything else escaping the
// executor is a server fault.
type RequestError struct{ msg string }

// Error returns the client-facing validation message.
func (e *RequestError) Error() string { return e.msg }

// badRequestf builds a RequestError with the package's error prefix.
func badRequestf(format string, args ...any) *RequestError {
	return &RequestError{msg: "serve: " + fmt.Sprintf(format, args...)}
}

// snapshotRef pairs a servable snapshot with the reference count guarding
// its backing memory. A memory-mapped snapshot (model.LoadFile) is only
// unmapped when the last request pinned to it finishes — the owner
// reference held by the Server plus one reference per in-flight pin — so
// a hot swap never pulls mapped slabs out from under a sweep.
type snapshotRef struct {
	c  *model.Composed
	sn *model.Snapshot // nil when composed in-process from a *TF
	// gen is the snapshot's generation: 0 for the construction snapshot,
	// then the swap counter's value when this ref was installed. Stamped
	// into responses as their "epoch" — a request reports the generation
	// it actually ran on, not whatever the counter says at write time.
	gen uint64

	refs      atomic.Int64 // starts at 1: the Server's owner reference
	closeOnce sync.Once
}

func newSnapshotRef(c *model.Composed, sn *model.Snapshot) *snapshotRef {
	r := &snapshotRef{c: c, sn: sn}
	r.refs.Store(1)
	return r
}

// release drops one reference; the last one out closes the backing
// snapshot (unmapping it, for a mapped model). closeOnce keeps a stray
// extra release from double-closing.
func (r *snapshotRef) release() {
	if r.refs.Add(-1) == 0 && r.sn != nil {
		r.closeOnce.Do(func() { r.sn.Close() })
	}
}

// Server answers recommendation queries from the latest model snapshot.
// All methods are safe for concurrent use.
type Server struct {
	snap atomic.Pointer[snapshotRef]
	// gen counts snapshot generations: 0 for the construction snapshot,
	// +1 per Update/UpdateSnapshot. Logged by tfrec-serve on every load.
	gen  atomic.Uint64
	pool sync.Pool // *[]float64 query buffers, length-checked per use
	// sweep, when non-nil, is the sharded parallel inference pool; every
	// request fans its catalog sweep across it. Nil means every request
	// runs serial.
	sweep *infer.Pool
	// purchased[user] lists the distinct items of the user's recorded
	// purchase history (WithHistory); exclude-purchased filters are built
	// from it plus the request's Recent baskets.
	purchased [][]int32
	// cache, when non-nil, is the versioned LRU result cache (WithCache):
	// finished rankings keyed by canonicalized request, stamped with the
	// model epoch, invalidated wholesale by Update's epoch bump. Hits
	// skip the sweep entirely.
	cache *resultCache
	// rangeLo/rangeHi, when rangeHi > rangeLo, scope every request to the
	// catalog slice [rangeLo, rangeHi) — shard mode (WithItemRange). The
	// full model is loaded either way; the range is an eligibility mask
	// intersected into each request's plan filter.
	rangeLo, rangeHi int

	// filter usage counters, surfaced via FilterStats and /v1/stats.
	filterExcluded atomic.Int64
	filterCategory atomic.Int64
	filterPaged    atomic.Int64
}

// Option configures a Server at construction.
type Option func(*Server)

// WithWorkers gives the server a sharded parallel inference pool of the
// given total parallelism (0 = GOMAXPROCS). A value of 1 keeps all
// request sweeps serial — the pre-pool behavior.
func WithWorkers(n int) Option {
	return func(s *Server) {
		if n == 1 {
			return
		}
		s.sweep = infer.NewPool(n)
	}
}

// WithHistory supplies the purchase log backing exclude-purchased
// filtering: a request with ExcludePurchased drops every item of the
// user's recorded history plus the request's Recent baskets. Without this
// option only the Recent baskets are known (session traffic works the
// same way). The log is snapshotted at construction; it is filter
// metadata, not model state, so Update does not touch it.
func WithHistory(d *dataset.Dataset) Option {
	return func(s *Server) {
		purchased := make([][]int32, d.NumUsers())
		for u := range d.Users {
			set := d.Users[u].ItemSet()
			items := make([]int32, 0, len(set))
			for it := range set {
				items = append(items, it)
			}
			slices.Sort(items)
			purchased[u] = items
		}
		s.purchased = purchased
	}
}

// WithCache gives the server a versioned LRU result cache holding up to
// n finished rankings (n <= 0 disables caching, the default). Entries
// are keyed by the request's canonical identity — user, recent baskets,
// strategy config, filters, page — and stamped with the model epoch;
// Update bumps the epoch atomically, so a hot swap invalidates every
// cached ranking at once without blocking readers. A hit returns the
// stored ranking (shared, read-only) without touching the sweep pool.
func WithCache(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.cache = newResultCache(n)
		}
	}
}

// WithItemRange scopes the server to the half-open catalog slice
// [lo, hi) — the shard-scoped serving mode behind a scatter-gather
// router. The server still loads the whole model (queries need the full
// taxonomy and factor slabs), but every ranking only considers items in
// the range: the range is compiled into each request's eligibility mask,
// so it composes with category filters, exclusions, pagination and every
// strategy/precision/pruning combination, and the adaptive masked sweep
// skips out-of-range blocks cheaply. hi <= lo disables (the default,
// full catalog). The range is validated against the snapshot at request
// time; cmd/tfrec-serve also checks it at startup.
func WithItemRange(lo, hi int) Option {
	return func(s *Server) { s.rangeLo, s.rangeHi = lo, hi }
}

// New builds a server from a trained model (the model is snapshotted; the
// caller may keep training it and call Update later).
func New(m *model.TF, opts ...Option) *Server {
	return newServer(newSnapshotRef(m.Compose(), nil), opts)
}

// newServer applies the options, then warms and publishes the first
// snapshot.
func newServer(r *snapshotRef, opts []Option) *Server {
	s := &Server{}
	for _, opt := range opts {
		opt(s)
	}
	r.c.Index.Warm()
	s.snap.Store(r)
	return s
}

// NewSnapshot builds a server directly from a loaded snapshot — the
// zero-Compose serving path for memory-mapped v4 model files
// (model.LoadFile). The server takes ownership: the snapshot is closed
// when it is swapped out (UpdateSnapshot) and no request still pins it,
// or at Close.
func NewSnapshot(sn *model.Snapshot, opts ...Option) *Server {
	return newServer(newSnapshotRef(sn.Composed, sn), opts)
}

// Close releases the server's inference pool, if any, and drops the owner
// reference on the current snapshot (unmapping a mapped model once no
// request still pins it). Call once; must not race with new requests.
func (s *Server) Close() {
	s.sweep.Close()
	s.snap.Load().release()
}

// Pool exposes the server's inference pool (nil when serving serially).
func (s *Server) Pool() *infer.Pool { return s.sweep }

// Precision returns the tier every request's sweep runs at: the host's
// tier (model.PrecisionDefault.Resolve) — int8 where the fused kernel
// runs, the exact f64 sweep elsewhere.
func (s *Server) Precision() model.Precision {
	return model.PrecisionDefault.Resolve()
}

// ranged reports whether the server is shard-scoped (WithItemRange).
func (s *Server) ranged() bool { return s.rangeHi > s.rangeLo }

// ItemRange reports the shard scope; ok is false on a full-catalog
// server.
func (s *Server) ItemRange() (lo, hi int, ok bool) {
	return s.rangeLo, s.rangeHi, s.ranged()
}

// FilterStats reports how many served requests used each filter
// capability: exclude-purchased, category allow/deny lists, and non-zero
// pagination offsets.
func (s *Server) FilterStats() (excludePurchased, category, paged int64) {
	return s.filterExcluded.Load(), s.filterCategory.Load(), s.filterPaged.Load()
}

// Update atomically swaps in a fresh snapshot of the (re)trained model.
// In-flight requests finish on the old snapshot.
func (s *Server) Update(m *model.TF) {
	s.swap(newSnapshotRef(m.Compose(), nil))
}

// UpdateSnapshot atomically swaps in a loaded snapshot (typically a
// freshly memory-mapped v4 file). In-flight requests finish on the old
// snapshot; the old snapshot's backing memory is released — unmapped,
// for a mapped model — only after the last request pinned to it drains.
// The server takes ownership of sn.
func (s *Server) UpdateSnapshot(sn *model.Snapshot) {
	s.swap(newSnapshotRef(sn.Composed, sn))
}

// swap installs a new snapshot reference. The snapshot is stored BEFORE
// the cache epoch is bumped: a request pinning the new epoch is then
// guaranteed to load the new snapshot, so a result computed on the old
// model can never be stamped current (see resultCache). The old owner
// reference is dropped last, after the swap, so acquire's re-check
// ordering holds (see acquire).
func (s *Server) swap(r *snapshotRef) {
	// build the slabs a request sweeps before r is published, so
	// quantizing or down-converting a Compose()-built or gob-loaded
	// catalog never lands on a request
	r.c.Index.Warm()
	// the ref's generation is assigned before the pointer is published, so
	// a pin can never observe a ref with a stale gen
	r.gen = s.gen.Add(1)
	old := s.snap.Swap(r)
	if s.cache != nil {
		s.cache.BumpEpoch()
	}
	old.release()
}

// Epoch reports the snapshot generation counter: 0 for the snapshot the
// server was built with, +1 per hot swap. For startup/reload logging.
func (s *Server) Epoch() uint64 { return s.gen.Load() }

// SnapshotInfo reports the live snapshot's provenance: the model file
// format version it was loaded from (-1 when it was composed in-process
// from a *TF, 0 for a legacy headerless gob file) and whether its slabs
// are memory-mapped.
func (s *Server) SnapshotInfo() (format int, mapped bool) {
	r := s.acquire()
	defer r.release()
	if r.sn == nil {
		return -1, false
	}
	return r.sn.Format, r.sn.Mapped
}

// acquire takes a reference on the current snapshot. The re-check makes
// the count race-free against swap: if the pointer still equals r after
// our increment, the owner reference had not yet been released when we
// incremented (swap stores the new pointer before releasing the old
// owner), so the count was ≥ 2 and the snapshot cannot close under us.
// If the pointer moved, our increment may have hit an already-closed
// ref — harmless, the struct is heap-managed — and we retry on the new
// one.
func (s *Server) acquire() *snapshotRef {
	for {
		r := s.snap.Load()
		r.refs.Add(1)
		if s.snap.Load() == r {
			return r
		}
		r.release()
	}
}

// pin captures the (epoch, snapshot) pair one request runs under,
// holding a reference the caller must release. The epoch is read before
// the snapshot — the ordering swap's store/bump sequence pairs with; see
// resultCache for the two-sided argument.
func (s *Server) pin() (uint64, *snapshotRef) {
	var epoch uint64
	if s.cache != nil {
		epoch = s.cache.Epoch()
	}
	return epoch, s.acquire()
}

// CacheStats reports the result cache's counters; ok is false when the
// server was built without a cache.
func (s *Server) CacheStats() (CacheStats, bool) {
	if s.cache == nil {
		return CacheStats{}, false
	}
	return s.cache.Stats(), true
}

// Snapshot returns the current composed snapshot (for metrics endpoints
// and tests). It is an unguarded peek: the returned snapshot may be
// swapped out and — if memory-mapped — closed at any time; request paths
// use pin/release instead.
func (s *Server) Snapshot() *model.Composed {
	return s.snap.Load().c
}

// getBuf returns a query buffer of length k, recycling across requests.
func (s *Server) getBuf(k int) []float64 {
	if v := s.pool.Get(); v != nil {
		buf := *(v.(*[]float64))
		if len(buf) == k {
			return buf
		}
	}
	return make([]float64, k)
}

func (s *Server) putBuf(buf []float64) {
	s.pool.Put(&buf)
}

// Request is one recommendation query. Recent lists the user's latest
// baskets most-recent first (drives the short-term Markov term); K is the
// result size. Session requests (no known user) set User to -1.
type Request struct {
	User   int
	Recent []dataset.Basket
	K      int
	// Offset skips the first Offset ranked items — pagination. K items
	// are still returned (filters and ranking apply before the page cut).
	Offset int
	// Cascade, when non-nil, uses §5.1 cascaded inference instead of the
	// full scan.
	Cascade *infer.CascadeConfig
	// MaxPerCategory > 0 diversifies the result (at CatDepth, default the
	// lowest category level).
	MaxPerCategory int
	CatDepth       int
	// ExcludePurchased drops every item the user is known to have bought:
	// the recorded history (WithHistory) plus this request's Recent
	// baskets.
	ExcludePurchased bool
	// Categories, when non-empty, restricts results to items under these
	// taxonomy nodes (union); ExcludeCategories removes items under its
	// nodes.
	Categories        []int32
	ExcludeCategories []int32
	// Deprecated: Precision is ignored. Every request sweeps at the
	// host's tier (Server.Precision), and every tier returns the exact
	// f64 ranking, so no value could change the answer.
	Precision model.Precision
	// Deprecated: Pruned is ignored. Naive and diversified requests always
	// run the exact category sweep.
	Pruned bool
}

// hasFilter reports whether the request carries any item filter.
func (r Request) hasFilter() bool {
	return r.ExcludePurchased || len(r.Categories) > 0 || len(r.ExcludeCategories) > 0
}

// validate checks a request against the snapshot. Every rejection is a
// *RequestError, which the HTTP layer maps to a 400; request shapes that
// previously fell through to panics (out-of-range basket items) or
// silent clamps (k beyond the catalog) are rejected here.
func (r Request) validate(c *model.Composed) error {
	if r.K <= 0 {
		return badRequestf("K must be positive, got %d", r.K)
	}
	if n := c.NumItems(); r.K > n {
		return badRequestf("K %d exceeds the catalog size %d", r.K, n)
	}
	if r.Offset < 0 {
		return badRequestf("offset must be non-negative, got %d", r.Offset)
	}
	if n := c.NumItems(); r.Offset > n {
		// an offset past the catalog can only yield an empty page, and an
		// unbounded one would size a K+Offset heap — reject it at the
		// boundary so a single request cannot demand a giant allocation
		return badRequestf("offset %d beyond the catalog size %d", r.Offset, n)
	}
	if r.User != -1 && (r.User < 0 || r.User >= c.User.Rows()) {
		return badRequestf("user %d out of range [0,%d)", r.User, c.User.Rows())
	}
	if r.User == -1 && c.P.MarkovOrder == 0 {
		return badRequestf("session requests need a model with MarkovOrder > 0")
	}
	for _, b := range r.Recent {
		for _, item := range b {
			if item < 0 || int(item) >= c.NumItems() {
				return badRequestf("recent basket item %d out of range [0,%d)", item, c.NumItems())
			}
		}
	}
	numNodes := c.Tree.NumNodes()
	for _, node := range r.Categories {
		if node < 0 || int(node) >= numNodes {
			return badRequestf("category node %d out of range [0,%d)", node, numNodes)
		}
	}
	for _, node := range r.ExcludeCategories {
		if node < 0 || int(node) >= numNodes {
			return badRequestf("exclude_category node %d out of range [0,%d)", node, numNodes)
		}
	}
	return nil
}

// filterFor translates the request's filter fields into the plan filter,
// or nil when the request filters nothing.
func (s *Server) filterFor(req Request) *infer.Filter {
	if !req.hasFilter() && !s.ranged() {
		return nil
	}
	f := &infer.Filter{
		AllowNodes: req.Categories, DenyNodes: req.ExcludeCategories,
		RangeLo: s.rangeLo, RangeHi: s.rangeHi,
	}
	if req.ExcludePurchased {
		if req.User >= 0 && req.User < len(s.purchased) {
			f.ExcludeItems = append(f.ExcludeItems, s.purchased[req.User]...)
		}
		for _, b := range req.Recent {
			f.ExcludeItems = append(f.ExcludeItems, b...)
		}
	}
	return f
}

// planFor translates a validated request into its query plan. The plan
// leaves Precision at its default, which infer resolves to the host's
// tier (Server.Precision).
func (s *Server) planFor(req Request) infer.Plan {
	pl := infer.Plan{
		K:      req.K,
		Offset: req.Offset,
		Filter: s.filterFor(req),
	}
	switch {
	case req.Cascade != nil:
		pl.Strategy = infer.StrategyCascade
		pl.Cascade = req.Cascade
	case req.MaxPerCategory > 0:
		pl.Strategy = infer.StrategyDiversified
		pl.Diversify = &infer.Diversify{MaxPerCategory: req.MaxPerCategory, CatDepth: req.CatDepth}
	}
	return pl
}

// countFilters bumps the filter usage counters for one served request.
func (s *Server) countFilters(req Request) {
	if req.ExcludePurchased {
		s.filterExcluded.Add(1)
	}
	if len(req.Categories) > 0 || len(req.ExcludeCategories) > 0 {
		s.filterCategory.Add(1)
	}
	if req.Offset > 0 {
		s.filterPaged.Add(1)
	}
}

// Recommend executes one request against the current snapshot.
func (s *Server) Recommend(req Request) ([]vecmath.Scored, error) {
	return s.RecommendContext(context.Background(), req)
}

// RecommendContext is Recommend under a context: a deadline or
// cancellation firing mid-sweep abandons the query at the next shard
// boundary and returns infer.ErrDeadline — never a partial ranking.
func (s *Server) RecommendContext(ctx context.Context, req Request) ([]vecmath.Scored, error) {
	epoch, ref := s.pin()
	defer ref.release()
	resp := s.run(ctx, epoch, ref.c, req)
	return resp.Items, resp.Err
}

// execHook, when non-nil, runs just before a request reaches the
// executor; the panic-containment tests inject faults through it.
var execHook func()

// run executes one request against a pinned (epoch, snapshot) pair with
// a pooled query buffer. It is the single dispatch point shared by
// Recommend, Batch and the HTTP handler:
// request → cache lookup → plan → Execute → cache fill.
func (s *Server) run(ctx context.Context, epoch uint64, c *model.Composed, req Request) Response {
	if err := req.validate(c); err != nil {
		return Response{Err: err}
	}
	s.countFilters(req)
	var key string
	if s.cache != nil {
		key = cacheKey(&req)
		if items, ok := s.cache.Get(epoch, key); ok {
			return Response{Items: items, Cached: true}
		}
	}
	q := s.getBuf(c.K())
	defer s.putBuf(q)
	if req.User == -1 {
		c.BuildSessionQueryInto(req.Recent, q)
	} else {
		c.BuildQueryInto(req.User, req.Recent, q)
	}
	if execHook != nil {
		execHook()
	}
	res, err := s.sweep.Execute(ctx, c, q, s.planFor(req))
	if err != nil {
		// a fired deadline is the caller's budget running out, not a bad
		// request: pass it through typed so the HTTP layer sheds (503)
		// instead of blaming the client
		if errors.Is(err, infer.ErrDeadline) {
			return Response{Err: err}
		}
		// other Execute errors are plan validation failures by contract,
		// and the plan is built from the request — so a rejection (bad
		// keep fractions, impossible category depth) is a client error
		return Response{Err: &RequestError{msg: err.Error()}}
	}
	if s.cache != nil {
		s.cache.Put(epoch, key, res.Items)
	}
	return Response{Items: res.Items}
}

// Response pairs a request's result with its error. Cached reports that
// Items came from the result cache (and is shared — read-only).
type Response struct {
	Items  []vecmath.Scored
	Err    error
	Cached bool
}

// Batch executes requests concurrently across workers goroutines
// (<=0 uses one per request up to 16) against a single consistent
// snapshot. Query buffers come from the server's pool, so a steady batch
// load allocates no per-request scratch.
func (s *Server) Batch(reqs []Request, workers int) []Response {
	if workers <= 0 {
		workers = len(reqs)
		if workers > 16 {
			workers = 16
		}
	}
	if workers > len(reqs) {
		workers = len(reqs)
	}
	out := make([]Response, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	// pin one snapshot for the whole batch so results are mutually
	// consistent even if Update races
	epoch, ref := s.pin()
	defer ref.release()
	c := ref.c
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(reqs); i += workers {
				out[i] = s.run(context.Background(), epoch, c, reqs[i])
			}
		}(w)
	}
	wg.Wait()
	return out
}

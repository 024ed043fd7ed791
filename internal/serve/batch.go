package serve

import (
	"context"
	"errors"
	"log"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/infer"
	"repro/internal/model"
	"repro/internal/vecmath"
)

// Batcher coalesces concurrent Recommend calls into one multi-query sweep
// over the shared factor slab. Full-scan requests arriving within a short
// window are collected into a micro-batch and executed by
// infer.Pool.ExecuteBatch (through the server's pool when it has one): each
// cache-sized shard of the item slab is read once and scored against
// every query in the batch, so B coalesced requests stream the catalog's
// factors through memory once instead of B times. Cascaded and
// diversified requests, whose access patterns don't share the full sweep,
// fall through to the per-request path inside the same batch.
//
// A batch is cut when it reaches MaxBatch requests or when the oldest
// request has waited Window; every request in a batch runs against one
// pinned snapshot, so a concurrent hot swap never splits a batch across
// models.
type Batcher struct {
	s        *Server
	maxBatch int
	window   time.Duration

	mu     sync.Mutex
	cur    *microBatch
	closed bool

	batches   atomic.Int64
	coalesced atomic.Int64
}

// microBatch is one in-flight coalescing unit; done is closed after
// resps is fully populated.
type microBatch struct {
	reqs  []Request
	resps []Response
	timer *time.Timer
	done  chan struct{}
}

// NewBatcher wraps the server in a coalescing front. maxBatch < 1 is
// clamped to 1 (every request is its own batch); window <= 0 defaults to
// 500µs — long enough to coalesce under load, short enough to be noise
// next to a catalog sweep.
func NewBatcher(s *Server, maxBatch int, window time.Duration) *Batcher {
	if maxBatch < 1 {
		maxBatch = 1
	}
	if window <= 0 {
		window = 500 * time.Microsecond
	}
	return &Batcher{s: s, maxBatch: maxBatch, window: window}
}

// Recommend executes one request through the coalescing front, blocking
// until its batch is cut and swept (at most Window plus the sweep time).
func (b *Batcher) Recommend(req Request) ([]vecmath.Scored, error) {
	return b.RecommendContext(context.Background(), req)
}

// RecommendContext is Recommend with cancellation: a caller whose ctx
// ends while its batch is still pending stops waiting and gets ctx's
// error. The request itself stays in the batch — the sweep is shared
// work that other coalesced callers are waiting on, so one abandoned
// caller never cancels or re-cuts the batch; its slot is simply computed
// and discarded.
func (b *Batcher) RecommendContext(ctx context.Context, req Request) ([]vecmath.Scored, error) {
	b.mu.Lock()
	if b.closed {
		// a closed batcher still answers — shutdown must not strand late
		// arrivals — it just stops coalescing them
		b.mu.Unlock()
		epoch, ref := b.s.pin()
		defer ref.release()
		resp := b.s.run(ctx, epoch, ref.c, req)
		return resp.Items, resp.Err
	}
	mb := b.cur
	if mb == nil {
		mb = &microBatch{done: make(chan struct{})}
		b.cur = mb
		mb.timer = time.AfterFunc(b.window, func() { b.cutAndRun(mb) })
	}
	idx := len(mb.reqs)
	mb.reqs = append(mb.reqs, req)
	if len(mb.reqs) >= b.maxBatch {
		b.detachLocked(mb)
		b.mu.Unlock()
		b.run(mb)
	} else {
		b.mu.Unlock()
	}
	select {
	case <-mb.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	resp := mb.resps[idx]
	return resp.Items, resp.Err
}

// Close flushes the batcher: the pending micro-batch (if any) is cut and
// executed immediately, so callers blocked on a long window get their
// results now instead of hanging into shutdown. Calls arriving after
// Close execute unbatched. Close is idempotent and safe to race with
// Recommend and the window timer.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	mb := b.cur
	if mb != nil {
		b.detachLocked(mb)
	}
	b.mu.Unlock()
	if mb != nil {
		b.run(mb)
	}
}

// cutAndRun is the window-expiry path; it is a no-op if the size trigger
// already detached the batch.
func (b *Batcher) cutAndRun(mb *microBatch) {
	b.mu.Lock()
	if b.cur != mb {
		b.mu.Unlock()
		return
	}
	b.detachLocked(mb)
	b.mu.Unlock()
	b.run(mb)
}

func (b *Batcher) detachLocked(mb *microBatch) {
	b.cur = nil
	mb.timer.Stop()
}

// errPanicked fails every request of a coalesced batch whose execution
// panicked. The batch may run on the window timer's goroutine, where an
// unrecovered panic would kill the process; the HTTP layer answers it
// 500 internal and counts it with the handler-level panics.
var errPanicked = errors.New("serve: batch execution panicked")

// run executes a detached batch: full-scan requests share one multi-query
// plan batch, everything else runs per-request, all against one snapshot.
// A panic fails the whole batch — its shared sweep is one unit of work —
// and is logged; waiters are released either way.
func (b *Batcher) run(mb *microBatch) {
	mb.resps = make([]Response, len(mb.reqs))
	defer close(mb.done)
	defer func() {
		if v := recover(); v != nil {
			log.Printf("serve: batch of %d panicked: %v\n%s", len(mb.reqs), v, debug.Stack())
			for i := range mb.resps {
				mb.resps[i] = Response{Err: errPanicked}
			}
		}
	}()
	epoch, ref := b.s.pin()
	defer ref.release()
	c := ref.c
	batchPrec := b.s.effectivePrecision(c, Request{})
	var (
		qs   [][]float64
		pls  []infer.Plan
		idxs []int
	)
	for i, req := range mb.reqs {
		// the multi-query sweep is shared work at one precision and one
		// visitation pattern, so a request pinning a different precision,
		// carrying an item filter, or asking for the pruned descent (whose
		// visitation depends on the query) — as well as the cascaded and
		// diversified shapes — sub-groups onto the per-request path, where
		// its plan holds in full
		if req.Cascade != nil || req.MaxPerCategory > 0 || req.hasFilter() ||
			req.Pruned || b.s.pruned || b.s.ranged() ||
			(req.Precision != model.PrecisionDefault && req.Precision != batchPrec) {
			mb.resps[i] = b.s.run(context.Background(), epoch, c, req)
			continue
		}
		if err := req.validate(c); err != nil {
			mb.resps[i] = Response{Err: err}
			continue
		}
		b.s.countFilters(req)
		q := b.s.getBuf(c.K())
		if req.User == -1 {
			c.BuildSessionQueryInto(req.Recent, q)
		} else {
			c.BuildQueryInto(req.User, req.Recent, q)
		}
		qs = append(qs, q)
		pls = append(pls, infer.Plan{K: req.K, Offset: req.Offset, Precision: batchPrec})
		idxs = append(idxs, i)
	}
	if len(qs) > 0 {
		if execHook != nil {
			execHook()
		}
		results, err := b.s.sweep.ExecuteBatch(context.Background(), c, qs, pls)
		for j, i := range idxs {
			if err != nil {
				// by construction every batched plan is an unfiltered naive
				// plan at one precision, so this cannot trip; degrade to a
				// per-request answer rather than failing the whole batch
				mb.resps[i] = b.s.run(context.Background(), epoch, c, mb.reqs[i])
			} else {
				mb.resps[i] = Response{Items: results[j].Items}
				if b.s.cache != nil {
					// batched answers feed the same epoch-stamped cache the
					// per-request path fills, so a hot key coalesced once is
					// a cache hit from then on
					b.s.cache.Put(epoch, cacheKey(&mb.reqs[i]), results[j].Items)
				}
			}
			b.s.putBuf(qs[j])
		}
	}
	b.batches.Add(1)
	b.coalesced.Add(int64(len(mb.reqs)))
}

// Stats reports how many batches were cut and how many requests they
// carried in total (coalesced/batches is the mean batch size).
func (b *Batcher) Stats() (batches, coalesced int64) {
	return b.batches.Load(), b.coalesced.Load()
}

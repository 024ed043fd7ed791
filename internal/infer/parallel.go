package infer

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/vecmath"
)

// Pool is a persistent worker pool for sharded parallel inference. The
// scoring index partitions the item-major slab into cache-sized shards
// (model.ScoringIndex.Shard); a query is fanned out to the pool, each
// participant claims shards off a shared atomic counter, sweeps them into
// its own bounded top-k heap, and the partial heaps are merged into the
// caller's collector. Because a bounded heap retains exactly the k best
// entries under the (score desc, ID asc) total order, the merged ranking
// is byte-identical to the serial sweep — order and tie-breaks included —
// for any shard size and worker count.
//
// The submitting goroutine always works too: a pool of n workers runs
// n-1 background goroutines and the caller claims shards alongside them,
// so Pool parallelism equals the requested worker count and a pool is
// never idle-waiting on itself. All methods are safe for concurrent use
// and fall back to the serial path when the pool is nil, sized 1, or the
// catalog has a single shard. Steady-state queries perform no heap
// allocation: tasks and scratch heaps are recycled via sync.Pool and
// per-worker state persists across queries.
//
// Queries enter through Execute/ExecuteInto (plan.go).
type Pool struct {
	workers   int
	tasks     chan *sweepTask
	heaps     sync.Pool // *vecmath.TopKStream for submitting goroutines
	sweeps    sync.Pool // *sweepTask
	closeOnce sync.Once
}

// TaskPanic is what a query re-raises on its submitting goroutine when a
// participant of its pooled sweep panicked: the recovered value and the
// stack of the goroutine it was recovered on. The pool itself survives —
// every participant still signals completion and the worker goroutines
// keep serving — so only the query that hit the fault fails.
type TaskPanic struct {
	Value any
	Stack []byte
}

// Error renders the panic value and the participant's stack.
func (p *TaskPanic) Error() string {
	return fmt.Sprintf("infer: pooled sweep panicked: %v\n\n%s", p.Value, p.Stack)
}

// taskHook, when non-nil, runs at the start of every participant's share
// of a pooled task; mergeHook runs under the task's merge mutex, just
// before the participant merges its heaps into the query's collectors.
// The panic-containment tests inject faults through them.
var taskHook, mergeHook func()

// runTask runs one participant's share of t. A panic is recovered into
// t — the first one wins — so the participant still reaches its wg.Done
// and a background worker lives on to serve the next query.
func runTask(t *sweepTask, st *vecmath.TopKStream) {
	defer func() {
		if v := recover(); v != nil {
			t.panicMu.Lock()
			if t.panic == nil {
				t.panic = &TaskPanic{Value: v, Stack: debug.Stack()}
			}
			t.panicMu.Unlock()
		}
	}()
	if taskHook != nil {
		taskHook()
	}
	t.run(st)
}

// NewPool starts a pool of the given total parallelism; workers <= 0 uses
// runtime.GOMAXPROCS(0). Call Close when done to release the background
// goroutines.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers, tasks: make(chan *sweepTask, workers*2)}
	p.heaps.New = func() any { return new(vecmath.TopKStream) }
	for i := 1; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Workers returns the pool's total parallelism (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Close shuts the background workers down. It must not race with
// in-flight queries; a nil pool is a no-op.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.closeOnce.Do(func() { close(p.tasks) })
}

func (p *Pool) worker() {
	st := new(vecmath.TopKStream)
	for t := range p.tasks {
		runTask(t, st)
		t.wg.Done()
	}
}

// fanout caps the participants for a query: the pool size, the caller's
// per-request limit (maxWorkers, 0 = no limit), and the number of
// independent work parts all bound it. A result of 1 means "run serial".
func (p *Pool) fanout(maxWorkers, parts int) int {
	if p == nil {
		return 1
	}
	fan := p.workers
	if maxWorkers > 0 && maxWorkers < fan {
		fan = maxWorkers
	}
	if parts < fan {
		fan = parts
	}
	return fan
}

// dispatch hands the task to fan-1 background workers, runs the caller's
// share on a borrowed heap, and waits for everyone. If any participant
// panicked, the *TaskPanic is re-raised here, on the submitting
// goroutine, only after every participant is done — so nothing still
// writes into the caller's collectors while its stack unwinds. The task
// is then dropped rather than recycled.
func (p *Pool) dispatch(t *sweepTask, fan int) {
	t.wg.Add(fan - 1)
	for i := 0; i < fan-1; i++ {
		p.tasks <- t
	}
	st := p.heaps.Get().(*vecmath.TopKStream)
	runTask(t, st)
	p.heaps.Put(st)
	t.wg.Wait()
	if t.panic != nil {
		panic(t.panic)
	}
}

// ---- single-query sweep -------------------------------------------------

// sweepTask is the fan-out state of one parallel single-query sweep at
// any tier: participants claim work units from next — the index's shards
// when ranges is nil, else the pruned descent's deferred ranges — sweep
// them into per-worker heaps of budget k, and merge those into out (the
// final collector, or a reduced tier's candidate heap; the caller owns
// the rescore stage). A non-nil mask restricts the sweep to eligible
// items (filtered plans). wg is the dispatch's completion group and
// panic the first panic any participant recovered.
type sweepTask struct {
	wg      sync.WaitGroup
	panicMu sync.Mutex
	panic   *TaskPanic
	ix      *model.ScoringIndex
	tq      tierQuery
	k       int
	mask    *vecmath.Bitset
	ranges  []itemRange
	done    <-chan struct{}
	units   int32
	next    atomic.Int32
	mu      sync.Mutex
	out     *vecmath.TopKStream
}

func (t *sweepTask) run(st *vecmath.TopKStream) {
	st.Reset(t.k)
	var b blockBuf
	for !canceled(t.done) {
		u := int(t.next.Add(1)) - 1
		if u >= int(t.units) {
			break
		}
		if t.ranges == nil {
			lo, hi := t.ix.Shard(u)
			sweepRange(t.ix, &t.tq, lo, hi, &b, t.mask, st)
		} else {
			t.ranges[u].sweep(t.ix, &t.tq, &b, t.mask, st)
		}
	}
	if st.Len() > 0 {
		t.merge(st)
	}
}

// merge folds one participant's heap into the query's collector. The
// deferred unlock keeps a panic in Merge from leaving the mutex held,
// which would block every other participant and so the dispatch.
func (t *sweepTask) merge(st *vecmath.TopKStream) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if mergeHook != nil {
		mergeHook()
	}
	t.out.Merge(st)
}

// fanSweep sweeps the index's shards — or ranges, when non-nil — across
// fan participants into st.
func (p *Pool) fanSweep(done <-chan struct{}, ix *model.ScoringIndex, tq *tierQuery, mask *vecmath.Bitset, ranges []itemRange, fan int, st *vecmath.TopKStream) {
	t, _ := p.sweeps.Get().(*sweepTask)
	if t == nil {
		t = new(sweepTask)
	}
	t.ix, t.tq, t.k, t.mask, t.ranges, t.done, t.out = ix, *tq, st.K(), mask, ranges, done, st
	t.units = int32(ix.NumShards())
	if ranges != nil {
		t.units = int32(len(ranges))
	}
	t.next.Store(0)
	p.dispatch(t, fan)
	t.ix, t.tq, t.mask, t.ranges, t.done, t.out = nil, tierQuery{}, nil, nil, nil, nil
	p.sweeps.Put(t)
}

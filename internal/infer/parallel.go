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
// Queries enter through Execute/ExecuteInto/ExecuteBatch (plan.go).
type Pool struct {
	workers   int
	tasks     chan task
	scratches sync.Pool // *scratch for submitting goroutines
	sweeps    sync.Pool // *sweepTask
	multis    sync.Pool // *multiTask
	prunes    sync.Pool // *pruneTask
	closeOnce sync.Once
}

// task is one fanned-out unit of query work; run executes the receiving
// participant's share and base exposes the completion group.
type task interface {
	run(sc *scratch)
	base() *taskBase
}

// taskBase carries the per-dispatch completion group shared by all task
// kinds, and the first panic any participant recovered.
type taskBase struct {
	wg      sync.WaitGroup
	panicMu sync.Mutex
	panic   *TaskPanic
}

func (b *taskBase) base() *taskBase { return b }

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
// of a pooled task; the panic-containment tests inject faults through it.
var taskHook func()

// runTask runs one participant's share of t. A panic is recovered into
// t's base — the first one wins — so the participant still reaches its
// wg.Done and a background worker lives on to serve the next query.
func runTask(t task, sc *scratch) {
	defer func() {
		if v := recover(); v != nil {
			b := t.base()
			b.panicMu.Lock()
			if b.panic == nil {
				b.panic = &TaskPanic{Value: v, Stack: debug.Stack()}
			}
			b.panicMu.Unlock()
		}
	}()
	if taskHook != nil {
		taskHook()
	}
	t.run(sc)
}

// scratch is the per-participant reusable state: one bounded heap for
// single-query sweeps and per-query heaps for batched sweeps — each in a
// float64 and a float32 variant, since a task sweeps exactly one
// precision. Background workers own one for life; submitting goroutines
// borrow one from the pool per dispatch.
type scratch struct {
	st      vecmath.TopKStream
	multi   []vecmath.TopKStream
	st32    vecmath.TopKStream32
	multi32 []vecmath.TopKStream32
	// the blocked batched sweeps address their per-worker heaps through
	// pointer slices (the wire format of the shard-sweep helpers) and an
	// active-query index list; both live here so steady-state batches
	// allocate nothing
	idx      []int
	multiPtr []*vecmath.TopKStream
	multi32P []*vecmath.TopKStream32
}

// NewPool starts a pool of the given total parallelism; workers <= 0 uses
// runtime.GOMAXPROCS(0). Call Close when done to release the background
// goroutines.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers, tasks: make(chan task, workers*2)}
	p.scratches.New = func() any { return new(scratch) }
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
	sc := new(scratch)
	for t := range p.tasks {
		runTask(t, sc)
		t.base().wg.Done()
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
// share on a borrowed scratch, and waits for everyone. If any participant
// panicked, the *TaskPanic is re-raised here, on the submitting
// goroutine, only after every participant is done — so nothing still
// writes into the caller's collectors while its stack unwinds. The task
// is then dropped rather than recycled.
func (p *Pool) dispatch(t task, fan int) {
	b := t.base()
	b.wg.Add(fan - 1)
	for i := 0; i < fan-1; i++ {
		p.tasks <- t
	}
	sc := p.scratches.Get().(*scratch)
	runTask(t, sc)
	p.scratches.Put(sc)
	b.wg.Wait()
	if b.panic != nil {
		panic(b.panic)
	}
}

// ---- single-query sharded sweep -----------------------------------------

// sweepTask is the fan-out state of one parallel catalog sweep:
// participants claim shard indices from next and merge their partial
// heaps into out. In f32 mode (out32 non-nil) the claimed shards are
// swept through the compact slab into per-worker f32 candidate heaps
// instead; the caller owns the rescore stage. A non-nil mask restricts
// the sweep to eligible items (filtered plans).
type sweepTask struct {
	taskBase
	ix    *model.ScoringIndex
	q     []float64
	k     int
	q32   []float32
	out32 *vecmath.TopKStream32
	// int8 mode (qi8 non-nil): the claimed shards are swept through the
	// quantized slab with the pre-quantized query codes into per-worker
	// float64 candidate heaps of budget k, merged into out.
	qi8       []int8
	qscale    float64
	sumQ      float64
	mask      *vecmath.Bitset
	done      <-chan struct{}
	numShards int32
	next      atomic.Int32
	mu        sync.Mutex
	out       *vecmath.TopKStream
}

func (t *sweepTask) run(sc *scratch) {
	if t.qi8 != nil {
		st := &sc.st
		st.Reset(t.k)
		var sv i8Survivors
		for {
			if canceled(t.done) {
				break
			}
			s := int(t.next.Add(1)) - 1
			if s >= int(t.numShards) {
				break
			}
			lo, hi := t.ix.Shard(s)
			sweepRangeI8Into(t.ix, t.qi8, t.qscale, t.sumQ, lo, hi, &sv, t.mask, st)
		}
		if st.Len() > 0 {
			t.mu.Lock()
			t.out.Merge(st)
			t.mu.Unlock()
		}
		return
	}
	if t.out32 != nil {
		st := &sc.st32
		st.Reset(t.k)
		var block [blockItems]float32
		for {
			if canceled(t.done) {
				break
			}
			s := int(t.next.Add(1)) - 1
			if s >= int(t.numShards) {
				break
			}
			lo, hi := t.ix.Shard(s)
			if t.mask == nil {
				sweepRange32Into(t.ix, t.q32, lo, hi, block[:], st)
			} else {
				sweepRange32MaskedInto(t.ix, t.q32, lo, hi, block[:], t.mask, st)
			}
		}
		if st.Len() > 0 {
			t.mu.Lock()
			t.out32.Merge(st)
			t.mu.Unlock()
		}
		return
	}
	st := &sc.st
	st.Reset(t.k)
	var block [blockItems]float64
	for {
		if canceled(t.done) {
			break
		}
		s := int(t.next.Add(1)) - 1
		if s >= int(t.numShards) {
			break
		}
		lo, hi := t.ix.Shard(s)
		if t.mask == nil {
			sweepRangeInto(t.ix, t.q, lo, hi, block[:], st)
		} else {
			sweepRangeMaskedInto(t.ix, t.q, lo, hi, block[:], t.mask, st)
		}
	}
	if st.Len() > 0 {
		t.mu.Lock()
		t.out.Merge(st)
		t.mu.Unlock()
	}
}

func (p *Pool) getSweepTask() *sweepTask {
	t, _ := p.sweeps.Get().(*sweepTask)
	if t == nil {
		t = new(sweepTask)
	}
	return t
}

// ---- batched multi-query sweep ------------------------------------------

type multiTask struct {
	taskBase
	ix     *model.ScoringIndex
	qs     [][]float64
	qs32   [][]float32
	outs32 []*vecmath.TopKStream32
	// int8 mode (usI8 non-nil): the quantized queries and their code
	// parameters; outs then points at the batch's float64 candidate heaps
	// rather than final collectors.
	usI8      [][]int8
	qscalesI8 []float64
	sumQsI8   []float64
	done      <-chan struct{}
	numShards int32
	next      atomic.Int32
	mu        sync.Mutex
	outs      []*vecmath.TopKStream
}

func (p *Pool) getMultiTask() *multiTask {
	t, _ := p.multis.Get().(*multiTask)
	if t == nil {
		t = new(multiTask)
	}
	return t
}

func (t *multiTask) run(sc *scratch) {
	if t.usI8 != nil {
		t.runI8(sc)
		return
	}
	if t.outs32 != nil {
		t.run32(sc)
		return
	}
	b := len(t.qs)
	if cap(sc.multi) < b {
		sc.multi = make([]vecmath.TopKStream, b)
	}
	parts := sc.multi[:b]
	for i := range parts {
		parts[i].Reset(t.outs[i].K())
	}
	var block [blockItems]float64
	for {
		if canceled(t.done) {
			break
		}
		s := int(t.next.Add(1)) - 1
		if s >= int(t.numShards) {
			break
		}
		lo, hi := t.ix.Shard(s)
		// query-major within one cache-resident shard: the shard's factor
		// rows are loaded once and scored against every query in the batch
		for i, q := range t.qs {
			sweepRangeInto(t.ix, q, lo, hi, block[:], &parts[i])
		}
	}
	t.mu.Lock()
	for i := range parts {
		if parts[i].Len() > 0 {
			t.outs[i].Merge(&parts[i])
		}
	}
	t.mu.Unlock()
}

// run32 is the f32-mode multiTask body: a blocked sweep over the
// cache-resident compact shards — each shard's rows read once per qBlock
// query group — into per-worker per-query candidate heaps, merged into
// the shared per-query candidate sets.
func (t *multiTask) run32(sc *scratch) {
	b := len(t.qs32)
	if cap(sc.multi32) < b {
		sc.multi32 = make([]vecmath.TopKStream32, b)
	}
	if cap(sc.multi32P) < b {
		sc.multi32P = make([]*vecmath.TopKStream32, b)
	}
	if cap(sc.idx) < b {
		sc.idx = make([]int, 0, b)
	}
	parts, ptrs, active := sc.multi32[:b], sc.multi32P[:b], sc.idx[:0]
	items := t.ix.NumItems()
	for i := range parts {
		parts[i].Reset(t.outs32[i].K())
		ptrs[i] = &parts[i]
		// queries whose budget covers the catalog skip the f32 sweep; the
		// finish stage runs them through the f64 path directly
		if t.outs32[i].K() < items {
			active = append(active, i)
		}
	}
	sc.idx = active
	for {
		if canceled(t.done) {
			break
		}
		s := int(t.next.Add(1)) - 1
		if s >= int(t.numShards) {
			break
		}
		lo, hi := t.ix.Shard(s)
		sweepShard32Multi(t.ix, t.qs32, ptrs, active, lo, hi)
	}
	t.mu.Lock()
	for i := range parts {
		if parts[i].Len() > 0 {
			t.outs32[i].Merge(&parts[i])
		}
	}
	t.mu.Unlock()
}

// runI8 is the int8-mode multiTask body: the blocked sweep over the
// quantized shards into per-worker float64 candidate heaps, merged into
// the batch's shared candidate sets (t.outs, which point at candidate
// heaps in int8 mode — the rescore stage runs after the dispatch joins).
func (t *multiTask) runI8(sc *scratch) {
	b := len(t.usI8)
	if cap(sc.multi) < b {
		sc.multi = make([]vecmath.TopKStream, b)
	}
	if cap(sc.multiPtr) < b {
		sc.multiPtr = make([]*vecmath.TopKStream, b)
	}
	if cap(sc.idx) < b {
		sc.idx = make([]int, 0, b)
	}
	parts, ptrs, active := sc.multi[:b], sc.multiPtr[:b], sc.idx[:0]
	items := t.ix.NumItems()
	for i := range parts {
		parts[i].Reset(t.outs[i].K())
		ptrs[i] = &parts[i]
		if t.outs[i].K() < items {
			active = append(active, i)
		}
	}
	sc.idx = active
	for {
		if canceled(t.done) {
			break
		}
		s := int(t.next.Add(1)) - 1
		if s >= int(t.numShards) {
			break
		}
		lo, hi := t.ix.Shard(s)
		sweepShardI8Multi(t.ix, t.usI8, t.qscalesI8, t.sumQsI8, ptrs, active, lo, hi)
	}
	t.mu.Lock()
	for i := range parts {
		if parts[i].Len() > 0 {
			t.outs[i].Merge(&parts[i])
		}
	}
	t.mu.Unlock()
}

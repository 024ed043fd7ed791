package infer

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

// deadlineWorld builds a catalog with many small shards so cooperative
// cancellation checks happen frequently relative to total sweep time.
func deadlineWorld(t testing.TB) (*model.Composed, []float64) {
	t.Helper()
	tree, err := taxonomy.Generate(taxonomy.GenConfig{
		CategoryLevels: []int{4, 16, 64},
		Items:          3000,
		Skew:           0.4,
	}, vecmath.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.New(tree, 5, model.Params{K: 16, TaxonomyLevels: 3, Alpha: 1, InitStd: 0.3}, vecmath.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	c := m.Compose()
	c.Index.SetShardItems(64) // ~47 shards: one check per 64 items
	q := make([]float64, 16)
	rng := vecmath.NewRNG(9)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	return c, q
}

// deadlinePlans covers every strategy × precision shape the executor runs.
func deadlinePlans(c *model.Composed) []Plan {
	cc := UniformCascade(c.Tree.Depth(), 1.0)
	div := &Diversify{MaxPerCategory: 2, CatDepth: 1}
	return []Plan{
		{K: 10},
		{K: 10, Precision: model.PrecisionF64},
		{K: 10, Filter: &Filter{ExcludeItems: []int32{1, 2, 3}}},
		{K: 10, Strategy: StrategyCascade, Cascade: &cc},
		{K: 10, Strategy: StrategyCascade, Cascade: &cc, Precision: model.PrecisionF64},
		{K: 10, Strategy: StrategyCascade, Cascade: &cc, Precision: model.PrecisionInt8},
		{K: 10, Strategy: StrategyDiversified, Diversify: div},
		{K: 10, Strategy: StrategyDiversified, Diversify: div, Precision: model.PrecisionF64},
		{K: 10, Strategy: StrategyDiversified, Diversify: div, Precision: model.PrecisionInt8},
		{K: 10, Strategy: StrategyDiversified, Diversify: div,
			Filter: &Filter{RangeLo: 500, RangeHi: 2500, DenyNodes: []int32{c.Tree.Level(1)[0]}}},
	}
}

// A context that is already dead must fail every plan shape with
// ErrDeadline and an empty result, on the serial and the pooled path.
func TestExecutePreCancelledReturnsErrDeadline(t *testing.T) {
	c, q := deadlineWorld(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pool := NewPool(3)
	defer pool.Close()
	for _, p := range []*Pool{nil, pool} {
		for _, pl := range deadlinePlans(c) {
			res, err := p.Execute(ctx, c, q, pl)
			if !errors.Is(err, ErrDeadline) {
				t.Fatalf("strategy %v workers=%d: got err %v, want ErrDeadline", pl.Strategy, p.Workers(), err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("ErrDeadline should wrap the context cause, got %v", err)
			}
			if len(res.Items) != 0 {
				t.Fatalf("cancelled plan returned %d items, want none", len(res.Items))
			}
		}
	}
	if _, err := pool.ExecuteBatch(ctx, c, [][]float64{q, q}, []Plan{{K: 5}, {K: 5}}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("ExecuteBatch on dead context: got %v, want ErrDeadline", err)
	}
}

// A deadline firing mid-sweep must yield either the complete byte-exact
// ranking or ErrDeadline with no items — never a partial ranking. The
// cancel point is swept across the query's duration until both outcomes
// are observed.
func TestExecuteMidSweepDeadlineNoPartialRanking(t *testing.T) {
	c, q := deadlineWorld(t)
	pool := NewPool(2)
	defer pool.Close()
	for _, tc := range []struct {
		name string
		p    *Pool
	}{{"serial", nil}, {"pooled", pool}} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := tc.p.Execute(context.Background(), c, q, Plan{K: 10})
			if err != nil {
				t.Fatal(err)
			}
			sawCancel, sawComplete := false, false
			// sweep the cancellation point from "immediately" upward until
			// both outcomes have been seen; 2000 attempts at escalating
			// delays is orders of magnitude beyond what either side needs
			delay := time.Nanosecond
			for attempt := 0; attempt < 2000 && !(sawCancel && sawComplete); attempt++ {
				ctx, cancel := context.WithCancel(context.Background())
				timer := time.AfterFunc(delay, cancel)
				res, err := tc.p.Execute(ctx, c, q, Plan{K: 10})
				timer.Stop()
				cancel()
				switch {
				case err == nil:
					sawComplete = true
					delay /= 2
					if delay == 0 {
						delay = time.Nanosecond
					}
					if !reflect.DeepEqual(res.Items, want.Items) {
						t.Fatalf("completed ranking differs from uncancelled run")
					}
				case errors.Is(err, ErrDeadline):
					sawCancel = true
					delay = delay*3/2 + time.Nanosecond
					if len(res.Items) != 0 {
						t.Fatalf("cancelled run leaked %d items", len(res.Items))
					}
				default:
					t.Fatalf("unexpected error: %v", err)
				}
			}
			if !sawCancel || !sawComplete {
				t.Fatalf("outcome coverage incomplete: cancelled=%v complete=%v", sawCancel, sawComplete)
			}
		})
	}
}

// Cancelled queries must not strand pool workers or helper goroutines.
func TestExecuteDeadlineNoGoroutineLeak(t *testing.T) {
	c, q := deadlineWorld(t)
	pool := NewPool(4)
	defer pool.Close()
	// settle, then measure
	for i := 0; i < 3; i++ {
		if _, err := pool.Execute(context.Background(), c, q, Plan{K: 10}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		if i%2 == 0 {
			cancel() // pre-cancelled: rejected at entry
		} else {
			time.AfterFunc(time.Duration(i%7)*time.Microsecond, cancel)
		}
		pool.Execute(ctx, c, q, Plan{K: 10})
		cancel()
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// the pool must still answer correctly after the cancellation storm
	want, err := (*Pool)(nil).Execute(context.Background(), c, q, Plan{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.Execute(context.Background(), c, q, Plan{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Items, got.Items) {
		t.Fatal("pool ranking diverged after cancellation storm")
	}
}

// catchTaskPanic runs fn and returns the *TaskPanic it raised, or nil.
func catchTaskPanic(t *testing.T, fn func()) (tp *TaskPanic) {
	t.Helper()
	defer func() {
		if v := recover(); v != nil {
			var ok bool
			if tp, ok = v.(*TaskPanic); !ok {
				t.Fatalf("raised %T %v, want *TaskPanic", v, v)
			}
		}
	}()
	fn()
	return nil
}

// A panic inside a pooled participant — a background worker's share or
// the submitter's own — must fail only its query: every participant still
// signals completion, the *TaskPanic is re-raised on the submitting
// goroutine, and the workers live on to answer the next query
// byte-identically, for every plan shape and for batches.
func TestPoolPanicFailsOnlyItsQuery(t *testing.T) {
	c, q := deadlineWorld(t)
	pool := NewPool(3)
	defer pool.Close()
	defer func() { taskHook = nil }()
	ctx := context.Background()
	var faults atomic.Int64
	inject := func() {
		faults.Add(1)
		panic("injected fault")
	}
	for _, pl := range deadlinePlans(c) {
		want, err := (*Pool)(nil).Execute(ctx, c, q, pl)
		if err != nil {
			t.Fatal(err)
		}
		taskHook = inject
		tp := catchTaskPanic(t, func() { pool.Execute(ctx, c, q, pl) })
		taskHook = nil
		if tp == nil || tp.Value != "injected fault" || len(tp.Stack) == 0 {
			t.Fatalf("strategy %v: pooled query raised %+v, want the injected *TaskPanic", pl.Strategy, tp)
		}
		for i := 0; i < 3; i++ {
			got, err := pool.Execute(ctx, c, q, pl)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Items, want.Items) {
				t.Fatalf("strategy %v: ranking diverged after a recovered panic", pl.Strategy)
			}
		}
	}
	qs := [][]float64{q, q}
	pls := []Plan{{K: 5}, {K: 7}}
	want, err := (*Pool)(nil).ExecuteBatch(ctx, c, qs, pls)
	if err != nil {
		t.Fatal(err)
	}
	taskHook = inject
	tp := catchTaskPanic(t, func() { pool.ExecuteBatch(ctx, c, qs, pls) })
	taskHook = nil
	if tp == nil {
		t.Fatal("pooled batch with a panicking participant did not raise")
	}
	got, err := pool.ExecuteBatch(ctx, c, qs, pls)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("batch diverged after a recovered panic")
	}
	// with three participants per query, background workers took faults
	// too — had one died, the process would have crashed with it
	if n := faults.Load(); n <= int64(len(deadlinePlans(c))+1) {
		t.Fatalf("only %d participants faulted; the background workers never ran the hook", n)
	}
}

// A panic while a participant holds its task's merge mutex must fail only
// its query too: the mutex is released on the way out, so the other
// participants still merge (here: fault in turn), the dispatch joins, the
// submitter raises *TaskPanic, and the pool answers the next query
// byte-identically — for the single-query sweep at every tier and for a
// batch. With the mutex left held the query would hang, so each call runs
// under a watchdog. The participants start behind a barrier. A
// participant merges only if it claimed a shard, so on a single P one
// participant may sweep them all — there the shapes only check recovery,
// and elsewhere the catalog is large enough that a sweep outlasts a
// wake-up and each shape retries until one query saw two merges.
func TestPoolPanicUnderMergeMutex(t *testing.T) {
	tree, err := taxonomy.Generate(taxonomy.GenConfig{
		CategoryLevels: []int{4, 16, 64},
		Items:          60000,
		Skew:           0.4,
	}, vecmath.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.New(tree, 5, model.Params{K: 16, TaxonomyLevels: 3, Alpha: 1, InitStd: 0.3}, vecmath.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	c := m.Compose()
	c.Index.SetShardItems(64)
	q := query(c.K())
	const fan = 3
	pool := NewPool(fan)
	defer pool.Close()
	defer func() { taskHook, mergeHook = nil, nil }()
	ctx := context.Background()

	// fault runs fn with every merge panicking and the participants held
	// at a start barrier until all fan have arrived; it returns what fn
	// raised and how many participants reached the merge mutex
	fault := func(what string, fn func()) (any, int64) {
		var arrived atomic.Int32
		var merges atomic.Int64
		start := make(chan struct{})
		taskHook = func() {
			if arrived.Add(1) == fan {
				close(start)
			}
			<-start
		}
		mergeHook = func() {
			merges.Add(1)
			panic("injected merge fault")
		}
		defer func() { taskHook, mergeHook = nil, nil }()
		ch := make(chan any, 1)
		go func() {
			defer func() { ch <- recover() }()
			fn()
		}()
		select {
		case v := <-ch:
			return v, merges.Load()
		case <-time.After(20 * time.Second):
			t.Fatalf("%s: query wedged after a panic under the merge mutex", what)
			return nil, 0
		}
	}
	// shape faults run until a query had two participants reach the mutex
	// (once, when contention is not required), then checks that the pool
	// answers run's query byte-identically
	shape := func(what string, run func() any, want any, needContention bool) {
		t.Helper()
		for try := 0; ; try++ {
			v, n := fault(what, func() { run() })
			if tp, ok := v.(*TaskPanic); !ok || tp.Value != "injected merge fault" {
				t.Fatalf("%s: raised %T %v, want the injected *TaskPanic", what, v, v)
			}
			if n >= 2 || !needContention {
				break
			}
			if try == 50 {
				t.Fatalf("%s: no query had two participants reach the merge mutex", what)
			}
		}
		if got := run(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: result diverged after a panic under the merge mutex", what)
		}
	}
	multiP := runtime.GOMAXPROCS(0) > 1
	for _, prec := range []model.Precision{model.PrecisionF64, model.PrecisionInt8} {
		pl := Plan{K: 10, Precision: prec}
		want, err := (*Pool)(nil).Execute(ctx, c, q, pl)
		if err != nil {
			t.Fatal(err)
		}
		shape(prec.String(), func() any {
			res, _ := pool.Execute(ctx, c, q, pl)
			return res.Items
		}, want.Items, multiP)
	}
	qs := [][]float64{q, q}
	pls := []Plan{{K: 5}, {K: 7}}
	want, err := (*Pool)(nil).ExecuteBatch(ctx, c, qs, pls)
	if err != nil {
		t.Fatal(err)
	}
	shape("batch", func() any {
		res, _ := pool.ExecuteBatch(ctx, c, qs, pls)
		return res
	}, want, multiP)
}

// A deadline (as opposed to a cancellation) must surface the stdlib's
// DeadlineExceeded through the ErrDeadline wrapper.
func TestExecuteDeadlineWrapsDeadlineExceeded(t *testing.T) {
	c, q := deadlineWorld(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	_, err := Execute(ctx, c, q, Plan{K: 5})
	if !errors.Is(err, ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want ErrDeadline wrapping context.DeadlineExceeded", err)
	}
}

// A plan cancelled between two diversified re-fetch rounds — after the
// first prefix ran dry, before the doubled one is fetched — must come
// back ErrDeadline with an empty result, serial and pooled, at every
// precision tier.
func TestDiversifiedCancelBetweenRefetchRounds(t *testing.T) {
	c := refetchComposed(t)
	q := query(c.K())
	pool := NewPool(3)
	defer pool.Close()
	defer func() { refetchHook = nil }()
	pl := Plan{Strategy: StrategyDiversified, K: 10, Diversify: &Diversify{MaxPerCategory: 2, CatDepth: 2}}
	for _, p := range []*Pool{nil, pool} {
		for _, prec := range []model.Precision{model.PrecisionF64, model.PrecisionInt8} {
			ctx, cancel := context.WithCancel(context.Background())
			rounds := 0
			refetchHook = func() {
				rounds++
				cancel()
			}
			pl.Precision = prec
			res, err := p.Execute(ctx, c, q, pl)
			cancel()
			if !errors.Is(err, ErrDeadline) || !errors.Is(err, context.Canceled) {
				t.Fatalf("%v workers=%d: got err %v, want ErrDeadline wrapping Canceled", prec, p.Workers(), err)
			}
			if len(res.Items) != 0 {
				t.Fatalf("%v workers=%d: cancelled plan returned %d items", prec, p.Workers(), len(res.Items))
			}
			if rounds != 1 {
				t.Fatalf("%v workers=%d: %d re-fetch rounds counted, want 1 (the cancel must stop the second)", prec, p.Workers(), rounds)
			}
		}
	}
}

package infer

import (
	"context"
	"errors"
	"reflect"
	"runtime"
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
		for _, prec := range []model.Precision{model.PrecisionF64, model.PrecisionF32, model.PrecisionInt8} {
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

package infer

import (
	"context"
	"reflect"
	"runtime/debug"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/vecmath"
)

// legacyF32 is the precision a request spelled "f32" — the retired
// float32 tier — carries after validation.
func legacyF32(t *testing.T) model.Precision {
	t.Helper()
	p, err := model.ParsePrecision("f32")
	if err != nil {
		t.Fatalf(`ParsePrecision("f32"): %v`, err)
	}
	return p
}

// Property: a plan spelled with the retired "f32" precision runs the
// host's tier and returns rankings byte-identical to the serial f64 path
// — order and tie-breaks included — for naive, cascaded and diversified
// sweeps, serial and pool-sharded, across shard sizes, worker counts, k
// (at and past the catalog too) and all tie regimes. No f32 escalation is
// ever counted.
func TestQuickF32MatchesF64(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	ctx := context.Background()
	prec := legacyF32(t)
	if got, want := prec.Resolve(), model.PrecisionDefault.Resolve(); got != want {
		t.Fatalf(`"f32" resolves to %v, the host tier is %v`, got, want)
	}
	f := func(seed uint16, shardRaw, kRaw, sizeRaw, tieRaw uint8) bool {
		c, q := tierWorld(t, uint64(seed)+101, shardRaw, kRaw, sizeRaw, tieRaw)
		for _, k := range []int{1, 1 + int(kRaw)%10, c.NumItems(), c.NumItems() + 5} {
			want := serialF64(t, c, q, Plan{K: k}).Items
			got, err := Execute(ctx, c, q, Plan{K: k, Precision: prec})
			if err != nil || !reflect.DeepEqual(want, got.Items) {
				t.Logf("serial f32-spelled naive diverged (k=%d)", k)
				return false
			}
			for _, workers := range []int{2, 4} {
				got, err := pool.Execute(ctx, c, q, Plan{K: k, Precision: prec, MaxWorkers: workers})
				if err != nil || !reflect.DeepEqual(want, got.Items) {
					t.Logf("pooled f32-spelled naive diverged (k=%d workers=%d)", k, workers)
					return false
				}
			}
		}
		k := 1 + int(kRaw)%15
		cfg := UniformCascade(c.Tree.Depth(), 0.2+float64(tieRaw%8)/10)
		casc := Plan{Strategy: StrategyCascade, K: k, Cascade: &cfg}
		want := serialF64(t, c, q, casc)
		casc.Precision = prec
		for _, p := range []*Pool{nil, pool} {
			got, err := p.Execute(ctx, c, q, casc)
			if err != nil || !reflect.DeepEqual(want.Items, got.Items) || !reflect.DeepEqual(want.Stats, got.Stats) {
				t.Logf("f32-spelled cascade diverged (pool=%v)", p != nil)
				return false
			}
		}
		maxPer := 1 + int(tieRaw)%4
		catDepth := 1 + int(tieRaw)%(c.Tree.Depth()-1)
		div := Plan{Strategy: StrategyDiversified, K: k, Diversify: &Diversify{MaxPerCategory: maxPer, CatDepth: catDepth}}
		wantDiv := serialF64(t, c, q, div).Items
		div.Precision = prec
		for _, p := range []*Pool{nil, pool} {
			got, err := p.Execute(ctx, c, q, div)
			if err != nil || !reflect.DeepEqual(wantDiv, got.Items) {
				t.Logf("f32-spelled diversified diverged (pool=%v)", p != nil)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
	if n := F32Escalations(); n != 0 {
		t.Fatalf("F32Escalations() = %d, want 0", n)
	}
}

// A naive plan spelled with the retired "f32" precision serves with no
// allocation on a warm scratch pool, like the host tier it resolves to.
func TestNaiveF32IntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	c, q := allocWorld(t, 2000)
	// a GC empties sync.Pools, which would show up as a spurious scratch
	// refill; the serving claim is "no allocation given a warm pool"
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	pl := Plan{K: 10, Precision: legacyF32(t)}
	if allocs := warmAllocs(t, c, q, pl, vecmath.NewTopKStream(10)); allocs > 0 {
		t.Fatalf("f32-spelled ExecuteInto allocated %.1f objects per query, want 0", allocs)
	}
}

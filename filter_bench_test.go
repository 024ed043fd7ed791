package tfrec

// BenchmarkTopKPlan* and BenchmarkTopKFiltered* measure the query-plan
// executor: the unfiltered plan path against the direct NaiveInto call it
// wraps (gated within the benchgate regression bound — the refactor must
// stay free), and request-time candidate filtering at 50% scattered
// exclusion (an exclude-purchased-shaped mask: no block locality, the
// sweep pays full bandwidth and filters at push time) and 95% exclusion
// via taxonomy allow-lists (category-page-shaped: contiguous item ranges,
// whole score blocks are skipped without touching their factor rows).
// All are subjects of the CI bench gate (cmd/tfrec-benchgate,
// BENCH_baseline.json).

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/infer"
	"repro/internal/model"
	"repro/internal/vecmath"
)

// BenchmarkTopKPlanStreaming is the plan-executor twin of
// BenchmarkTopKIndexStreaming: the identical serial f64 top-10 sweep,
// reached through Plan validation and ExecuteInto instead of the direct
// call. The benchgate speedup floor pins the pair together, bounding the
// executor's dispatch overhead.
func BenchmarkTopKPlanStreaming(b *testing.B) {
	c, q := benchComposedForTopK(b)
	pl := infer.Plan{K: 10, Precision: model.PrecisionF64}
	st := vecmath.NewTopKStream(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := infer.ExecuteInto(context.Background(), c, q, pl, st); err != nil {
			b.Fatal(err)
		}
	}
}

// filteredPlans builds the exclusion filters on the wide world: excl=0
// (unfiltered reference), excl=50 (every other item excluded — scattered,
// no blocks can be skipped), excl=95 (allow-list of level-2 taxonomy
// subtrees covering ~5% of the catalog — contiguous ranges).
func filteredPlans(c *model.Composed) map[string]*infer.Filter {
	n := c.NumItems()
	scattered := &infer.Filter{}
	for item := 0; item < n; item += 2 {
		scattered.ExcludeItems = append(scattered.ExcludeItems, int32(item))
	}
	allow := &infer.Filter{}
	eligible := 0
	for _, node := range c.Tree.Level(2) {
		lo, hi, _ := c.Index.ItemRange(int(node))
		allow.AllowNodes = append(allow.AllowNodes, node)
		eligible += hi - lo
		if eligible >= n/20 {
			break
		}
	}
	return map[string]*infer.Filter{"excl=0": nil, "excl=50": scattered, "excl=95": allow}
}

func BenchmarkTopKFiltered(b *testing.B) {
	c, q := benchShardedWorld(b)
	filters := filteredPlans(c)
	for _, name := range []string{"excl=0", "excl=50", "excl=95"} {
		b.Run(name, func(b *testing.B) {
			// f64 pins the comparison to pure sweep bandwidth: the three
			// cases differ only in the filter mask
			pl := infer.Plan{K: 10, Precision: model.PrecisionF64, Filter: filters[name]}
			st := vecmath.NewTopKStream(10)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := infer.ExecuteInto(context.Background(), c, q, pl, st)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Items) != 10 {
					b.Fatalf("filtered page has %d items", len(res.Items))
				}
			}
		})
	}
}

// BenchmarkTopKFilteredI8 is the excl=95 case through the two-stage
// int8 pipeline — the shape a filtered production request runs where the
// fused int8 kernel is served.
func BenchmarkTopKFilteredI8(b *testing.B) {
	c, q := benchShardedWorld(b)
	flt := filteredPlans(c)["excl=95"]
	pl := infer.Plan{K: 10, Precision: model.PrecisionInt8, Filter: flt}
	st := vecmath.NewTopKStream(10)
	// warm the quantized slabs and scratch pools outside the timer
	if _, err := infer.ExecuteInto(context.Background(), c, q, pl, st); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := infer.ExecuteInto(context.Background(), c, q, pl, st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopKFilteredSharded fans the 95%-exclusion sweep across the
// pool — filter masks are read-only and shard claiming is unchanged, so
// filtered requests scale like unfiltered ones.
func BenchmarkTopKFilteredSharded(b *testing.B) {
	c, q := benchShardedWorld(b)
	flt := filteredPlans(c)["excl=95"]
	for _, workers := range []int{2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pool := infer.NewPool(workers)
			defer pool.Close()
			pl := infer.Plan{K: 10, Precision: model.PrecisionF64, Filter: flt}
			st := vecmath.NewTopKStream(10)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pool.ExecuteInto(context.Background(), c, q, pl, st); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

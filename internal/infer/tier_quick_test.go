package infer

import (
	"context"
	"runtime/debug"
	"testing"

	"repro/internal/model"
	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

// tierWorld builds a random world in one of several score regimes. tieRaw
// selects the adversarial surface: dense random scores, exact ties
// (zero factors), grouped bias ties, and near-ties ~1e-12 apart, far
// below any reduced-precision resolution.
func tierWorld(t *testing.T, seed uint64, shardRaw, kRaw, sizeRaw, tieRaw uint8) (*model.Composed, []float64) {
	t.Helper()
	rng := vecmath.NewRNG(seed)
	top := 2 + int(sizeRaw)%4
	tree, err := taxonomy.Generate(taxonomy.GenConfig{
		CategoryLevels: []int{top, top * 3},
		Items:          top*3 + 20 + int(sizeRaw)*5,
		Skew:           0.3,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	p := model.Params{
		K:              1 + int(kRaw)%8,
		TaxonomyLevels: 1 + int(sizeRaw)%4,
		Alpha:          1,
		InitStd:        0.2,
		UseBias:        tieRaw%2 == 0,
	}
	switch tieRaw % 4 {
	case 1:
		p.InitStd = 0 // every score identical: pure tie-break ranking
	case 2:
		p.InitStd = 0
		p.UseBias = true // grouped ties through shared ancestor biases
	case 3:
		p.InitStd = 0
		p.UseBias = true // near-ties ~1e-12 apart (set below)
	}
	m, err := model.New(tree, 3, p, rng)
	if err != nil {
		t.Fatal(err)
	}
	if p.UseBias {
		for n := 0; n < tree.NumNodes(); n++ {
			if !m.TrainedNode(n) {
				continue
			}
			if tieRaw%4 == 3 {
				// adversarial: scores differ by ~1e-12 at magnitude ~1
				m.Bias.Row(n)[0] = 1 + float64(n)*1e-12
			} else {
				m.Bias.Row(n)[0] = float64(rng.Intn(3)) * 0.5
			}
		}
	}
	c := m.Compose()
	c.Index.SetShardItems(1 + int(shardRaw)%97)
	q := make([]float64, p.K)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	if tieRaw%4 != 0 {
		vecmath.Zero(q) // collapse scores onto the bias surface
	}
	return c, q
}

// allocWorld builds a world of the given catalog size with the same
// four-level taxonomy and query at every size, for allocation checks
// that must not depend on the catalog.
func allocWorld(t *testing.T, items int) (*model.Composed, []float64) {
	t.Helper()
	tree := taxonomy.MustGenerate(taxonomy.GenConfig{CategoryLevels: []int{4, 16, 64}, Items: items, Skew: 0.3}, vecmath.NewRNG(5))
	m, err := model.New(tree, 2, model.Params{K: 16, TaxonomyLevels: 4, Alpha: 1, InitStd: 0.2}, vecmath.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	q := make([]float64, 16)
	rng := vecmath.NewRNG(7)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	return m.Compose(), q
}

// warmAllocs runs pl into st once to warm the scratch pools, then
// returns the steady-state allocations per ExecuteInto.
func warmAllocs(t *testing.T, c *model.Composed, q []float64, pl Plan, st *vecmath.TopKStream) float64 {
	t.Helper()
	ctx := context.Background()
	if _, err := ExecuteInto(ctx, c, q, pl, st); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(20, func() {
		if _, err := ExecuteInto(ctx, c, q, pl, st); err != nil {
			t.Fatal(err)
		}
	})
}

// Diversified plans ride the naive two-stage pipelines, with the ranked
// prefix and the quota counters in pooled scratch, so neither tier may
// allocate on a warm pool either.
func TestDiversifiedIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	c, q := allocWorld(t, 2000)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, prec := range []model.Precision{model.PrecisionF64, model.PrecisionInt8} {
		pl := Plan{Strategy: StrategyDiversified, K: 10, Precision: prec, Diversify: &Diversify{MaxPerCategory: 2}}
		if allocs := warmAllocs(t, c, q, pl, vecmath.NewTopKStream(10)); allocs > 0 {
			t.Fatalf("%v diversified ExecuteInto allocated %.1f objects per query, want 0", prec, allocs)
		}
	}
}

// A warm cascade allocates only the Stats it returns: the beam frontier,
// level heap and leaf mask are pooled, so the count must be the same on
// a 2k-item and a 20k-item catalog of the same depth.
func TestCascadeIntoAllocsIndependentOfCatalog(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, prec := range []model.Precision{model.PrecisionF64, model.PrecisionInt8} {
		var allocs [2]float64
		for i, items := range []int{2000, 20000} {
			c, q := allocWorld(t, items)
			cfg := UniformCascade(c.Tree.Depth(), 0.4)
			pl := Plan{Strategy: StrategyCascade, K: 10, Precision: prec, Cascade: &cfg}
			allocs[i] = warmAllocs(t, c, q, pl, vecmath.NewTopKStream(10))
		}
		// the Stats struct and its KeptPerLevel slice
		if allocs[0] != allocs[1] || allocs[0] > 2 {
			t.Fatalf("%v cascade allocated %.1f objects per query at 2k items and %.1f at 20k, want the same ≤2", prec, allocs[0], allocs[1])
		}
	}
}

package infer

import (
	"context"
	"math"
	"math/big"
	"slices"
	"testing"

	"repro/internal/fixture"
	"repro/internal/model"
	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

func learnedFixture(t testing.TB) *fixture.World {
	t.Helper()
	w, err := fixture.Learned()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// oracleRank is the reference ranking, written from docs/API.md alone: a
// score per item from the composed factors (bias first, then the factor
// products two at a time — the documented summation order of every
// scoring kernel, vecmath.DotBias), a full sort by (score desc, id asc),
// the filter (allow = union of the listed subtrees, deny removes
// subtrees, excluded ids and anything outside the shard range drop out),
// the diversified quota (a greedy scan of the ranking that skips items
// whose category at the quota level already holds its quota), then
// offset and k. It reads no ScoringIndex.
func oracleRank(c *model.Composed, q []float64, pl Plan) []vecmath.Scored {
	tree := c.Tree
	under := func(item int, nodes []int32) bool {
		for n := tree.ItemNode(item); n != taxonomy.NoParent; n = tree.Parent(n) {
			if slices.Contains(nodes, int32(n)) {
				return true
			}
		}
		return false
	}
	var all []vecmath.Scored
	for item := 0; item < c.NumItems(); item++ {
		if f := pl.Filter; f != nil {
			if (len(f.AllowNodes) > 0 && !under(item, f.AllowNodes)) || under(item, f.DenyNodes) ||
				slices.Contains(f.ExcludeItems, int32(item)) || (f.Ranged() && (item < f.RangeLo || item >= f.RangeHi)) {
				continue
			}
		}
		node := tree.ItemNode(item)
		v := c.EffNode.Row(node)
		s := 0.0
		if c.P.UseBias {
			s = c.EffBias.Row(node)[0]
		}
		j := 0
		for ; j+2 <= len(q); j += 2 {
			s += q[j]*v[j] + q[j+1]*v[j+1]
		}
		if j < len(q) {
			s += q[j] * v[j]
		}
		all = append(all, vecmath.Scored{ID: item, Score: s})
	}
	slices.SortFunc(all, func(a, b vecmath.Scored) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		}
		return a.ID - b.ID
	})
	if d := pl.Diversify; d != nil {
		depth := d.CatDepth
		if depth == 0 {
			depth = tree.Depth() - 1
		}
		count := map[int]int{}
		var kept []vecmath.Scored
		for _, s := range all {
			cat := tree.AncestorAtDepth(tree.ItemNode(s.ID), depth)
			if count[cat] < d.MaxPerCategory {
				count[cat]++
				kept = append(kept, s)
			}
		}
		all = kept
	}
	if pl.Offset >= len(all) {
		return nil
	}
	all = all[pl.Offset:]
	return all[:min(pl.K, len(all))]
}

// learnedRows are the plan shapes the learned world checks, keyed by name.
func learnedRows(c *model.Composed, user int) []struct {
	name    string
	session bool
	pl      Plan
} {
	tree := c.Tree
	cat := int32(tree.Level(tree.Depth() - 1)[user%len(tree.Level(tree.Depth()-1))])
	top := int32(tree.Level(1)[user%len(tree.Level(1))])
	excl := []int32{int32(user % c.NumItems()), int32((user * 7) % c.NumItems())}
	return []struct {
		name    string
		session bool
		pl      Plan
	}{
		{"plain", false, Plan{K: 10}},
		{"paged", false, Plan{K: 10, Offset: 20}},
		{"session", true, Plan{K: 10}},
		{"allow", false, Plan{K: 10, Filter: &Filter{AllowNodes: []int32{top, cat}}}},
		{"deny", false, Plan{K: 10, Filter: &Filter{DenyNodes: []int32{top}}}},
		{"exclude", false, Plan{K: 10, Filter: &Filter{ExcludeItems: excl}}},
		{"shard", false, Plan{K: 10, Filter: &Filter{RangeLo: 2000, RangeHi: 4000}}},
		{"diversified", false, Plan{K: 10, Strategy: StrategyDiversified, Diversify: &Diversify{MaxPerCategory: 1}}},
		{"catalog", false, Plan{K: c.NumItems()}},
	}
}

// Every learned-world row — plain, paged, session, allow, deny, exclude,
// shard range, diversified and the whole catalog — returns the oracle's
// page on serial and pooled executors at every tier, and on plain pages
// the sweep skips most of the catalog.
func TestLearnedWorldMatchesOracle(t *testing.T) {
	w := learnedFixture(t)
	c := w.C
	pool := NewPool(4)
	defer pool.Close()
	q := make([]float64, c.K())
	before := PruneCounters()
	plain := 0
	for user := 0; user < 40; user++ {
		h := w.History.Users[user].Baskets
		prev := c.PrevBaskets(h, len(h))
		for _, row := range learnedRows(c, user) {
			if row.session {
				c.BuildSessionQueryInto(prev, q)
			} else {
				c.BuildQueryInto(user, prev, q)
			}
			if row.name == "plain" {
				plain++
			}
			want := oracleRank(c, q, row.pl)
			for _, prec := range []model.Precision{model.PrecisionDefault, model.PrecisionF64} {
				for _, p := range []*Pool{nil, pool} {
					pl := row.pl
					pl.Precision = prec
					got, err := p.Execute(context.Background(), c, q, pl)
					if err != nil {
						t.Fatal(err)
					}
					if !samePage(want, got.Items) {
						t.Fatalf("user %d row %s %v pool=%v:\nwant %v\ngot  %v", user, row.name, prec, p != nil, want, got.Items)
					}
				}
			}
		}
	}
	after := PruneCounters()
	// each row but "catalog" runs the sweep four times per user; across
	// them the sweep must skip at least half a catalog per plain page
	skipped := after.ItemsPruned - before.ItemsPruned
	t.Logf("skipped %d items (%.1f catalogs) in %d categories; %d checkpoint bails",
		skipped, float64(skipped)/float64(c.NumItems()), after.CategoriesSkipped-before.CategoriesSkipped, after.Fallbacks-before.Fallbacks)
	if skipped < int64(plain*4*c.NumItems()/2) {
		t.Fatalf("the sweep skipped %d items over %d plain pages of %d items", skipped, plain*4, c.NumItems())
	}
}

// The cut's balls are exact: every radius dominates each member's exact
// distance from the centre, and the next float64 down does not dominate
// the farthest member's.
func TestLearnedWorldBallRadiiExact(t *testing.T) {
	ix := learnedFixture(t).C.Index
	if ix.NumCut() != 160 {
		t.Fatalf("cut holds %d categories, want 160", ix.NumCut())
	}
	for j := 0; j < ix.NumCut(); j++ {
		c, r := ix.CutCentre(j), ix.CutRadius(j)
		lo, hi := ix.DFSSpan(ix.CutNode(j))
		far := new(big.Float)
		for _, it := range ix.DFSItems()[lo:hi] {
			d2 := new(big.Float).SetPrec(4096)
			for d, x := range ix.ItemFactor(int(it)) {
				diff := new(big.Float).SetPrec(4096).Sub(big.NewFloat(x), big.NewFloat(c[d]))
				d2.Add(d2, diff.Mul(diff, diff))
			}
			if d2.Cmp(far) > 0 {
				far = d2
			}
		}
		square := func(x float64) *big.Float {
			b := big.NewFloat(x)
			return new(big.Float).SetPrec(4096).Mul(b, b)
		}
		if square(r).Cmp(far) < 0 {
			t.Fatalf("category %d: radius %v below its farthest member", j, r)
		}
		if r > 0 && square(math.Nextafter(r, 0)).Cmp(far) >= 0 {
			t.Fatalf("category %d: radius %v is not the tightest float64", j, r)
		}
	}
}

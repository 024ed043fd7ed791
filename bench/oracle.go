package main

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/api"
	"repro/internal/model"
	"repro/internal/vecmath"
)

// oracle re-derives recommend pages the slow, obvious way: one plain f64
// scan of every item score (Composed.ItemScoresInto), a full sort by
// (score descending, id ascending), and the filters, offset and
// per-category quota applied literally as docs/API.md words them. It
// shares no code with the executor's heaps, masks, tiers or pruning, and
// a router must answer exactly as one node would, so the same oracle
// checks both.
type oracle struct {
	c *model.Composed
	// purchased[u] lists user u's recorded items (nil without a log).
	purchased [][]int32

	mu   sync.Mutex
	memo map[string][]api.Item // aliasKey -> the page every such request must get
}

func newOracle(c *model.Composed, purchased [][]int32) *oracle {
	return &oracle{c: c, purchased: purchased, memo: make(map[string][]api.Item)}
}

// purchasedOf returns user u's recorded items, nil when unknown.
func (o *oracle) purchasedOf(u int) []int32 {
	if u < 0 || u >= len(o.purchased) {
		return nil
	}
	return o.purchased[u]
}

// under reports whether item sits in the subtree of any of nodes.
func (o *oracle) under(item int, nodes []int32) bool {
	tree := o.c.Tree
	for n := tree.ItemNode(item); ; n = tree.Parent(n) {
		if slices.Contains(nodes, int32(n)) {
			return true
		}
		if n == tree.Root() {
			return false
		}
	}
}

// oracleScratch holds one checker's catalog-sized buffers, reused from
// check to check: a run re-derives hundreds of pages, and a fresh
// megabyte or two per page is churn the measuring process can do without.
type oracleScratch struct {
	q, scores []float64
	ranked    []vecmath.Scored
}

func (o *oracle) newScratch() *oracleScratch {
	n := o.c.NumItems()
	return &oracleScratch{q: make([]float64, o.c.K()), scores: make([]float64, n), ranked: make([]vecmath.Scored, 0, n)}
}

// ranked returns every eligible item of sc's request, best first. The
// result aliases sx and is valid until sx's next use.
func (o *oracle) ranked(sc *scenario, sx *oracleScratch) []vecmath.Scored {
	c, r := o.c, &sc.req
	q, scores := sx.q, sx.scores
	if r.User == -1 {
		c.BuildSessionQueryInto(sc.recent(), q)
	} else {
		c.BuildQueryInto(r.User, sc.recent(), q)
	}
	c.ItemScoresInto(q, scores)

	var bought map[int32]bool
	if r.ExcludePurchased {
		bought = make(map[int32]bool)
		for _, it := range o.purchasedOf(r.User) {
			bought[it] = true
		}
		for _, b := range r.Recent {
			for _, it := range b {
				bought[it] = true
			}
		}
	}
	out := sx.ranked[:0]
	for item, s := range scores {
		switch {
		case len(r.Categories) > 0 && !o.under(item, r.Categories):
		case len(r.ExcludeCategories) > 0 && o.under(item, r.ExcludeCategories):
		case bought[int32(item)]:
		default:
			out = append(out, vecmath.Scored{ID: item, Score: s})
		}
	}
	slices.SortFunc(out, func(a, b vecmath.Scored) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		default:
			return a.ID - b.ID
		}
	})
	return out
}

// quotaDepth resolves cat_depth: 0 means the lowest category level.
func (o *oracle) quotaDepth(catDepth int) int {
	if catDepth == 0 {
		return o.c.Tree.Depth() - 1
	}
	return catDepth
}

// categoryOf returns item's ancestor at taxonomy depth d.
func (o *oracle) categoryOf(item, d int) int32 {
	tree := o.c.Tree
	return int32(tree.AncestorAtDepth(tree.ItemNode(item), d))
}

// expect computes the exact page for an exact-strategy scenario.
func (o *oracle) expect(sc *scenario, sx *oracleScratch) []api.Item {
	r := &sc.req
	ranked := o.ranked(sc, sx)
	var page []api.Item
	if r.Strategy == "diversified" {
		// walk the ranking, letting each category place at most its quota
		d := o.quotaDepth(r.CatDepth)
		placed := make(map[int32]int)
		for _, s := range ranked {
			cat := o.categoryOf(s.ID, d)
			if placed[cat] < r.MaxPerCategory {
				placed[cat]++
				page = append(page, api.Item{Item: s.ID, Score: s.Score, Category: cat})
			}
			if len(page) == r.Offset+r.K {
				break
			}
		}
	} else {
		for _, s := range ranked[:min(len(ranked), r.Offset+r.K)] {
			page = append(page, api.Item{Item: s.ID, Score: s.Score})
		}
	}
	return page[min(len(page), r.Offset):]
}

// checkCascade checks a cascaded page for shape only — cascade is
// approximate by design, so which items it finds is not pinned, but what
// it returns must be k eligible items with their true scores, best
// first.
func (o *oracle) checkCascade(sc *scenario, got []api.Item, sx *oracleScratch) error {
	ranked := o.ranked(sc, sx)
	score := make(map[int]float64, len(ranked))
	for _, s := range ranked {
		score[s.ID] = s.Score
	}
	if want := min(sc.req.K, len(ranked)); len(got) != want {
		return fmt.Errorf("cascade returned %d items, want %d", len(got), want)
	}
	for i, it := range got {
		want, ok := score[it.Item]
		if !ok {
			return fmt.Errorf("cascade item %d is not eligible", it.Item)
		}
		if it.Score != want {
			return fmt.Errorf("cascade item %d scored %v, exact score is %v", it.Item, it.Score, want)
		}
		if i > 0 && (got[i-1].Score < it.Score || (got[i-1].Score == it.Score && got[i-1].Item > it.Item)) {
			return fmt.Errorf("cascade page out of order at position %d", i)
		}
	}
	return nil
}

// check verifies one sampled response; a non-nil error is a failed
// operation.
func (o *oracle) check(sc *scenario, resp *api.RecommendResponse, sx *oracleScratch) error {
	if sc.req.Strategy == "cascade" {
		return o.checkCascade(sc, resp.Items, sx)
	}
	key := sc.aliasKey()
	o.mu.Lock()
	want, ok := o.memo[key]
	o.mu.Unlock()
	if !ok {
		want = o.expect(sc, sx)
		o.mu.Lock()
		o.memo[key] = want
		o.mu.Unlock()
	}
	if len(resp.Items) != len(want) {
		return fmt.Errorf("%s user %d: got %d items, oracle has %d", sc.kind, sc.req.User, len(resp.Items), len(want))
	}
	for i := range want {
		if resp.Items[i] != want[i] {
			return fmt.Errorf("%s user %d: position %d is %+v, oracle has %+v", sc.kind, sc.req.User, i, resp.Items[i], want[i])
		}
	}
	return nil
}

// checkAll verifies every sampled response across workers goroutines and
// returns how many it checked and the mismatches.
func (o *oracle) checkAll(samples []sample, workers int) (checked int, errs []error) {
	var picked []*sample
	for i := range samples {
		if samples[i].resp != nil {
			picked = append(picked, &samples[i])
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sx := o.newScratch()
			for i := w; i < len(picked); i += workers {
				if err := o.check(picked[i].sc, picked[i].resp, sx); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	return len(picked), errs
}

// historyItems lists every user's distinct recorded items, sorted — what
// serve.WithHistory derives from the same log.
func historyItems(w *world) [][]int32 {
	if w.log == nil {
		return nil
	}
	out := make([][]int32, w.log.NumUsers())
	for u := range w.log.Users {
		for it := range w.log.Users[u].ItemSet() {
			out[u] = append(out[u], it)
		}
		slices.Sort(out[u])
	}
	return out
}

package infer

import (
	"fmt"
	"sync"

	"repro/internal/model"
	"repro/internal/vecmath"
)

// Filter restricts which catalog items a plan may return. Semantically it
// applies BEFORE the ranking heap: excluded items are never scored into a
// collector, so a plan's K means "K returned items", not "K scanned minus
// whatever the filter ate". The three capabilities compose by
// intersection:
//
//   - AllowNodes, when non-empty, restricts candidates to the union of the
//     leaf items under the listed taxonomy nodes (category-constrained
//     pages);
//   - DenyNodes removes the leaves under the listed nodes;
//   - ExcludeItems removes individual item ids (the exclude-already-
//     purchased path builds this from the user's history).
//
// The zero value / nil filter passes everything.
type Filter struct {
	// AllowNodes lists taxonomy node ids whose subtrees are eligible
	// (union). Empty means the whole catalog.
	AllowNodes []int32
	// DenyNodes lists taxonomy node ids whose subtrees are removed.
	DenyNodes []int32
	// ExcludeItems lists individual item ids to remove; duplicates are
	// harmless.
	ExcludeItems []int32
	// RangeLo/RangeHi, when RangeHi > RangeLo, restrict candidates to the
	// half-open catalog slice [RangeLo, RangeHi) — the shard-scoped
	// serving mode, where one process answers for a contiguous piece of
	// the catalog and a router merges per-shard rankings. Like the other
	// capabilities it composes by intersection, so category filters and
	// exclusions apply within the range. RangeHi <= RangeLo (the zero
	// value) means the whole catalog.
	RangeLo int
	RangeHi int
}

// Ranged reports whether the filter carries a catalog range restriction.
func (f *Filter) Ranged() bool {
	return f != nil && f.RangeHi > f.RangeLo
}

// Empty reports whether the filter passes every item.
func (f *Filter) Empty() bool {
	return f == nil || (len(f.AllowNodes) == 0 && len(f.DenyNodes) == 0 &&
		len(f.ExcludeItems) == 0 && !f.Ranged())
}

// validate checks every referenced id against the snapshot.
func (f *Filter) validate(c *model.Composed) error {
	if f == nil {
		return nil
	}
	numNodes := c.Tree.NumNodes()
	for _, lists := range []struct {
		name  string
		nodes []int32
	}{{"allow", f.AllowNodes}, {"deny", f.DenyNodes}} {
		for _, n := range lists.nodes {
			if n < 0 || int(n) >= numNodes {
				return fmt.Errorf("infer: filter %s node %d outside [0,%d)", lists.name, n, numNodes)
			}
		}
	}
	numItems := c.Tree.NumItems()
	for _, it := range f.ExcludeItems {
		if it < 0 || int(it) >= numItems {
			return fmt.Errorf("infer: filter excluded item %d outside [0,%d)", it, numItems)
		}
	}
	if f.Ranged() {
		if f.RangeLo < 0 || f.RangeHi > numItems {
			return fmt.Errorf("infer: filter item range [%d,%d) outside [0,%d)", f.RangeLo, f.RangeHi, numItems)
		}
	}
	return nil
}

// compiledFilter is a filter rendered against one snapshot: an item
// eligibility bitset plus the surviving item count (which bounds the
// two-stage escalation budget — once the candidate heap covers every
// eligible item there is nothing left to prune). Compiled filters are
// pooled so the steady-state filtered serving path reuses the mask words.
type compiledFilter struct {
	mask     vecmath.Bitset
	eligible int
}

var filterPool = sync.Pool{New: func() any { return new(compiledFilter) }}

// compileFilter renders f as an eligibility mask over the index's
// item-major layout. It returns nil for an empty filter (the unfiltered
// sweeps then run their original mask-free code paths). The caller must
// releaseFilter the result when the query completes.
func compileFilter(ix *model.ScoringIndex, f *Filter) *compiledFilter {
	if f.Empty() {
		return nil
	}
	cf := filterPool.Get().(*compiledFilter)
	cf.mask.Resize(ix.NumItems())
	if len(f.AllowNodes) == 0 {
		cf.mask.Fill()
	} else {
		for _, n := range f.AllowNodes {
			ix.MarkSubtree(&cf.mask, int(n), true)
		}
	}
	for _, n := range f.DenyNodes {
		ix.MarkSubtree(&cf.mask, int(n), false)
	}
	for _, it := range f.ExcludeItems {
		cf.mask.Unset(int(it))
	}
	if f.Ranged() {
		cf.mask.UnsetRange(0, f.RangeLo)
		cf.mask.UnsetRange(f.RangeHi, ix.NumItems())
	}
	cf.eligible = cf.mask.Count()
	return cf
}

// releaseFilter recycles a compiled filter; nil is a no-op.
func releaseFilter(cf *compiledFilter) {
	if cf != nil {
		filterPool.Put(cf)
	}
}

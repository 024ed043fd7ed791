package main

import (
	"bytes"
	"container/list"
	"testing"

	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

// testTree is a small taxonomy with the reference worlds' depth.
func testTree(t *testing.T, levels []int, items int) *taxonomy.Tree {
	t.Helper()
	tree, err := taxonomy.Generate(taxonomy.GenConfig{CategoryLevels: levels, Items: items, Skew: 0.3}, vecmath.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// signature renders the first n requests of a stream as one byte string.
func signature(g *streamGen, n int) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		sc := g.next()
		b.WriteString(sc.kind + "?" + sc.query + " ")
		b.Write(sc.body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestStreamsAreSeeded(t *testing.T) {
	tree := testTree(t, []int{16, 128, 1024}, 5000)
	for _, tc := range []struct {
		name string
		mix  []mixEntry
		zipf float64
	}{{"dense", denseMix, 0}, {"hot", hotMix, 1.1}, {"taxo", taxoMix, 0}} {
		a := signature(newStream(7, tc.mix, tree, 2000, tc.zipf), 500)
		b := signature(newStream(7, tc.mix, tree, 2000, tc.zipf), 500)
		c := signature(newStream(8, tc.mix, tree, 2000, tc.zipf), 500)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different streams", tc.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same stream", tc.name)
		}
	}
}

func TestMixFollowsWeights(t *testing.T) {
	tree := testTree(t, []int{8, 64, 512}, 5000)
	g := newStream(1, denseMix, tree, 50000, 0)
	const n = 20000
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		counts[g.next().kind]++
	}
	for _, m := range denseMix {
		want := float64(m.weight) / 100
		if got := float64(counts[m.kind]) / n; got < want-0.02 || got > want+0.02 {
			t.Errorf("%s: share %.3f, want %.2f", m.kind, got, want)
		}
	}
}

func TestZipfStreamConcentrates(t *testing.T) {
	tree := testTree(t, []int{8, 64, 512}, 5000)
	g := newStream(1, hotMix, tree, 50000, 1.1)
	const n = 20000
	seen := map[int]int{}
	for i := 0; i < n; i++ {
		seen[g.next().req.User]++
	}
	top := 0
	for _, c := range seen {
		top = max(top, c)
	}
	// Zipf(1.1) over 50k users gives the hottest user ~14% of the draws
	if share := float64(top) / n; share < 0.08 || share > 0.2 {
		t.Errorf("hottest user drew %.3f of the traffic", share)
	}
}

// lruHitRatio replays a stream's cache identities through an LRU of the
// reference capacity, the way the serving result cache would see them.
func lruHitRatio(g *streamGen, n, capacity int) float64 {
	order := list.New()
	at := map[string]*list.Element{}
	hits := 0
	for i := 0; i < n; i++ {
		key := g.next().aliasKey()
		if e, ok := at[key]; ok {
			hits++
			order.MoveToFront(e)
			continue
		}
		at[key] = order.PushFront(key)
		if order.Len() > capacity {
			last := order.Back()
			delete(at, last.Value.(string))
			order.Remove(last)
		}
	}
	return float64(hits) / float64(n)
}

// The cache key ignores precision and pruned, so two mix entries for the
// same user would silently turn a sweep into a hit. The miss-path
// streams must not alias even over many times the cache's capacity.
func TestMissStreamsDoNotAliasInTheCache(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mix   []mixEntry
		tree  *taxonomy.Tree
		users int
	}{
		{"node_dense", denseMix, testTree(t, wideWorld.levels, 5000), wideWorld.users},
		{"router3_taxo", taxoMix, testTree(t, skewedWorld.levels, 5000), skewedWorld.users},
	} {
		if hr := lruHitRatio(newStream(3, tc.mix, tc.tree, tc.users, 0), 40000, cacheEntries); hr >= 0.05 {
			t.Errorf("%s: stream would hit the result cache on %.3f of requests", tc.name, hr)
		}
	}
	// the control: the hot stream is meant to hit
	if hr := lruHitRatio(newStream(3, hotMix, testTree(t, wideWorld.levels, 5000), wideWorld.users, 1.1), 40000, cacheEntries); hr < 0.6 {
		t.Errorf("node_hot: hit ratio %.3f, the stream is meant to be cacheable", hr)
	}
}

func TestPlanKinds(t *testing.T) {
	tree := testTree(t, []int{16, 128, 1024}, 5000)
	seen := map[string]bool{}
	for _, mix := range [][]mixEntry{denseMix, taxoMix} {
		g := newStream(1, mix, tree, 2000, 0)
		for i := 0; i < 2000; i++ {
			seen[g.next().planKind()] = true
		}
	}
	for _, k := range planKinds {
		if !seen[k] {
			t.Errorf("no mix produces plan kind %s", k)
		}
	}
}

package taxonomy

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/vecmath"
)

// randomTreeConfig derives a small but arbitrary valid GenConfig from
// quick-generated bytes, so the properties below range over many shapes.
func randomTreeConfig(a, b, c, items uint8) GenConfig {
	top := 1 + int(a)%5
	mid := top + int(b)%9
	low := mid + int(c)%17
	return GenConfig{
		CategoryLevels: []int{top, mid, low},
		Items:          low + 1 + int(items)%120,
		Skew:           float64(b%3) * 0.5,
	}
}

// Property: every generated tree is valid, uniform-depth, and its
// item/node mappings are mutually inverse.
func TestQuickGeneratedTreesAreConsistent(t *testing.T) {
	f := func(a, b, c, items uint8, seed uint16) bool {
		cfg := randomTreeConfig(a, b, c, items)
		tree, err := Generate(cfg, vecmath.NewRNG(uint64(seed)))
		if err != nil {
			return false
		}
		if !tree.IsUniformDepth() {
			return false
		}
		for item := 0; item < tree.NumItems(); item++ {
			if tree.NodeItem(tree.ItemNode(item)) != item {
				return false
			}
		}
		// interior nodes occupy the low ids, leaves the rest
		for node := 0; node < tree.NumNodes(); node++ {
			if tree.IsLeaf(node) != (node >= tree.NumNodes()-tree.NumItems()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: text serialization round-trips every generated tree exactly.
func TestQuickTextRoundTrip(t *testing.T) {
	f := func(a, b, c, items uint8, seed uint16) bool {
		cfg := randomTreeConfig(a, b, c, items)
		tree, err := Generate(cfg, vecmath.NewRNG(uint64(seed)))
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := tree.WriteText(&buf); err != nil {
			return false
		}
		back, err := ReadText(&buf)
		if err != nil {
			return false
		}
		if back.NumNodes() != tree.NumNodes() {
			return false
		}
		for n := 0; n < tree.NumNodes(); n++ {
			if back.Parent(n) != tree.Parent(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: ReadText never panics on arbitrary input — it either parses a
// valid tree or returns an error.
func TestQuickReadTextNeverPanics(t *testing.T) {
	f := func(junk string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = ReadText(strings.NewReader(junk))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// and some adversarial hand-picked inputs
	for _, s := range []string{
		"taxonomy 999999999999999999999\n",
		"taxonomy 3\n0 -1\n1 0\n2 -9\n",
		"taxonomy 1\n0 -1\n0 -1\n",
		"taxonomy 2\n1 0\n0 -1\n",
	} {
		func() {
			defer func() {
				if recover() != nil {
					t.Errorf("panic on %q", s)
				}
			}()
			_, _ = ReadText(strings.NewReader(s))
		}()
	}
}

// Property: Ancestor composes — Ancestor(n, a+b) == Ancestor(Ancestor(n,a), b).
func TestQuickAncestorComposes(t *testing.T) {
	tree := MustGenerate(GenConfig{CategoryLevels: []int{3, 7, 15}, Items: 60}, vecmath.NewRNG(5))
	f := func(item uint16, a, b uint8) bool {
		node := tree.ItemNode(int(item) % tree.NumItems())
		am, bm := int(a)%6, int(b)%6
		return tree.Ancestor(node, am+bm) == tree.Ancestor(tree.Ancestor(node, am), bm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

package model

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"testing"

	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

// ---- reference writer ------------------------------------------------------
//
// The compose-then-write path Save used before it streamed: Compose() the
// whole snapshot, force both reduced-precision tiers, and write the slabs
// of the resulting ScoringIndex. It is the oracle the streaming writer
// must match byte for byte.

type refSectionV4 struct {
	id   uint32
	data []byte
}

// saveComposedReference writes m's v4 file from a Compose() snapshot.
func saveComposedReference(w io.Writer, m *TF) error {
	return writeRefSectionsV4(w, refSectionsV4(m, m.Compose()))
}

// writeRefSectionsV4 lays the sections out in id order with 64-byte-aligned
// offsets and writes header, table, and slabs sequentially.
func writeRefSectionsV4(w io.Writer, secs []refSectionV4) error {
	count := len(secs)
	tableLen := uint64(count) * tableEntryV4Len
	off := alignUpV4(headerV4Len + tableLen)
	table := make([]byte, tableLen)
	fileSize := off
	for i, s := range secs {
		e := table[i*tableEntryV4Len:]
		binary.LittleEndian.PutUint32(e[0:], s.id)
		binary.LittleEndian.PutUint32(e[4:], crc32.Checksum(s.data, castagnoli))
		binary.LittleEndian.PutUint64(e[8:], off)
		binary.LittleEndian.PutUint64(e[16:], uint64(len(s.data)))
		fileSize = off + uint64(len(s.data))
		off = alignUpV4(fileSize)
	}

	header := make([]byte, headerV4Len)
	copy(header, fileMagic[:])
	binary.BigEndian.PutUint32(header[len(fileMagic):], 4)
	binary.LittleEndian.PutUint32(header[12:], uint32(count))
	binary.LittleEndian.PutUint64(header[16:], fileSize)
	binary.LittleEndian.PutUint32(header[24:], crc32.Checksum(table, castagnoli))
	if _, err := w.Write(header); err != nil {
		return err
	}
	if _, err := w.Write(table); err != nil {
		return err
	}
	var pad [sectionAlignV4]byte
	pos := headerV4Len + tableLen
	for _, s := range secs {
		if gap := alignUpV4(pos) - pos; gap > 0 {
			if _, err := w.Write(pad[:gap]); err != nil {
				return err
			}
			pos += gap
		}
		if _, err := w.Write(s.data); err != nil {
			return err
		}
		pos += uint64(len(s.data))
	}
	return nil
}

// refSectionsV4 assembles the full section list from a model and its
// composed snapshot, forcing the lazy f32/int8 item tiers and magnitude
// bounds. The index keeps no node-major reduced tiers, so the node f32
// and int8 sections and their aggregates are derived here from the
// snapshot's node rows.
func refSectionsV4(m *TF, c *Composed) []refSectionV4 {
	ix := c.Index
	ix.ensure32()
	ix.ensure8()
	numNodes := m.Tree.NumNodes()
	node32 := vecmath.NewMatrix32(numNodes, m.P.K)
	node32.SetFrom(ix.nodeFactors)
	nodeBias32 := make([]float32, numNodes)
	vecmath.Downconvert32(nodeBias32, ix.nodeBias)
	nodeI8 := vecmath.NewMatrixI8(numNodes, m.P.K)
	nodeScaleI8 := make([]float64, numNodes)
	nodeOffsetI8 := make([]float64, numNodes)
	maxNodeRowErrI8, maxNodeScaleI8, maxAbsNodeOffsetI8 := nodeI8.QuantizeFrom(ix.nodeFactors, nodeScaleI8, nodeOffsetI8)
	parent, depth, childOff, childList, levelOff, levelList, itemNode, nodeItem, root := m.Tree.Layout()

	flags := uint64(0)
	if m.P.UseBias {
		flags |= metaFlagUseBias
	}
	if m.P.UniformDecay {
		flags |= metaFlagUniformDecay
	}
	mt := metaV4{
		numUsers:       uint64(m.NumUsers()),
		numNodes:       uint64(m.Tree.NumNodes()),
		numItems:       uint64(m.Tree.NumItems()),
		k:              uint64(m.P.K),
		depth:          uint64(m.Tree.Depth()),
		taxonomyLevels: uint64(m.P.TaxonomyLevels),
		markovOrder:    uint64(m.P.MarkovOrder),
		root:           uint64(root),
		flags:          flags,
		alpha:          m.P.Alpha,
		initStd:        m.P.InitStd,

		maxAbsItemFactor: ix.maxAbsItemFactor, maxAbsItemBias: ix.maxAbsItemBias,
		maxAbsNodeFactor: vecmath.MaxAbs(ix.nodeFactors), maxAbsNodeBias: vecmath.MaxAbs(ix.nodeBias),
		maxItemRowErrI8: ix.maxItemRowErrI8, maxItemScaleI8: ix.maxItemScaleI8,
		maxAbsItemOffsetI8: ix.maxAbsItemOffsetI8,
		maxNodeRowErrI8:    maxNodeRowErrI8, maxNodeScaleI8: maxNodeScaleI8,
		maxAbsNodeOffsetI8: maxAbsNodeOffsetI8,
	}

	itemCat := make([]int32, 0, (m.Tree.Depth()+1)*ix.numItems)
	for _, col := range ix.itemCat {
		itemCat = append(itemCat, col...)
	}

	return []refSectionV4{
		{secMeta, mt.encode()},
		{secTreeParent, i32Bytes(parent)},
		{secTreeDepth, i32Bytes(depth)},
		{secTreeChildOff, i32Bytes(childOff)},
		{secTreeChildList, i32Bytes(childList)},
		{secTreeLevelOff, i32Bytes(levelOff)},
		{secTreeLevelList, i32Bytes(levelList)},
		{secTreeItemNode, i32Bytes(itemNode)},
		{secTreeNodeItem, i32Bytes(nodeItem)},
		{secRawUser, f64Bytes(m.User.CompactData())},
		{secRawNode, f64Bytes(m.Node.CompactData())},
		{secRawNext, f64Bytes(m.Next.CompactData())},
		{secRawBias, f64Bytes(m.Bias.CompactData())},
		{secEffNode, f64Bytes(c.EffNode.Data())},
		{secEffNext, f64Bytes(c.EffNext.Data())},
		{secEffBias, f64Bytes(c.EffBias.Data())},
		{secItemFactors, f64Bytes(ix.itemFactors)},
		{secItemBias, f64Bytes(ix.itemBias)},
		{secItem32, f32Bytes(ix.item32.Data())},
		{secItemBias32, f32Bytes(ix.itemBias32)},
		{secNode32, f32Bytes(node32.Data())},
		{secNodeBias32, f32Bytes(nodeBias32)},
		{secItemI8, i8Bytes(ix.itemI8.Data())},
		{secItemScaleI8, f64Bytes(ix.itemScaleI8)},
		{secItemOffsetI8, f64Bytes(ix.itemOffsetI8)},
		{secNodeI8, i8Bytes(nodeI8.Data())},
		{secNodeScaleI8, f64Bytes(nodeScaleI8)},
		{secNodeOffsetI8, f64Bytes(nodeOffsetI8)},
		{secItemCat, i32Bytes(itemCat)},
		{secLevelPos, i32Bytes(ix.levelPos)},
		{secItemLo, i32Bytes(ix.itemLo)},
		{secItemHi, i32Bytes(ix.itemHi)},
		{secSubtreeLeaves, i32Bytes(ix.subtreeLeaves)},
		{secDFSItems, i32Bytes(ix.dfsItems)},
		{secDFSLo, i32Bytes(ix.dfsLo)},
		{secDFSHi, i32Bytes(ix.dfsHi)},
		{secSubLo, f64Bytes(ix.subLo)},
		{secSubHi, f64Bytes(ix.subHi)},
		{secSubMaxBias, f64Bytes(ix.subMaxBias)},
		{secNodeBias, f64Bytes(ix.nodeBias)},
	}
}

// ---- byte identity -----------------------------------------------------------

// fillRows draws every row of mat from N(0, std²).
func fillRows(mat *vecmath.Matrix, rng *vecmath.RNG, std float64) {
	for i := 0; i < mat.Rows(); i++ {
		fillRowGaussian(mat.Row(i), rng, std)
	}
}

// raggedTF builds a model over a tree New rejects — items at depths 1
// and 3, a root that is not node 0, parents with larger ids than their
// children — by filling the struct directly: Save reads only the factor
// matrices, the tree and the parameters. Coordinate 0 mixes
// +0 and −0 across sibling leaves, so a subtree envelope folded in any
// other order than buildIndex's keeps a different zero.
func raggedTF(t *testing.T) *TF {
	t.Helper()
	//          0  1  2   3  4  5  6  7  8  9 10
	parents := []int{3, 7, 1, taxonomy.NoParent, 1, 3, 8, 3, 7, 8, 1}
	tree, err := taxonomy.NewFromParents(parents)
	if err != nil {
		t.Fatal(err)
	}
	if tree.IsUniformDepth() {
		t.Fatal("fixture tree should be ragged")
	}
	p := Params{K: 5, TaxonomyLevels: 4, MarkovOrder: 1, Alpha: 1, InitStd: 0.3, UseBias: true}
	m := &TF{
		P:    p,
		Tree: tree,
		User: vecmath.NewMatrixPadded(3, p.K),
		Node: vecmath.NewMatrixPadded(tree.NumNodes(), p.K),
		Next: vecmath.NewMatrixPadded(tree.NumNodes(), p.K),
		Bias: vecmath.NewMatrixPadded(tree.NumNodes(), 1),
	}
	rng := vecmath.NewRNG(21)
	for _, mat := range []*vecmath.Matrix{m.User, m.Node, m.Next, m.Bias} {
		fillRows(mat, rng, 0.3)
	}
	negZero := math.Copysign(0, -1)
	for n := 0; n < tree.NumNodes(); n++ {
		m.Node.Row(n)[0] = negZero // interior rows compose to −0
		if tree.IsLeaf(n) && tree.NodeItem(n)%2 == 0 {
			m.Node.Row(n)[0] = 0 // −0 + +0 = +0 on these leaves
		}
	}
	return m
}

// newSaveWorld generates a uniform-depth model for the byte-identity
// matrix; biases are drawn so the folded-bias sections carry signal even
// when the parameters leave them untrained.
func newSaveWorld(t *testing.T, items, k, markov int, useBias bool) *TF {
	t.Helper()
	tree := taxonomy.MustGenerate(taxonomy.GenConfig{CategoryLevels: []int{4, 15}, Items: items, Skew: 0.3}, vecmath.NewRNG(uint64(items)))
	m, err := New(tree, 7, Params{K: k, TaxonomyLevels: 3, MarkovOrder: markov, Alpha: 1, InitStd: 0.2, UseBias: useBias}, vecmath.NewRNG(uint64(k)))
	if err != nil {
		t.Fatal(err)
	}
	fillRows(m.Bias, vecmath.NewRNG(99), 0.5)
	return m
}

// firstDiff names the first section (in want's table) whose bytes differ
// in got — a differing checksum in the table is only the symptom.
func firstDiff(got, want []byte) string {
	if len(got) != len(want) {
		return fmt.Sprintf("file is %d bytes, want %d", len(got), len(want))
	}
	count := binary.LittleEndian.Uint32(want[12:])
	for j := uint32(0); j < count; j++ {
		e := want[headerV4Len+uint64(j)*tableEntryV4Len:]
		off, l := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
		g, w := got[off:off+l], want[off:off+l]
		for i := range w {
			if g[i] != w[i] {
				return fmt.Sprintf("section %s differs at byte %d of %d", sectionNamesV4[binary.LittleEndian.Uint32(e[0:])], i, l)
			}
		}
	}
	return "sections agree; header, table or padding differs"
}

// Save streams the file straight from the raw model; its bytes must equal
// the compose-then-write reference on every model shape the derivations
// branch on.
func TestSaveMatchesComposedReference(t *testing.T) {
	snap, _ := snapshotWorld(t)
	cases := []struct {
		name string
		m    *TF
	}{
		{"snapshot world (biases, int8)", snap},
		{"no bias", newSaveWorld(t, 90, 6, 1, false)},
		{"ragged tree", raggedTF(t)},
		{"markov order 0", newSaveWorld(t, 90, 6, 0, true)},
		{"K=13, items not a chunk multiple", newSaveWorld(t, 3*saveChunkRows+37, 13, 1, true)},
		{"fuzz seed with Inf bias", fuzzSeedTF(t, func(m *TF) { m.Bias.Row(0)[0] = math.Inf(1) })},
		{"fuzz seed with NaN factor", fuzzSeedTF(t, func(m *TF) { m.Node.Row(1)[0] = math.NaN() })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got, want bytes.Buffer
			if err := tc.m.Save(&got); err != nil {
				t.Fatal(err)
			}
			if err := saveComposedReference(&want, tc.m); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatal(firstDiff(got.Bytes(), want.Bytes()))
			}
		})
	}
}

// countingWriter discards bytes and counts them without allocating.
type countingWriter struct{ n uint64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += uint64(len(p))
	return len(p), nil
}

// Save's heap must stay O(nodes), not O(file): on a 20k-item K=32 world
// the bytes it allocates are at most an eighth of the bytes it writes.
// Composing the snapshot alone allocates more than half the file.
func TestSaveHeapFootprint(t *testing.T) {
	tree := taxonomy.MustGenerate(taxonomy.GenConfig{CategoryLevels: []int{10, 200}, Items: 20000, Skew: 0.3}, vecmath.NewRNG(5))
	m, err := New(tree, 500, Params{K: 32, TaxonomyLevels: 3, MarkovOrder: 1, Alpha: 1, InitStd: 0.1, UseBias: true}, vecmath.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	var out countingWriter
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := m.Save(&out); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("Save allocated %d bytes writing %d (%.1f%%)", alloc, out.n, 100*float64(alloc)/float64(out.n))
	if alloc > out.n/8 {
		t.Fatalf("Save allocated %d bytes for a %d-byte file; the bound is %d (1/8)", alloc, out.n, out.n/8)
	}
}

// failAfter accepts limit bytes, then fails every write.
type failAfter struct{ limit int }

var errDiskFull = errors.New("disk full")

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.limit {
		n := w.limit
		w.limit = 0
		return n, errDiskFull
	}
	w.limit -= len(p)
	return len(p), nil
}

// A failing destination surfaces its error from Save, wherever in the
// stream it fails.
func TestSaveReportsWriteErrors(t *testing.T) {
	m := newSaveWorld(t, 90, 6, 1, true)
	var full bytes.Buffer
	if err := m.Save(&full); err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{0, headerV4Len + 5, full.Len() / 2, full.Len() - 1} {
		if err := m.Save(&failAfter{limit: limit}); !errors.Is(err, errDiskFull) {
			t.Fatalf("limit %d: Save returned %v, want the writer's error", limit, err)
		}
	}
}

package model

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

// The streaming v4 writer. The header and section table carry every
// section's CRC-32C ahead of the data, and Save takes a plain io.Writer,
// so the file is produced in two passes over one list of section
// producers: the first runs every producer into a checksum sink, the
// second runs them again into the buffered destination. Producers derive
// their rows on the fly from the raw model with the arithmetic Compose,
// buildIndex and the lazy int8 tier use (f32 rows are the Downconvert32
// rounding of the f64 rows), so the bytes equal what
// composing the whole snapshot and writing its slabs would produce, while
// the writer's heap stays at O(numNodes) tables plus O(interior nodes × K)
// caches instead of O(file).

const (
	// saveChunkRows is how many rows a producer derives into its scratch
	// slab before emitting them as one write.
	saveChunkRows = 256
	// saveBufferBytes sizes the buffer between the producers and the
	// destination writer.
	saveBufferBytes = 256 << 10
)

// v4Sink receives one pass of the stream. In the checksum pass (w == nil)
// bytes fold into crc; in the write pass they go to w, and the first
// error is kept so producers can emit without checking every row.
type v4Sink struct {
	w   io.Writer
	crc uint32
	n   uint64
	err error
}

func (s *v4Sink) write(b []byte) {
	s.n += uint64(len(b))
	if s.w == nil {
		s.crc = crc32Update(s.crc, b)
	} else if s.err == nil {
		_, s.err = s.w.Write(b)
	}
}

// v4Section is one section of the file: its id and a producer that emits
// its bytes in order. Every producer runs once per pass and must emit the
// same bytes each time.
type v4Section struct {
	id   uint32
	emit func(*v4Sink)
}

// saveStream holds what the producers share: the model, its meta section
// (aggregates included, computed up front), the taxonomy-only layout
// tables, the composed biases of every node, the composed factor rows and
// subtree envelopes of the interior nodes, and the int8 tier of every node
// row. A leaf's factor row is recomposed from its parent's cached row
// whenever a section needs it.
type saveStream struct {
	m    *TF
	tree *taxonomy.Tree
	k    int
	mt   metaV4
	lay  indexLayout

	// effBias is the composed bias of every node (the eff.bias section).
	effBias []float64
	// slot maps a node to its row in the interior caches, −1 for a leaf.
	slot             []int32
	effNode, effNext []float64 // interior × k composed factor rows
	envLo, envHi     []float64 // interior × k subtree envelopes
	envBias          []float64 // interior subtree max bias

	// the int8 tier of every node row, in node order; item rows are leaf
	// rows, so the item sections gather from it through itemNode
	codes         []int8
	scale, offset []float64

	row    []float64 // k: a recomposed leaf row
	buf64  []float64 // saveChunkRows × k
	buf32  []float32 // saveChunkRows × k
	bufI32 []int32   // saveChunkRows
	bufI8  []int8    // saveChunkRows × k
}

// newSaveStream builds the caches and the meta section. The magnitude
// bounds and quantization aggregates fold row by row in each slab's row
// order, with the comparisons vecmath.MaxAbs and MatrixI8.QuantizeFrom
// use, so they equal what the lazy tiers compute over the composed slabs.
func newSaveStream(m *TF) *saveStream {
	tree, k := m.Tree, m.P.K
	numNodes, numItems := tree.NumNodes(), tree.NumItems()
	s := &saveStream{
		m:       m,
		tree:    tree,
		k:       k,
		lay:     buildLayout(tree),
		effBias: composeTree(tree, m.Bias).Data(),
		slot:    make([]int32, numNodes),
		row:     make([]float64, k),
		buf64:   make([]float64, saveChunkRows*k),
		buf32:   make([]float32, saveChunkRows*k),
		bufI32:  make([]int32, saveChunkRows),
		bufI8:   make([]int8, saveChunkRows*k),
	}
	interior := 0
	for n := range s.slot {
		s.slot[n] = -1
		if !tree.IsLeaf(n) {
			s.slot[n] = int32(interior)
			interior++
		}
	}
	s.effNode = make([]float64, interior*k)
	s.effNext = make([]float64, interior*k)
	composeLevels(tree, m.Node, func(n int) []float64 { return s.interiorRow(s.effNode, n) })
	composeLevels(tree, m.Next, func(n int) []float64 { return s.interiorRow(s.effNext, n) })

	s.envLo = make([]float64, interior*k)
	s.envHi = make([]float64, interior*k)
	s.envBias = make([]float64, interior)
	identityEnvelope(s.envLo, s.envHi, s.envBias)
	var leafBias float64
	foldEnvelopes(tree, func(n int) ([]float64, []float64, *float64) {
		if slot := s.slot[n]; slot >= 0 {
			return s.interiorRow(s.envLo, n), s.interiorRow(s.envHi, n), &s.envBias[slot]
		}
		row := s.nodeRow(s.row, n)
		leafBias = s.nodeBias(n)
		return row, row, &leafBias
	})

	flags := uint64(0)
	if m.P.UseBias {
		flags |= metaFlagUseBias
	}
	if m.P.UniformDecay {
		flags |= metaFlagUniformDecay
	}
	mt := &s.mt
	*mt = metaV4{
		numUsers:       uint64(m.NumUsers()),
		numNodes:       uint64(numNodes),
		numItems:       uint64(numItems),
		k:              uint64(k),
		depth:          uint64(tree.Depth()),
		taxonomyLevels: uint64(m.P.TaxonomyLevels),
		markovOrder:    uint64(m.P.MarkovOrder),
		root:           uint64(tree.Root()),
		flags:          flags,
		alpha:          m.P.Alpha,
		initStd:        m.P.InitStd,
	}
	s.codes = make([]int8, numNodes*k)
	s.scale = make([]float64, numNodes)
	s.offset = make([]float64, numNodes)
	rowErr := make([]float64, numNodes)
	rowMaxAbs := make([]float64, numNodes)
	for n := 0; n < numNodes; n++ {
		row := s.nodeRow(s.row, n)
		rowMaxAbs[n] = vecmath.MaxAbs(row)
		s.scale[n], s.offset[n], rowErr[n] = vecmath.QuantizeRow(s.codes[n*k:(n+1)*k], row)
		foldMax(&mt.maxAbsNodeFactor, rowMaxAbs[n])
		foldI8(&mt.maxNodeRowErrI8, &mt.maxNodeScaleI8, &mt.maxAbsNodeOffsetI8, s.scale[n], s.offset[n], rowErr[n])
	}
	for item := 0; item < numItems; item++ {
		n := tree.ItemNode(item)
		foldMax(&mt.maxAbsItemFactor, rowMaxAbs[n])
		foldI8(&mt.maxItemRowErrI8, &mt.maxItemScaleI8, &mt.maxAbsItemOffsetI8, s.scale[n], s.offset[n], rowErr[n])
		if m.P.UseBias {
			foldMax(&mt.maxAbsItemBias, vecmath.MaxAbs(s.effBias[n:n+1]))
		}
	}
	if m.P.UseBias {
		mt.maxAbsNodeBias = vecmath.MaxAbs(s.effBias)
	}
	return s
}

// foldMax raises an aggregate to v with the strict comparison the slab
// aggregates use (a NaN never enters).
func foldMax(agg *float64, v float64) {
	if v > *agg {
		*agg = v
	}
}

// foldI8 folds one row's quantization parameters into the slab aggregates
// exactly as MatrixI8.QuantizeFrom does.
func foldI8(maxErr, maxScale, maxAbsOffset *float64, scale, offset, rowErr float64) {
	foldMax(maxErr, rowErr)
	foldMax(maxScale, scale)
	foldMax(maxAbsOffset, math.Abs(offset))
}

// interiorRow is node's row of an interior cache, or nil for a leaf.
func (s *saveStream) interiorRow(cache []float64, node int) []float64 {
	slot := int(s.slot[node])
	if slot < 0 {
		return nil
	}
	return cache[slot*s.k : (slot+1)*s.k : (slot+1)*s.k]
}

// effRow returns node's composed row of one offset tree: the cached row
// of an interior node, or a leaf's row composed into dst from its
// parent's.
func (s *saveStream) effRow(dst []float64, offsets *vecmath.Matrix, cache []float64, node int) []float64 {
	if row := s.interiorRow(cache, node); row != nil {
		return row
	}
	var parent []float64
	if node != s.tree.Root() {
		parent = s.interiorRow(cache, s.tree.Parent(node))
	}
	composeRow(dst, parent, offsets.Row(node))
	return dst
}

// nodeRow is node's composed factor row (eff.node; item rows are leaf rows).
func (s *saveStream) nodeRow(dst []float64, node int) []float64 {
	return s.effRow(dst, s.m.Node, s.effNode, node)
}

// nextRow is node's composed next-item factor row (eff.next).
func (s *saveStream) nextRow(dst []float64, node int) []float64 {
	return s.effRow(dst, s.m.Next, s.effNext, node)
}

// nodeBias is node's folded scoring bias: the composed bias under UseBias,
// zero otherwise (buildIndex's nodeBias).
func (s *saveStream) nodeBias(node int) float64 {
	if !s.m.P.UseBias {
		return 0
	}
	return s.effBias[node]
}

// envRow is node's subtree envelope row: the cached fold for an interior
// node, the node's own row for a leaf.
func (s *saveStream) envRow(dst, cache []float64, node int) []float64 {
	if row := s.interiorRow(cache, node); row != nil {
		return row
	}
	return s.nodeRow(dst, node)
}

// emitRows emits a rows × width section, deriving up to saveChunkRows rows
// at a time into buf through fill.
func emitRows[T float64 | float32 | int32 | int8](out *v4Sink, buf []T, rows, width int, fill func(i int, dst []T)) {
	for lo := 0; lo < rows; lo += saveChunkRows {
		hi := min(lo+saveChunkRows, rows)
		chunk := buf[:(hi-lo)*width]
		for i := lo; i < hi; i++ {
			fill(i, chunk[(i-lo)*width:(i-lo+1)*width])
		}
		out.write(sliceBytes(chunk))
	}
}

// sliceBytes is the little-endian byte form of a slab chunk.
func sliceBytes[T float64 | float32 | int32 | int8](s []T) []byte {
	switch v := any(s).(type) {
	case []float64:
		return f64Bytes(v)
	case []float32:
		return f32Bytes(v)
	case []int32:
		return i32Bytes(v)
	default:
		return i8Bytes(v.([]int8))
	}
}

// sections lists every section producer in id order.
func (s *saveStream) sections() []v4Section {
	m, tree, k := s.m, s.tree, s.k
	numNodes, numItems := tree.NumNodes(), tree.NumItems()
	parent, depth, childOff, childList, levelOff, levelList, itemNode, nodeItem, _ := tree.Layout()

	// a section row describes either a node (node order) or an item
	// (item order, the item's leaf node)
	byNode := func(i int) int { return i }
	byItem := tree.ItemNode

	slab := func(b []byte) func(*v4Sink) {
		return func(out *v4Sink) { out.write(b) }
	}
	matrix := func(mat *vecmath.Matrix) func(*v4Sink) {
		return func(out *v4Sink) {
			emitRows(out, s.buf64, mat.Rows(), mat.Cols(), func(i int, dst []float64) { copy(dst, mat.Row(i)) })
		}
	}
	rows64 := func(rows int, node func(int) int, row func(dst []float64, n int) []float64) func(*v4Sink) {
		return func(out *v4Sink) {
			emitRows(out, s.buf64, rows, k, func(i int, dst []float64) { copy(dst, row(dst, node(i))) })
		}
	}
	rows32 := func(rows int, node func(int) int) func(*v4Sink) {
		return func(out *v4Sink) {
			emitRows(out, s.buf32, rows, k, func(i int, dst []float32) {
				vecmath.Downconvert32(dst, s.nodeRow(s.row, node(i)))
			})
		}
	}
	col64 := func(rows int, node func(int) int, v func(n int) float64) func(*v4Sink) {
		return func(out *v4Sink) {
			emitRows(out, s.buf64, rows, 1, func(i int, dst []float64) { dst[0] = v(node(i)) })
		}
	}
	col32 := func(rows int, node func(int) int, v func(n int) float64) func(*v4Sink) {
		return func(out *v4Sink) {
			emitRows(out, s.buf32, rows, 1, func(i int, dst []float32) {
				one := [1]float64{v(node(i))}
				vecmath.Downconvert32(dst, one[:])
			})
		}
	}
	scale := func(n int) float64 { return s.scale[n] }
	offset := func(n int) float64 { return s.offset[n] }
	subMaxBias := func(n int) float64 {
		if slot := s.slot[n]; slot >= 0 {
			return s.envBias[slot]
		}
		return s.nodeBias(n)
	}

	return []v4Section{
		{secMeta, slab(s.mt.encode())},
		{secTreeParent, slab(i32Bytes(parent))},
		{secTreeDepth, slab(i32Bytes(depth))},
		{secTreeChildOff, slab(i32Bytes(childOff))},
		{secTreeChildList, slab(i32Bytes(childList))},
		{secTreeLevelOff, slab(i32Bytes(levelOff))},
		{secTreeLevelList, slab(i32Bytes(levelList))},
		{secTreeItemNode, slab(i32Bytes(itemNode))},
		{secTreeNodeItem, slab(i32Bytes(nodeItem))},
		{secRawUser, matrix(m.User)},
		{secRawNode, matrix(m.Node)},
		{secRawNext, matrix(m.Next)},
		{secRawBias, matrix(m.Bias)},
		{secEffNode, rows64(numNodes, byNode, s.nodeRow)},
		{secEffNext, rows64(numNodes, byNode, s.nextRow)},
		{secEffBias, slab(f64Bytes(s.effBias))},
		{secItemFactors, rows64(numItems, byItem, s.nodeRow)},
		{secItemBias, col64(numItems, byItem, s.nodeBias)},
		{secItem32, rows32(numItems, byItem)},
		{secItemBias32, col32(numItems, byItem, s.nodeBias)},
		{secNode32, rows32(numNodes, byNode)},
		{secNodeBias32, col32(numNodes, byNode, s.nodeBias)},
		{secItemI8, func(out *v4Sink) {
			emitRows(out, s.bufI8, numItems, k, func(i int, dst []int8) {
				n := byItem(i)
				copy(dst, s.codes[n*k:(n+1)*k])
			})
		}},
		{secItemScaleI8, col64(numItems, byItem, scale)},
		{secItemOffsetI8, col64(numItems, byItem, offset)},
		{secNodeI8, slab(i8Bytes(s.codes))},
		{secNodeScaleI8, slab(f64Bytes(s.scale))},
		{secNodeOffsetI8, slab(f64Bytes(s.offset))},
		{secItemCat, func(out *v4Sink) {
			for d := 0; d <= tree.Depth(); d++ {
				emitRows(out, s.bufI32, numItems, 1, func(i int, dst []int32) { dst[0] = itemAncestor(tree, i, d) })
			}
		}},
		{secLevelPos, slab(i32Bytes(s.lay.levelPos))},
		{secItemLo, slab(i32Bytes(s.lay.itemLo))},
		{secItemHi, slab(i32Bytes(s.lay.itemHi))},
		{secSubtreeLeaves, slab(i32Bytes(s.lay.subtreeLeaves))},
		{secDFSItems, slab(i32Bytes(s.lay.dfsItems))},
		{secDFSLo, slab(i32Bytes(s.lay.dfsLo))},
		{secDFSHi, slab(i32Bytes(s.lay.dfsHi))},
		{secSubLo, rows64(numNodes, byNode, func(dst []float64, n int) []float64 { return s.envRow(dst, s.envLo, n) })},
		{secSubHi, rows64(numNodes, byNode, func(dst []float64, n int) []float64 { return s.envRow(dst, s.envHi, n) })},
		{secSubMaxBias, col64(numNodes, byNode, subMaxBias)},
		{secNodeBias, col64(numNodes, byNode, s.nodeBias)},
	}
}

// writeTo streams the file: pass 1 checksums every section (a producer
// whose length disagrees with the meta-derived layout is a writer bug,
// caught before any byte reaches w), then header and table are written
// and pass 2 re-runs the producers into w. Sections sit at 64-byte-aligned
// offsets in id order with zero padding between them.
func (s *saveStream) writeTo(w io.Writer) error {
	secs := s.sections()
	want := expectedSectionLens(s.mt)
	table := make([]byte, len(secs)*tableEntryV4Len)
	off := alignUpV4(headerV4Len + uint64(len(table)))
	fileSize := off // the file ends at the last section's end, unpadded
	for i, sec := range secs {
		var sum v4Sink
		sec.emit(&sum)
		if sum.n != want[sec.id] {
			return fmt.Errorf("model: section %s produced %d bytes, want %d", sectionNamesV4[sec.id], sum.n, want[sec.id])
		}
		e := table[i*tableEntryV4Len:]
		binary.LittleEndian.PutUint32(e[0:], sec.id)
		binary.LittleEndian.PutUint32(e[4:], sum.crc)
		binary.LittleEndian.PutUint64(e[8:], off)
		binary.LittleEndian.PutUint64(e[16:], sum.n)
		fileSize = off + sum.n
		off = alignUpV4(fileSize)
	}

	header := make([]byte, headerV4Len)
	copy(header, fileMagic[:])
	binary.BigEndian.PutUint32(header[len(fileMagic):], 4)
	binary.LittleEndian.PutUint32(header[12:], uint32(len(secs)))
	binary.LittleEndian.PutUint64(header[16:], fileSize)
	binary.LittleEndian.PutUint32(header[24:], crc32.Checksum(table, castagnoli))

	bw := bufio.NewWriterSize(w, saveBufferBytes)
	out := v4Sink{w: bw}
	out.write(header)
	out.write(table)
	var pad [sectionAlignV4]byte
	for _, sec := range secs {
		out.write(pad[:alignUpV4(out.n)-out.n])
		sec.emit(&out)
	}
	if out.err == nil {
		out.err = bw.Flush()
	}
	if out.err != nil {
		return fmt.Errorf("model: write model file: %w", out.err)
	}
	if out.n != fileSize {
		return fmt.Errorf("model: wrote %d bytes, table declares %d", out.n, fileSize)
	}
	return nil
}

package model

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"

	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

// ErrFormat marks structural failures of a TFRECMDL v4 file: truncation,
// checksum mismatches, misaligned or out-of-bounds sections, hostile
// counts. Callers can errors.Is against it; the wrapping message always
// carries the "corrupt or truncated" phrasing Load has used since v1.
var ErrFormat = errors.New("invalid TFRECMDL v4 structure")

func v4err(format string, args ...any) error {
	detail := fmt.Sprintf(format, args...)
	return fmt.Errorf("model: corrupt or truncated model file (format version 4): %w: %s", ErrFormat, detail)
}

// sectionsV4 is a parsed-and-verified v4 file: the decoded meta plus a
// byte view per section. Views alias the caller's buffer (heap or
// mapping); nothing has been copied.
type sectionsV4 struct {
	meta metaV4
	sec  map[uint32][]byte
}

// expectedSectionLens derives every section's exact byte length from the
// meta counts. All arithmetic is uint64 on operands already bounded by
// validateMetaV4, so no product can overflow.
func expectedSectionLens(mt metaV4) map[uint32]uint64 {
	n, it, u, k, d := mt.numNodes, mt.numItems, mt.numUsers, mt.k, mt.depth
	return map[uint32]uint64{
		secMeta:          metaV4Len,
		secTreeParent:    4 * n,
		secTreeDepth:     4 * n,
		secTreeChildOff:  4 * (n + 1),
		secTreeChildList: 4 * (n - 1),
		secTreeLevelOff:  4 * (d + 2),
		secTreeLevelList: 4 * n,
		secTreeItemNode:  4 * it,
		secTreeNodeItem:  4 * n,
		secRawUser:       8 * u * k,
		secRawNode:       8 * n * k,
		secRawNext:       8 * n * k,
		secRawBias:       8 * n,
		secEffNode:       8 * n * k,
		secEffNext:       8 * n * k,
		secEffBias:       8 * n,
		secItemFactors:   8 * it * k,
		secItemBias:      8 * it,
		secItem32:        4 * it * k,
		secItemBias32:    4 * it,
		secNode32:        4 * n * k,
		secNodeBias32:    4 * n,
		secItemI8:        it * k,
		secItemScaleI8:   8 * it,
		secItemOffsetI8:  8 * it,
		secNodeI8:        n * k,
		secNodeScaleI8:   8 * n,
		secNodeOffsetI8:  8 * n,
		secItemCat:       4 * (d + 1) * it,
		secLevelPos:      4 * n,
		secItemLo:        4 * n,
		secItemHi:        4 * n,
		secSubtreeLeaves: 4 * n,
		secDFSItems:      4 * it,
		secDFSLo:         4 * n,
		secDFSHi:         4 * n,
		secSubLo:         8 * n * k,
		secSubHi:         8 * n * k,
		secSubMaxBias:    8 * n,
		secNodeBias:      8 * n,
	}
}

// validateMetaV4 bounds every count before any count-derived allocation
// or multiplication happens. The bounds are generous for real models and
// tiny next to what a hostile 8-byte field could otherwise demand.
func validateMetaV4(mt metaV4) error {
	const (
		maxNodes = 1<<31 - 2 // node ids (and n+1 offsets) are int32
		maxUsers = 1 << 40
		maxK     = 1 << 20
		maxOrder = 1 << 20 // sizes the decay-weight table (no payload backing)
	)
	switch {
	case mt.numNodes == 0 || mt.numNodes > maxNodes:
		return v4err("node count %d out of range", mt.numNodes)
	case mt.numItems == 0 || mt.numItems > mt.numNodes:
		return v4err("item count %d out of range (nodes %d)", mt.numItems, mt.numNodes)
	case mt.numUsers == 0 || mt.numUsers > maxUsers:
		return v4err("user count %d out of range", mt.numUsers)
	case mt.k == 0 || mt.k > maxK:
		return v4err("factor dimensionality %d out of range", mt.k)
	case mt.depth >= mt.numNodes:
		return v4err("tree depth %d out of range (nodes %d)", mt.depth, mt.numNodes)
	case mt.taxonomyLevels == 0 || mt.taxonomyLevels > maxK:
		return v4err("taxonomy levels %d out of range", mt.taxonomyLevels)
	case mt.markovOrder > maxOrder:
		return v4err("markov order %d exceeds the sanity bound %d", mt.markovOrder, maxOrder)
	case mt.root >= mt.numNodes:
		return v4err("root %d out of range (nodes %d)", mt.root, mt.numNodes)
	case mt.flags&^uint64(metaFlagsKnown) != 0:
		return v4err("unknown flag bits %#x", mt.flags&^uint64(metaFlagsKnown))
	case mt.precision > uint64(PrecisionInt8):
		return v4err("unknown precision %d", mt.precision)
	case math.IsNaN(mt.alpha) || math.IsInf(mt.alpha, 0):
		return v4err("non-finite alpha")
	case math.IsNaN(mt.initStd) || math.IsInf(mt.initStd, 0) || mt.initStd < 0:
		return v4err("invalid init stddev")
	}
	return nil
}

// parseV4 validates a complete v4 file image and returns byte views of
// its sections. data must be the whole file (prefix included); crcOf
// computes the CRC-32C of the byte range [off, off+n) — the heap loader
// passes a closure over data itself, the mmap loader a closure that
// streams the range from the file descriptor so checksumming never
// faults the mapping into resident memory.
//
// Validation order is deliberate: header bounds, table checksum, entry
// geometry (alignment, EOF, duplicates), meta sanity, exact per-section
// lengths, then section checksums. Every count is bounded before it is
// used to size anything, so a hostile file dies on a comparison, not an
// allocation.
func parseV4(data []byte, crcOf func(off, n uint64) (uint32, error)) (*sectionsV4, error) {
	if len(data) < headerV4Len {
		return nil, v4err("file shorter than the %d-byte header", headerV4Len)
	}
	if !bytes.Equal(data[:len(fileMagic)], fileMagic[:]) {
		return nil, v4err("magic missing")
	}
	if v := binary.BigEndian.Uint32(data[len(fileMagic):]); v != 4 {
		return nil, v4err("version %d in a v4 parse", v)
	}
	count := binary.LittleEndian.Uint32(data[12:])
	fileSize := binary.LittleEndian.Uint64(data[16:])
	tableCRC := binary.LittleEndian.Uint32(data[24:])
	if count == 0 || count > maxSectionsV4 {
		return nil, v4err("hostile section count %d (max %d)", count, maxSectionsV4)
	}
	if fileSize != uint64(len(data)) {
		return nil, v4err("declared size %d, have %d bytes", fileSize, len(data))
	}
	if fileSize > maxFileBytesV4 {
		return nil, v4err("declared size %d exceeds the format bound", fileSize)
	}
	tableLen := uint64(count) * tableEntryV4Len
	if headerV4Len+tableLen > fileSize {
		return nil, v4err("section table extends past EOF")
	}
	table := data[headerV4Len : headerV4Len+tableLen]
	if got := crc32.Checksum(table, castagnoli); got != tableCRC {
		return nil, v4err("section table checksum mismatch (%08x != %08x)", got, tableCRC)
	}

	type entry struct {
		crc      uint32
		off, len uint64
	}
	entries := make(map[uint32]entry, count)
	for i := uint64(0); i < uint64(count); i++ {
		e := table[i*tableEntryV4Len:]
		id := binary.LittleEndian.Uint32(e[0:])
		ent := entry{
			crc: binary.LittleEndian.Uint32(e[4:]),
			off: binary.LittleEndian.Uint64(e[8:]),
			len: binary.LittleEndian.Uint64(e[16:]),
		}
		name, known := sectionNamesV4[id]
		if !known {
			return nil, v4err("unknown section id %d", id)
		}
		if _, dup := entries[id]; dup {
			return nil, v4err("duplicate section %s", name)
		}
		if ent.off%sectionAlignV4 != 0 {
			return nil, v4err("section %s misaligned at offset %d", name, ent.off)
		}
		if ent.off < headerV4Len+tableLen || ent.off > fileSize || ent.len > fileSize-ent.off {
			return nil, v4err("section %s [%d,+%d) extends past EOF (size %d)", name, ent.off, ent.len, fileSize)
		}
		entries[id] = ent
	}

	me, ok := entries[secMeta]
	if !ok {
		return nil, v4err("meta section missing")
	}
	if me.len != metaV4Len {
		return nil, v4err("meta section length %d, want %d", me.len, metaV4Len)
	}
	mt := decodeMetaV4(data[me.off : me.off+me.len])
	if err := validateMetaV4(mt); err != nil {
		return nil, err
	}
	want := expectedSectionLens(mt)
	if len(entries) != len(want) {
		return nil, v4err("%d sections, want %d", len(entries), len(want))
	}
	for id, wl := range want {
		ent, ok := entries[id]
		if !ok {
			return nil, v4err("section %s missing", sectionNamesV4[id])
		}
		if ent.len != wl {
			return nil, v4err("section %s length %d does not match structure %d", sectionNamesV4[id], ent.len, wl)
		}
	}
	out := &sectionsV4{meta: mt, sec: make(map[uint32][]byte, len(entries))}
	for id, ent := range entries {
		got, err := crcOf(ent.off, ent.len)
		if err != nil {
			return nil, v4err("checksum section %s: %v", sectionNamesV4[id], err)
		}
		if got != ent.crc {
			return nil, v4err("section %s checksum mismatch (%08x != %08x)", sectionNamesV4[id], got, ent.crc)
		}
		out.sec[id] = data[ent.off : ent.off+ent.len]
	}
	return out, nil
}

// crcOverBytes is the heap loader's checksummer: the whole file is already
// in one buffer, so ranges checksum directly.
func crcOverBytes(data []byte) func(off, n uint64) (uint32, error) {
	return func(off, n uint64) (uint32, error) {
		return crc32.Checksum(data[off:off+n], castagnoli), nil
	}
}

// paramsFromMeta reconstructs the hyper-parameter block.
func paramsFromMeta(mt metaV4) Params {
	return Params{
		K:              int(mt.k),
		TaxonomyLevels: int(mt.taxonomyLevels),
		MarkovOrder:    int(mt.markovOrder),
		Alpha:          mt.alpha,
		InitStd:        mt.initStd,
		UseBias:        mt.flags&metaFlagUseBias != 0,
		UniformDecay:   mt.flags&metaFlagUniformDecay != 0,
	}
}

// treeFromSections rebuilds the taxonomy zero-copy from the flat layout
// sections; NewFromLayout re-verifies every structural invariant.
func treeFromSections(s *sectionsV4) (*taxonomy.Tree, error) {
	tree, err := taxonomy.NewFromLayout(
		i32View(s.sec[secTreeParent]),
		i32View(s.sec[secTreeDepth]),
		i32View(s.sec[secTreeChildOff]),
		i32View(s.sec[secTreeChildList]),
		i32View(s.sec[secTreeLevelOff]),
		i32View(s.sec[secTreeLevelList]),
		i32View(s.sec[secTreeItemNode]),
		i32View(s.sec[secTreeNodeItem]),
		int32(s.meta.root),
	)
	if err != nil {
		return nil, v4err("bad taxonomy layout: %v", err)
	}
	if uint64(tree.NumItems()) != s.meta.numItems || uint64(tree.Depth()) != s.meta.depth {
		return nil, v4err("taxonomy shape (%d items, depth %d) contradicts meta (%d, %d)",
			tree.NumItems(), tree.Depth(), s.meta.numItems, s.meta.depth)
	}
	return tree, nil
}

// tfFromSections rebuilds a trainable *TF from the raw factor sections —
// the heap Load path, byte-compatible with what a v3 gob decode returned.
// The raw slabs get the same finiteness screen v3 introduced; the
// precomputed serving sections are ignored here (Compose rebuilds them).
func tfFromSections(s *sectionsV4) (*TF, error) {
	tree, err := treeFromSections(s)
	if err != nil {
		return nil, err
	}
	raws := map[string][]float64{
		"user": f64View(s.sec[secRawUser]),
		"node": f64View(s.sec[secRawNode]),
		"next": f64View(s.sec[secRawNext]),
		"bias": f64View(s.sec[secRawBias]),
	}
	for name, vals := range raws {
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("model: non-finite value in %s matrix", name)
			}
		}
	}
	m, err := New(tree, int(s.meta.numUsers), paramsFromMeta(s.meta), vecmath.NewRNG(0))
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	m.User.SetCompactData(raws["user"])
	m.Node.SetCompactData(raws["node"])
	m.Next.SetCompactData(raws["next"])
	m.Bias.SetCompactData(raws["bias"])
	return m, nil
}

// composedFromSections wraps the precomputed serving sections in a
// Composed snapshot without a Compose() pass: every slab the ScoringIndex
// would build — composed factors, folded biases, the int8 item tier,
// layout tables, prune envelopes — is a zero-copy view of the file image,
// and the lazy sync.Once builders are burned so no accessor ever
// recomputes (or mutates) anything. The f32 sections, the node-major int8
// sections, their meta aggregates and the meta precision byte are
// length-, CRC- and range-checked like every section but not viewed: no
// sweep reads them.
// The caller owns the backing memory's lifetime (Snapshot ties it to the
// mapping). rows, when non-nil, is where the cut's passes read the item
// slab instead of the view (see LoadFile).
func composedFromSections(s *sectionsV4, rows func(ix *ScoringIndex) rowReader) (*Composed, error) {
	tree, err := treeFromSections(s)
	if err != nil {
		return nil, err
	}
	mt := s.meta
	p := paramsFromMeta(mt)
	n, it, k := int(mt.numNodes), int(mt.numItems), int(mt.k)

	ix := &ScoringIndex{
		k:           k,
		numItems:    it,
		shardItems:  defaultShardItems(k),
		itemFactors: f64View(s.sec[secItemFactors]),
		itemBias:    f64View(s.sec[secItemBias]),
		nodeFactors: f64View(s.sec[secEffNode]),
		nodeBias:    f64View(s.sec[secNodeBias]),

		itemI8:       vecmath.MatrixI8FromData(it, k, i8View(s.sec[secItemI8])),
		itemScaleI8:  f64View(s.sec[secItemScaleI8]),
		itemOffsetI8: f64View(s.sec[secItemOffsetI8]),

		maxItemRowErrI8: mt.maxItemRowErrI8, maxItemScaleI8: mt.maxItemScaleI8,
		maxAbsItemOffsetI8: mt.maxAbsItemOffsetI8,
		maxAbsItemFactor:   mt.maxAbsItemFactor, maxAbsItemBias: mt.maxAbsItemBias,

		levelPos:      i32View(s.sec[secLevelPos]),
		nodeDepth:     i32View(s.sec[secTreeDepth]),
		itemLo:        i32View(s.sec[secItemLo]),
		itemHi:        i32View(s.sec[secItemHi]),
		subtreeLeaves: i32View(s.sec[secSubtreeLeaves]),
		dfsItems:      i32View(s.sec[secDFSItems]),
		dfsLo:         i32View(s.sec[secDFSLo]),
		dfsHi:         i32View(s.sec[secDFSHi]),
		subLo:         f64View(s.sec[secSubLo]),
		subHi:         f64View(s.sec[secSubHi]),
		subMaxBias:    f64View(s.sec[secSubMaxBias]),
	}
	// the ancestor table is persisted flat; rebuild only the per-depth
	// slice headers (depth+1 of them — O(depth), not O(catalog))
	cat := i32View(s.sec[secItemCat])
	ix.itemCat = make([][]int32, int(mt.depth)+1)
	for d := range ix.itemCat {
		ix.itemCat[d] = cat[d*it : (d+1)*it : (d+1)*it]
	}
	// burn the lazy builders: every tier above is already materialized, and
	// an accidental ensure* pass would write into (possibly mapped,
	// read-only) memory
	ix.i8Once.Do(func() {})
	ix.boundsOnce.Do(func() {})
	if rows == nil {
		ix.buildCut(tree, ix.slabRows)
	} else {
		ix.buildCut(tree, rows(ix))
	}

	return &Composed{
		P:       p,
		Tree:    tree,
		User:    vecmath.MatrixFromCompact(int(mt.numUsers), k, f64View(s.sec[secRawUser])),
		EffNode: vecmath.MatrixFromCompact(n, k, f64View(s.sec[secEffNode])),
		EffNext: vecmath.MatrixFromCompact(n, k, f64View(s.sec[secEffNext])),
		EffBias: vecmath.MatrixFromCompact(n, 1, f64View(s.sec[secEffBias])),
		Index:   ix,
		weights: p.DecayWeights(),
	}, nil
}

// alignedBytes allocates a size-byte buffer backed by a []uint64, so the
// zero-copy float64 views over 64-aligned section offsets are themselves
// 8-byte aligned regardless of allocator behavior.
func alignedBytes(size uint64) []byte {
	if size == 0 {
		return nil
	}
	backing := make([]uint64, (size+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&backing[0])), size)
}

// readV4Body reads the remainder of a v4 stream after the 12-byte prefix
// has been consumed, returning the complete aligned file image. Growth is
// incremental and driven by bytes actually received, so a hostile header
// declaring a huge size dies with a truncation error after at most ~2x
// the real data, never on a giant up-front allocation.
func readV4Body(r io.Reader, prefix []byte) ([]byte, error) {
	rest := make([]byte, headerV4Len-len(prefix))
	if _, err := io.ReadFull(r, rest); err != nil {
		return nil, v4err("file shorter than the %d-byte header", headerV4Len)
	}
	header := append(append([]byte{}, prefix...), rest...)
	fileSize := binary.LittleEndian.Uint64(header[16:])
	if fileSize < headerV4Len || fileSize > maxFileBytesV4 {
		return nil, v4err("declared size %d out of range", fileSize)
	}
	const chunk = 1 << 20
	capNow := fileSize
	if capNow > chunk {
		capNow = chunk
	}
	buf := alignedBytes(capNow)
	n := uint64(copy(buf, header))
	for n < fileSize {
		if n == uint64(len(buf)) {
			grow := uint64(len(buf)) * 2
			if grow > fileSize {
				grow = fileSize
			}
			next := alignedBytes(grow)
			copy(next, buf)
			buf = next
		}
		m, err := r.Read(buf[n:])
		n += uint64(m)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("model: read model file: %w", err)
		}
	}
	if n < fileSize {
		return nil, v4err("declared size %d but stream ended after %d bytes", fileSize, n)
	}
	return buf[:fileSize], nil
}

// loadV4Heap is Load's v4 arm: read the whole stream into an aligned
// buffer, validate, and rebuild the trainable model from the raw sections.
func loadV4Heap(r io.Reader, prefix []byte) (*TF, error) {
	data, err := readV4Body(r, prefix)
	if err != nil {
		return nil, err
	}
	s, err := parseV4(data, crcOverBytes(data))
	if err != nil {
		return nil, err
	}
	return tfFromSections(s)
}

package model

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"unsafe"
)

// TFRECMDL v4 is the memory-mappable flat model format. After the shared
// 12-byte prefix (magic + big-endian format version, identical to v1–v3 so
// version sniffing never changes), everything is little-endian:
//
//	off 0   magic "TFRECMDL"
//	off 8   u32 BE  format version (4)
//	off 12  u32 LE  section count (bounded by maxSectionsV4)
//	off 16  u64 LE  total file size in bytes
//	off 24  u32 LE  CRC-32C of the section table bytes
//	off 28  u32 LE  reserved (0)
//	off 32  section table: count × 24-byte entries
//	        { u32 id, u32 CRC-32C of the section bytes, u64 off, u64 len }
//	then    sections, each starting at a 64-byte-aligned offset
//
// Sections are raw slabs in their in-memory layout: the taxonomy's flat
// arrays, the raw (trainable) factor matrices, and every precomputed
// serving structure the ScoringIndex otherwise derives at Compose() time —
// composed factors, folded biases, f32 and int8 mirrors with their code
// parameters, DFS layout tables, and subtree prune envelopes. A loader
// that can map the file wraps these bytes zero-copy; the heap loader reads
// them into one aligned buffer and wraps that. Lengths are exact (no
// padding inside a section; inter-section gaps are zero), every section
// length is derivable from the meta section alone, and every offset is
// 64-byte aligned, which makes the float64 casts legal and keeps slab rows
// cache-line aligned.
//
// Integrity model: the CRCs defend against corruption (torn writes,
// truncation, bit rot), not forgery — a file that validates is trusted to
// contain the precomputed structures a Compose() pass would have built.
// The heap path (Load → *TF) additionally re-checks raw factor finiteness
// for v3 parity, and the taxonomy layout is always structurally
// re-validated (taxonomy.NewFromLayout), so a corrupt file yields a typed
// error, never a panic or a giant allocation.

// Section ids. The id space is append-only: a layout change that breaks
// any existing section's meaning must bump the format version instead.
const (
	secMeta uint32 = iota + 1
	secTreeParent
	secTreeDepth
	secTreeChildOff
	secTreeChildList
	secTreeLevelOff
	secTreeLevelList
	secTreeItemNode
	secTreeNodeItem
	secRawUser
	secRawNode
	secRawNext
	secRawBias
	secEffNode
	secEffNext
	secEffBias
	secItemFactors
	secItemBias
	secItem32
	secItemBias32
	secNode32
	secNodeBias32
	secItemI8
	secItemScaleI8
	secItemOffsetI8
	secNodeI8
	secNodeScaleI8
	secNodeOffsetI8
	secItemCat
	secLevelPos
	secItemLo
	secItemHi
	secSubtreeLeaves
	secDFSItems
	secDFSLo
	secDFSHi
	secSubLo
	secSubHi
	secSubMaxBias
	secNodeBias
)

// sectionNamesV4 maps ids to the names tfrec-inspect prints.
var sectionNamesV4 = map[uint32]string{
	secMeta:          "meta",
	secTreeParent:    "tree.parent",
	secTreeDepth:     "tree.depth",
	secTreeChildOff:  "tree.childOff",
	secTreeChildList: "tree.childList",
	secTreeLevelOff:  "tree.levelOff",
	secTreeLevelList: "tree.levelList",
	secTreeItemNode:  "tree.itemNode",
	secTreeNodeItem:  "tree.nodeItem",
	secRawUser:       "raw.user",
	secRawNode:       "raw.node",
	secRawNext:       "raw.next",
	secRawBias:       "raw.bias",
	secEffNode:       "eff.node",
	secEffNext:       "eff.next",
	secEffBias:       "eff.bias",
	secItemFactors:   "index.itemFactors",
	secItemBias:      "index.itemBias",
	secItem32:        "index.item32",
	secItemBias32:    "index.itemBias32",
	secNode32:        "index.node32",
	secNodeBias32:    "index.nodeBias32",
	secItemI8:        "index.itemI8",
	secItemScaleI8:   "index.itemScaleI8",
	secItemOffsetI8:  "index.itemOffsetI8",
	secNodeI8:        "index.nodeI8",
	secNodeScaleI8:   "index.nodeScaleI8",
	secNodeOffsetI8:  "index.nodeOffsetI8",
	secItemCat:       "index.itemCat",
	secLevelPos:      "index.levelPos",
	secItemLo:        "index.itemLo",
	secItemHi:        "index.itemHi",
	secSubtreeLeaves: "index.subtreeLeaves",
	secDFSItems:      "index.dfsItems",
	secDFSLo:         "index.dfsLo",
	secDFSHi:         "index.dfsHi",
	secSubLo:         "index.subLo",
	secSubHi:         "index.subHi",
	secSubMaxBias:    "index.subMaxBias",
	secNodeBias:      "index.nodeBias",
}

const (
	// headerV4Len is the fixed header: the 12-byte prefix plus section
	// count, file size, table CRC, and a reserved word.
	headerV4Len = 32
	// tableEntryV4Len is one section-table entry: id, crc, off, len.
	tableEntryV4Len = 24
	// maxSectionsV4 bounds the declared section count so a hostile header
	// cannot demand a giant table allocation; the format defines 40 ids
	// and the id space is append-only within the version.
	maxSectionsV4 = 64
	// sectionAlignV4 is the required alignment of every section offset.
	sectionAlignV4 = 64
	// metaV4Len is the exact meta section size: 10 u64 + 12 f64 fields.
	metaV4Len = 22 * 8
	// maxFileBytesV4 caps the declared file size (64 TiB) so overflow-free
	// offset arithmetic stays trivially in range.
	maxFileBytesV4 = 1 << 46
)

// castagnoli is the CRC-32C table shared by the writer and both loaders.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crc32Update folds more bytes into a running CRC-32C.
func crc32Update(crc uint32, b []byte) uint32 {
	return crc32.Update(crc, castagnoli, b)
}

// hostLittle reports whether the host stores multi-byte values
// little-endian, the precondition for the zero-copy slab casts. Big-endian
// hosts fall back to an allocate-and-decode per section.
var hostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func alignUpV4(x uint64) uint64 {
	return (x + sectionAlignV4 - 1) &^ (sectionAlignV4 - 1)
}

// metaV4 is the decoded meta section: the model shape every other
// section's exact length derives from, plus the scalar hyper-parameters
// and the lazily-computed aggregates (magnitude bounds and quantization
// aggregates) that a Compose()+ensure pass would otherwise recompute.
type metaV4 struct {
	numUsers, numNodes, numItems, k uint64
	depth                           uint64
	taxonomyLevels, markovOrder     uint64
	root                            uint64
	flags                           uint64
	precision                       uint64
	alpha, initStd                  float64

	maxAbsItemFactor, maxAbsItemBias float64
	maxAbsNodeFactor, maxAbsNodeBias float64

	maxItemRowErrI8, maxItemScaleI8, maxAbsItemOffsetI8 float64
	maxNodeRowErrI8, maxNodeScaleI8, maxAbsNodeOffsetI8 float64
}

const (
	metaFlagUseBias      = 1 << 0
	metaFlagUniformDecay = 1 << 1
	metaFlagsKnown       = metaFlagUseBias | metaFlagUniformDecay
)

func (mt *metaV4) encode() []byte {
	out := make([]byte, metaV4Len)
	u := func(i int, v uint64) { binary.LittleEndian.PutUint64(out[i*8:], v) }
	f := func(i int, v float64) { u(i, math.Float64bits(v)) }
	u(0, mt.numUsers)
	u(1, mt.numNodes)
	u(2, mt.numItems)
	u(3, mt.k)
	u(4, mt.depth)
	u(5, mt.taxonomyLevels)
	u(6, mt.markovOrder)
	u(7, mt.root)
	u(8, mt.flags)
	u(9, mt.precision)
	f(10, mt.alpha)
	f(11, mt.initStd)
	f(12, mt.maxAbsItemFactor)
	f(13, mt.maxAbsItemBias)
	f(14, mt.maxAbsNodeFactor)
	f(15, mt.maxAbsNodeBias)
	f(16, mt.maxItemRowErrI8)
	f(17, mt.maxItemScaleI8)
	f(18, mt.maxAbsItemOffsetI8)
	f(19, mt.maxNodeRowErrI8)
	f(20, mt.maxNodeScaleI8)
	f(21, mt.maxAbsNodeOffsetI8)
	return out
}

func decodeMetaV4(b []byte) metaV4 {
	u := func(i int) uint64 { return binary.LittleEndian.Uint64(b[i*8:]) }
	f := func(i int) float64 { return math.Float64frombits(u(i)) }
	return metaV4{
		numUsers: u(0), numNodes: u(1), numItems: u(2), k: u(3),
		depth: u(4), taxonomyLevels: u(5), markovOrder: u(6),
		root: u(7), flags: u(8), precision: u(9),
		alpha: f(10), initStd: f(11),
		maxAbsItemFactor: f(12), maxAbsItemBias: f(13),
		maxAbsNodeFactor: f(14), maxAbsNodeBias: f(15),
		maxItemRowErrI8: f(16), maxItemScaleI8: f(17), maxAbsItemOffsetI8: f(18),
		maxNodeRowErrI8: f(19), maxNodeScaleI8: f(20), maxAbsNodeOffsetI8: f(21),
	}
}

// ---- slab <-> byte views -------------------------------------------------
//
// On little-endian hosts these are zero-copy reinterpretations (the
// callers guarantee 8-byte-aligned backing: 64-aligned section offsets in
// a page-aligned mapping or a uint64-backed heap buffer). Big-endian hosts
// pay an allocate-and-convert per slab, keeping the format portable.

func f64Bytes(s []float64) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittle {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
	}
	out := make([]byte, len(s)*8)
	for i, v := range s {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

func f32Bytes(s []float32) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittle {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
	}
	out := make([]byte, len(s)*4)
	for i, v := range s {
		binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(v))
	}
	return out
}

func i32Bytes(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittle {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
	}
	out := make([]byte, len(s)*4)
	for i, v := range s {
		binary.LittleEndian.PutUint32(out[i*4:], uint32(v))
	}
	return out
}

func i8Bytes(s []int8) []byte {
	if len(s) == 0 {
		return nil
	}
	// byte-wide: endianness-free reinterpretation on every host
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s))
}

func f64View(b []byte) []float64 {
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if hostLittle {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

func f32View(b []byte) []float32 {
	n := len(b) / 4
	if n == 0 {
		return nil
	}
	if hostLittle {
		return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

func i32View(b []byte) []int32 {
	n := len(b) / 4
	if n == 0 {
		return nil
	}
	if hostLittle {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

func i8View(b []byte) []int8 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int8)(unsafe.Pointer(&b[0])), len(b))
}

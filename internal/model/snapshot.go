package model

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"unsafe"
)

// Snapshot is a servable model image plus the resources backing it. For a
// v4 file on a platform with mmap support the Composed snapshot's slabs
// are zero-copy views of a shared read-only mapping (Mapped reports
// true), and Close unmaps — so the caller must guarantee no request still
// touches the snapshot when it closes it (internal/serve refcounts
// exactly this). For v1–v3 files, or when mapping is unavailable, the
// snapshot is heap-backed and Close only releases the descriptor.
type Snapshot struct {
	// Composed is the servable snapshot; its slabs may alias the mapping.
	Composed *Composed
	// Format is the file format version the snapshot came from
	// (0 = legacy headerless gob).
	Format int
	// Mapped reports whether the slabs are zero-copy views of a file
	// mapping rather than heap memory.
	Mapped bool
	// Path is the file the snapshot was loaded from.
	Path string

	mapping   []byte
	closeFn   func() error
	closeOnce sync.Once
}

// Close releases the snapshot's backing resources (unmapping the file for
// a mapped snapshot). It is idempotent. After Close returns, no slab of
// the Composed snapshot may be touched.
func (s *Snapshot) Close() error {
	var err error
	s.closeOnce.Do(func() {
		if s.closeFn != nil {
			err = s.closeFn()
		}
	})
	return err
}

// LoadFile opens a model file for serving. v4 files are memory-mapped and
// wrapped zero-copy (no Compose() pass, no quantization pass — the file
// carries every precomputed tier, validated by checksum without faulting
// the mapping in); when mapping is unavailable the same flat image is
// served from one aligned heap buffer. v1–v3 and legacy gob files fall
// back to the Load + Compose path. Use Load when the trainable *TF is
// needed; LoadFile is the serving path.
func LoadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	var prefix [headerLen]byte
	n, err := io.ReadFull(f, prefix[:])
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		f.Close()
		return nil, fmt.Errorf("model: read header: %w", err)
	}
	version := uint32(0)
	if n == headerLen && bytes.Equal(prefix[:len(fileMagic)], fileMagic[:]) {
		version = binary.BigEndian.Uint32(prefix[len(fileMagic):])
	}
	if version == 4 {
		return loadFileV4(f, path)
	}
	// v1–v3 / legacy gob: decode on the heap and compose.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("model: %w", err)
	}
	m, err := Load(bufio.NewReaderSize(f, 1<<20))
	f.Close()
	if err != nil {
		return nil, err
	}
	return &Snapshot{
		Composed: m.Compose(),
		Format:   int(version),
		Path:     path,
	}, nil
}

// loadFileV4 maps (or, failing that, reads) an open v4 file and builds the
// zero-copy snapshot. Checksums are verified by streaming reads of the
// file descriptor — through the page cache, not the mapping — so loading
// a multi-gigabyte model leaves resident memory flat.
func loadFileV4(f *os.File, path string) (*Snapshot, error) {
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("model: %w", err)
	}
	size := st.Size()
	if size < headerV4Len || size > maxFileBytesV4 {
		f.Close()
		return nil, v4err("file size %d out of range", size)
	}
	if data, merr := mmapFile(f, size); merr == nil {
		s, perr := parseV4(data, crcOverFile(f))
		if perr != nil {
			munmapFile(data)
			f.Close()
			return nil, perr
		}
		c, cerr := composedFromSections(s, func(ix *ScoringIndex) rowReader {
			return fileRows(f, data, s.sec[secItemFactors], ix)
		})
		if cerr != nil {
			munmapFile(data)
			f.Close()
			return nil, cerr
		}
		return &Snapshot{
			Composed: c,
			Format:   4,
			Mapped:   true,
			Path:     path,
			mapping:  data,
			closeFn: func() error {
				merr := munmapFile(data)
				if cerr := f.Close(); merr == nil {
					merr = cerr
				}
				return merr
			},
		}, nil
	}
	// no mmap on this platform: one aligned heap image, still zero-parse
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("model: %w", err)
	}
	data, err := readV4Body(bufio.NewReaderSize(f, 1<<20), nil)
	f.Close()
	if err != nil {
		return nil, err
	}
	s, err := parseV4(data, crcOverBytes(data))
	if err != nil {
		return nil, err
	}
	c, err := composedFromSections(s, nil)
	if err != nil {
		return nil, err
	}
	return &Snapshot{Composed: c, Format: 4, Path: path}, nil
}

// fileRows reads the item rows of a mapped snapshot's f64 slab (sec, a
// view of data) from the descriptor — through the page cache, like the
// checksums — so deriving the cut at load does not fault the mapping into
// resident memory. A failed read falls back to the mapping itself.
func fileRows(f *os.File, data, sec []byte, ix *ScoringIndex) rowReader {
	if len(sec) == 0 || !hostLittle {
		// nothing to read, or the view is already a converted heap copy
		return ix.slabRows
	}
	off := int64(uintptr(unsafe.Pointer(&sec[0])) - uintptr(unsafe.Pointer(&data[0])))
	var buf []float64
	return func(lo, hi int) []float64 {
		n := (hi - lo) * ix.k
		buf = slices.Grow(buf[:0], n)[:n]
		b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(buf))), n*8)
		if _, err := f.ReadAt(b, off+int64(lo*ix.k*8)); err != nil {
			return ix.slabRows(lo, hi)
		}
		return buf
	}
}

// crcOverFile checksums a byte range by streaming it from the descriptor
// in bounded chunks. The reads go through the page cache (shared,
// reclaimable) instead of faulting the mapping into process-resident
// memory — the difference between flat and full-model RSS at load time.
func crcOverFile(f *os.File) func(off, n uint64) (uint32, error) {
	buf := make([]byte, 1<<20)
	return func(off, n uint64) (uint32, error) {
		var crc uint32
		for n > 0 {
			chunk := uint64(len(buf))
			if chunk > n {
				chunk = n
			}
			m, err := f.ReadAt(buf[:chunk], int64(off))
			if err != nil {
				return 0, err
			}
			crc = crc32Update(crc, buf[:m])
			off += uint64(m)
			n -= uint64(m)
		}
		return crc, nil
	}
}

// SectionInfo describes one v4 section for inspection tooling.
type SectionInfo struct {
	ID      uint32
	Name    string
	Offset  uint64
	Len     uint64
	CRC     uint32
	Aligned bool // offset is 64-byte aligned as the format requires
}

// FileInfo is InspectFile's summary of a model file on disk.
type FileInfo struct {
	Path    string
	Size    int64
	Version uint32 // 0 for legacy headerless gob
	Legacy  bool   // no TFRECMDL header at all
	// Sections lists the v4 section table (nil for gob formats).
	Sections []SectionInfo
}

// InspectFile reads a model file's header — and, for v4, its section
// table — without loading the model. It validates only what it needs to
// walk the table safely; use LoadFile/Load for full checksum validation.
func InspectFile(path string) (*FileInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	info := &FileInfo{Path: path, Size: st.Size()}
	var prefix [headerLen]byte
	n, _ := io.ReadFull(f, prefix[:])
	if n < headerLen || !bytes.Equal(prefix[:len(fileMagic)], fileMagic[:]) {
		info.Legacy = true
		return info, nil
	}
	info.Version = binary.BigEndian.Uint32(prefix[len(fileMagic):])
	if info.Version != 4 {
		return info, nil
	}
	var rest [headerV4Len - headerLen]byte
	if _, err := io.ReadFull(f, rest[:]); err != nil {
		return nil, v4err("file shorter than the %d-byte header", headerV4Len)
	}
	count := binary.LittleEndian.Uint32(rest[0:])
	if count == 0 || count > maxSectionsV4 {
		return nil, v4err("hostile section count %d (max %d)", count, maxSectionsV4)
	}
	table := make([]byte, uint64(count)*tableEntryV4Len)
	if _, err := io.ReadFull(f, table); err != nil {
		return nil, v4err("section table extends past EOF")
	}
	info.Sections = make([]SectionInfo, count)
	for i := range info.Sections {
		e := table[i*tableEntryV4Len:]
		id := binary.LittleEndian.Uint32(e[0:])
		si := SectionInfo{
			ID:     id,
			Name:   sectionNamesV4[id],
			CRC:    binary.LittleEndian.Uint32(e[4:]),
			Offset: binary.LittleEndian.Uint64(e[8:]),
			Len:    binary.LittleEndian.Uint64(e[16:]),
		}
		if si.Name == "" {
			si.Name = fmt.Sprintf("unknown(%d)", id)
		}
		si.Aligned = si.Offset%sectionAlignV4 == 0
		info.Sections[i] = si
	}
	return info, nil
}

package model

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

// fuzzSeedTF builds the tiny trained-shaped model every seed derives from.
func fuzzSeedTF(tb testing.TB, mutate func(*TF)) *TF {
	tb.Helper()
	tree := taxonomy.MustGenerate(taxonomy.GenConfig{CategoryLevels: []int{2, 4}, Items: 12, Skew: 0}, vecmath.NewRNG(3))
	m, err := New(tree, 3, Params{K: 4, TaxonomyLevels: 3, MarkovOrder: 1, Alpha: 1, InitStd: 0.1, UseBias: true}, vecmath.NewRNG(4))
	if err != nil {
		tb.Fatal(err)
	}
	mutate(m)
	return m
}

// fuzzSeedV4 returns the model's current (v4 flat) file bytes.
func fuzzSeedV4(tb testing.TB, mutate func(*TF)) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := fuzzSeedTF(tb, mutate).Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzSeedGob returns the model's legacy (v3 gob) file bytes.
func fuzzSeedGob(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := fuzzSeedTF(tb, func(*TF) {}).SaveGob(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// patchV4Table copies a v4 file, applies patch to the idx-th section-table
// entry, and recomputes the table checksum so the corruption is reached by
// the deeper validation it targets rather than dying at the table CRC.
func patchV4Table(tb testing.TB, raw []byte, idx int, patch func(entry []byte)) []byte {
	tb.Helper()
	out := append([]byte(nil), raw...)
	count := binary.LittleEndian.Uint32(out[12:])
	if idx < 0 || uint32(idx) >= count {
		tb.Fatalf("entry index %d out of range (count %d)", idx, count)
	}
	table := out[headerV4Len : headerV4Len+uint64(count)*tableEntryV4Len]
	patch(table[idx*tableEntryV4Len:])
	binary.LittleEndian.PutUint32(out[24:], crc32.Checksum(table, castagnoli))
	return out
}

// patchV4MetaPrecision copies a v4 file with the meta section's precision
// word set to p, fixing up the meta section's and the table's checksums
// so the value is reached by meta validation, not by the CRC check.
func patchV4MetaPrecision(tb testing.TB, raw []byte, p uint64) []byte {
	tb.Helper()
	idx, off, length := v4SectionEntry(tb, raw, secMeta)
	out := append([]byte(nil), raw...)
	meta := out[off : off+length]
	binary.LittleEndian.PutUint64(meta[9*8:], p)
	return patchV4Table(tb, out, idx, func(e []byte) {
		binary.LittleEndian.PutUint32(e[4:], crc32.Checksum(meta, castagnoli))
	})
}

// v4SectionEntry locates the table entry for a section id.
func v4SectionEntry(tb testing.TB, raw []byte, id uint32) (idx int, off, length uint64) {
	tb.Helper()
	count := binary.LittleEndian.Uint32(raw[12:])
	for i := uint32(0); i < count; i++ {
		e := raw[headerV4Len+uint64(i)*tableEntryV4Len:]
		if binary.LittleEndian.Uint32(e[0:]) == id {
			return int(i), binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
		}
	}
	tb.Fatalf("section id %d not found in table", id)
	return 0, 0, 0
}

// FuzzLoad drives the model file parser with mutated headers, versions
// and payloads across every format generation. Load must never panic or
// make a giant allocation; whenever it accepts the input, the model must
// be internally consistent and round-trip through Save/Load.
//
// Run longer with: go test -run '^$' -fuzz '^FuzzLoad$' ./internal/model
func FuzzLoad(f *testing.F) {
	v4 := fuzzSeedV4(f, func(*TF) {})
	f.Add(v4) // current flat format
	// an int8 precision byte, as older writers recorded it — the newest
	// accepted value (validated, then ignored)
	f.Add(patchV4MetaPrecision(f, v4, uint64(PrecisionInt8)))
	// hostile payloads: a NaN factor and an Inf bias must be rejected at
	// (heap) load, never surface at score time
	f.Add(fuzzSeedV4(f, func(m *TF) {
		m.Node.Row(1)[0] = math.NaN()
	}))
	f.Add(fuzzSeedV4(f, func(m *TF) {
		m.Bias.Row(0)[0] = math.Inf(1)
	}))

	// v4 structural corruptions, one per defended invariant
	f.Add(append([]byte(nil), v4[:len(v4)-7]...)) // truncated slab
	f.Add(patchV4Table(f, v4, 5, func(e []byte) { // offset past EOF
		binary.LittleEndian.PutUint64(e[8:], alignUpV4(uint64(len(v4)))+sectionAlignV4)
	}))
	f.Add(patchV4Table(f, v4, 3, func(e []byte) { // misaligned section
		binary.LittleEndian.PutUint64(e[8:], binary.LittleEndian.Uint64(e[8:])+4)
	}))
	checksumBad := append([]byte(nil), v4...)
	checksumBad[len(checksumBad)-1] ^= 0x40 // flip a slab byte, keep the table
	f.Add(checksumBad)
	hostileCount := append([]byte(nil), v4...)
	binary.LittleEndian.PutUint32(hostileCount[12:], 0xFFFFFFFF)
	f.Add(hostileCount)
	hostileMeta := append([]byte(nil), v4...)
	_, metaOff, _ := v4SectionEntry(f, v4, secMeta)
	binary.LittleEndian.PutUint64(hostileMeta[metaOff+8:], 1<<40) // numItems
	f.Add(hostileMeta)

	// the v3 gob format, still read via the fallback path
	gobV3 := fuzzSeedGob(f)
	f.Add(gobV3)
	// v1/v2 files: same gob payload under older version headers (the
	// Precision field gob-defaults on a v1 decode)
	v1 := append([]byte(nil), gobV3...)
	binary.BigEndian.PutUint32(v1[len(fileMagic):], 1)
	f.Add(v1)
	v2 := append([]byte(nil), gobV3...)
	binary.BigEndian.PutUint32(v2[len(fileMagic):], 2)
	f.Add(v2)
	// legacy headerless gob payload
	f.Add(append([]byte(nil), gobV3[headerLen:]...))
	// truncations: inside the header, just after it, and mid-payload, for
	// both the flat and the gob generation
	f.Add(append([]byte(nil), v4[:headerLen-2]...))
	f.Add(append([]byte(nil), v4[:headerV4Len+3]...))
	f.Add(append([]byte(nil), v4[:len(v4)/2]...))
	f.Add(append([]byte(nil), gobV3[:headerLen+3]...))
	f.Add(append([]byte(nil), gobV3[:len(gobV3)/2]...))
	// future version
	future := append([]byte(nil), v4...)
	binary.BigEndian.PutUint32(future[len(fileMagic):], 99)
	f.Add(future)
	// right magic, garbage payload; and plain garbage
	f.Add(append(append([]byte(nil), gobV3[:headerLen]...), []byte("not a gob stream")...))
	f.Add([]byte("TFRECMD?almost the magic"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			if m != nil {
				t.Fatal("Load returned both a model and an error")
			}
			return
		}
		// accepted input: the decoded model must hold the invariants the
		// serving stack assumes
		if m.Tree == nil || m.Tree.NumItems() <= 0 {
			t.Fatal("accepted model has no taxonomy leaves")
		}
		if m.K() <= 0 || m.NumUsers() < 0 {
			t.Fatalf("accepted model has impossible shape: K=%d users=%d", m.K(), m.NumUsers())
		}
		if err := m.Tree.Validate(); err != nil {
			t.Fatalf("accepted model has inconsistent taxonomy: %v", err)
		}
		// round-trip: what Save writes, Load reads back identically shaped
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("re-save failed: %v", err)
		}
		m2, err := Load(&buf)
		if err != nil {
			t.Fatalf("re-load failed: %v", err)
		}
		if m2.K() != m.K() || m2.NumUsers() != m.NumUsers() ||
			m2.Tree.NumNodes() != m.Tree.NumNodes() {
			t.Fatal("round-trip changed the model shape")
		}
	})
}

// Each structural corruption class must produce a typed ErrFormat error
// carrying the long-standing "corrupt or truncated" phrasing — the
// deterministic counterpart of the fuzz seeds above.
func TestLoadV4TypedErrors(t *testing.T) {
	v4 := fuzzSeedV4(t, func(*TF) {})
	_, metaOff, _ := v4SectionEntry(t, v4, secMeta)

	cases := []struct {
		name   string
		mutate func() []byte
		detail string // substring the error must carry
	}{
		{"truncated slab", func() []byte {
			return v4[:len(v4)-7]
		}, "stream ended"},
		{"offset past EOF", func() []byte {
			return patchV4Table(t, v4, 5, func(e []byte) {
				binary.LittleEndian.PutUint64(e[8:], alignUpV4(uint64(len(v4)))+sectionAlignV4)
			})
		}, "past EOF"},
		{"misaligned section", func() []byte {
			return patchV4Table(t, v4, 3, func(e []byte) {
				binary.LittleEndian.PutUint64(e[8:], binary.LittleEndian.Uint64(e[8:])+4)
			})
		}, "misaligned"},
		{"section checksum mismatch", func() []byte {
			bad := append([]byte(nil), v4...)
			bad[len(bad)-1] ^= 0x40
			return bad
		}, "checksum mismatch"},
		{"table checksum mismatch", func() []byte {
			bad := append([]byte(nil), v4...)
			bad[headerV4Len] ^= 0x01 // first table byte, CRC left stale
			return bad
		}, "table checksum mismatch"},
		{"hostile section count", func() []byte {
			bad := append([]byte(nil), v4...)
			binary.LittleEndian.PutUint32(bad[12:], 0xFFFFFFFF)
			return bad
		}, "hostile section count"},
		{"hostile meta count", func() []byte {
			bad := append([]byte(nil), v4...)
			binary.LittleEndian.PutUint64(bad[metaOff+8:], 1<<40) // numItems
			return bad
		}, "out of range"},
		{"unknown precision", func() []byte {
			return patchV4MetaPrecision(t, v4, uint64(PrecisionInt8)+1)
		}, "unknown precision"},
		{"duplicate section", func() []byte {
			return patchV4Table(t, v4, 3, func(e []byte) {
				binary.LittleEndian.PutUint32(e[0:], secMeta)
			})
		}, "duplicate"},
		{"unknown section id", func() []byte {
			return patchV4Table(t, v4, 3, func(e []byte) {
				binary.LittleEndian.PutUint32(e[0:], 9999)
			})
		}, "unknown section id"},
		{"declared size mismatch", func() []byte {
			bad := append([]byte(nil), v4...)
			binary.LittleEndian.PutUint64(bad[16:], uint64(len(v4))+1)
			return bad
		}, "stream ended"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Load(bytes.NewReader(tc.mutate()))
			if err == nil {
				t.Fatal("corrupted file loaded without error")
			}
			if m != nil {
				t.Fatal("Load returned both a model and an error")
			}
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("error not typed as ErrFormat: %v", err)
			}
			if !strings.Contains(err.Error(), "corrupt or truncated") {
				t.Fatalf("error lost the standard phrasing: %v", err)
			}
			if !strings.Contains(err.Error(), tc.detail) {
				t.Fatalf("error %q does not mention %q", err, tc.detail)
			}
		})
	}
}

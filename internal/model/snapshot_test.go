package model

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"unsafe"

	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

// snapshotWorld builds a trained-shaped model with biases and writes its
// v4 file, returning the model and the file path.
func snapshotWorld(t *testing.T) (*TF, string) {
	t.Helper()
	tree := taxonomy.MustGenerate(taxonomy.GenConfig{CategoryLevels: []int{3, 7}, Items: 90, Skew: 0.3}, vecmath.NewRNG(11))
	m, err := New(tree, 5, Params{K: 6, TaxonomyLevels: 3, MarkovOrder: 2, Alpha: 1, InitStd: 0.25, UseBias: true}, vecmath.NewRNG(12))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < tree.NumNodes(); n++ {
		m.Bias.Row(n)[0] = vecmath.NewRNG(uint64(100 + n)).NormFloat64()
	}
	path := filepath.Join(t.TempDir(), "model.tfrec")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return m, path
}

// The mapped snapshot must score byte-identically to a Compose() pass at
// every precision tier — the property that makes mmap serving a pure
// startup optimization with zero behavioral surface.
func TestLoadFileMappedMatchesComposeBitwise(t *testing.T) {
	m, path := snapshotWorld(t)
	ref := m.Compose()
	refIx := ref.Index

	sn, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	if sn.Format != 4 {
		t.Fatalf("snapshot format %d, want 4", sn.Format)
	}
	ix := sn.Composed.Index
	if ix.NumItems() != refIx.NumItems() || ix.K() != refIx.K() {
		t.Fatalf("shape mismatch: (%d,%d) vs (%d,%d)", ix.NumItems(), ix.K(), refIx.NumItems(), refIx.K())
	}

	k := ix.K()
	q := make([]float64, k)
	rng := vecmath.NewRNG(77)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	qi := make([]int8, k)
	qscale, sumQ, sumAbsErr := vecmath.QuantizeQuery(qi, q)

	for item := 0; item < ix.NumItems(); item++ {
		if got, want := ix.ScoreItem(item, q), refIx.ScoreItem(item, q); got != want {
			t.Fatalf("f64 item %d: mapped %v != composed %v", item, got, want)
		}
		got := ix.ScoreItemI8(item, qi, qscale, sumQ)
		want := refIx.ScoreItemI8(item, qi, qscale, sumQ)
		if got != want {
			t.Fatalf("int8 item %d: mapped %v != composed %v", item, got, want)
		}
	}
	for n := 0; n < sn.Composed.Tree.NumNodes(); n++ {
		if got, want := ix.ScoreNode(n, q), refIx.ScoreNode(n, q); got != want {
			t.Fatalf("f64 node %d: mapped %v != composed %v", n, got, want)
		}
		if got, want := subtreeBound(ix, n, q), subtreeBound(refIx, n, q); got != want {
			t.Fatalf("subtree bound node %d: mapped %v != composed %v", n, got, want)
		}
	}
	// the cut is rebuilt at load: its bounds and allowance must match the
	// composed snapshot's bit for bit
	got, want := make([]float64, ix.NumCut()), make([]float64, refIx.NumCut())
	if ge, we := ix.CutBoundsInto(q, got), refIx.CutBoundsInto(q, want); ge != we || !slices.Equal(got, want) {
		t.Fatalf("cut bounds: mapped %v (eps %v) != composed %v (eps %v)", got, ge, want, we)
	}
	// the certified error bounds derive from persisted aggregates and must
	// reproduce exactly, or exactness certificates would drift across a
	// format round-trip
	if got, want := ix.ItemErrBoundI8(q, sumAbsErr), refIx.ItemErrBoundI8(q, sumAbsErr); got != want {
		t.Fatalf("int8 error bound: mapped %v != composed %v", got, want)
	}
	if got, want := ix.ItemPruneBound(q), refIx.ItemPruneBound(q); got != want {
		t.Fatalf("item prune bound: mapped %v != composed %v", got, want)
	}

	// layout tables drive retrieval order; spot-check them too
	for n := 0; n < sn.Composed.Tree.NumNodes(); n++ {
		glo, ghi := ix.DFSSpan(n)
		wlo, whi := refIx.DFSSpan(n)
		if glo != wlo || ghi != whi {
			t.Fatalf("dfs span node %d: [%d,%d) vs [%d,%d)", n, glo, ghi, wlo, whi)
		}
	}
}

// TestMappedSlabsCacheLineAligned pins the layout property the SIMD
// kernels bank on: the mapped item slabs of a v4 file start on 64-byte
// boundaries (page-aligned mapping + 64-aligned section offsets), so the
// vector loads of the AVX2/NEON sweep bodies run at full cache-line
// granularity straight off the mapping. The asm tolerates any alignment
// (unaligned vector loads), so this is a performance property — but one
// the format advertises, so a regression should fail loudly here rather
// than as a silent slowdown.
func TestMappedSlabsCacheLineAligned(t *testing.T) {
	_, path := snapshotWorld(t)
	sn, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	if sn.Format != 4 {
		t.Fatalf("snapshot format %d, want 4", sn.Format)
	}
	ix := sn.Composed.Index
	if d := ix.itemFactors; len(d) == 0 {
		t.Fatal("empty f64 item slab")
	} else if p := uintptr(unsafe.Pointer(&d[0])); p%64 != 0 {
		t.Errorf("f64 item slab base %#x not 64-byte aligned", p)
	}
	if d := ix.itemI8.Data(); len(d) == 0 {
		t.Fatal("empty int8 item slab")
	} else if p := uintptr(unsafe.Pointer(&d[0])); p%64 != 0 {
		t.Errorf("int8 item slab base %#x not 64-byte aligned", p)
	}
}

// A gob-era file must still load through LoadFile, heap-backed.
func TestLoadFileGobFallback(t *testing.T) {
	m, _ := snapshotWorld(t)
	path := filepath.Join(t.TempDir(), "legacy.tfrec")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SaveGob(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	sn, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	if sn.Format != int(gobFileVersion) {
		t.Fatalf("format %d, want %d", sn.Format, gobFileVersion)
	}
	if sn.Mapped {
		t.Fatal("gob fallback must not report a mapped snapshot")
	}
	ref := m.Compose()
	q := make([]float64, ref.K())
	q[0] = 1
	for item := 0; item < ref.NumItems(); item++ {
		if got, want := sn.Composed.Index.ScoreItem(item, q), ref.Index.ScoreItem(item, q); got != want {
			t.Fatalf("item %d: %v != %v", item, got, want)
		}
	}
}

// Close must be idempotent and safe to call concurrently with nothing
// in flight; a corrupted file must be rejected by LoadFile with the
// typed error and no leaked mapping.
func TestSnapshotCloseAndCorruptLoadFile(t *testing.T) {
	_, path := snapshotWorld(t)
	sn, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sn.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := sn.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x10 // slab corruption: section checksum must catch it
	bad := filepath.Join(t.TempDir(), "bad.tfrec")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(bad); err == nil {
		t.Fatal("corrupted file loaded without error")
	} else if !errors.Is(err, ErrFormat) {
		t.Fatalf("corruption error not typed: %v", err)
	}
}

// Residency must answer for a mapped snapshot on platforms that support
// it, and a freshly checksummed-but-unmapped model should not be fully
// resident just from loading.
func TestSnapshotResidency(t *testing.T) {
	_, path := snapshotWorld(t)
	sn, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	if !sn.Mapped {
		t.Skip("mmap unavailable on this platform")
	}
	resident, total, err := sn.Residency()
	if err != nil {
		t.Skipf("residency unsupported: %v", err)
	}
	if total <= 0 || resident < 0 || resident > total {
		t.Fatalf("implausible residency %d/%d", resident, total)
	}
}

func TestInspectFile(t *testing.T) {
	m, path := snapshotWorld(t)

	info, err := InspectFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 4 || info.Legacy {
		t.Fatalf("v4 file inspected as version=%d legacy=%v", info.Version, info.Legacy)
	}
	if len(info.Sections) != len(sectionNamesV4) {
		t.Fatalf("%d sections, want %d", len(info.Sections), len(sectionNamesV4))
	}
	var sum uint64
	seenMeta := false
	for _, s := range info.Sections {
		if !s.Aligned {
			t.Fatalf("section %s at unaligned offset %d", s.Name, s.Offset)
		}
		if s.Name == "meta" {
			seenMeta = true
			if s.Len != metaV4Len {
				t.Fatalf("meta section length %d", s.Len)
			}
		}
		sum += s.Len
	}
	if !seenMeta {
		t.Fatal("meta section missing from inspection")
	}
	if sum > uint64(info.Size) {
		t.Fatalf("section payload %d exceeds file size %d", sum, info.Size)
	}

	gobPath := filepath.Join(t.TempDir(), "legacy.tfrec")
	f, err := os.Create(gobPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SaveGob(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	ginfo, err := InspectFile(gobPath)
	if err != nil {
		t.Fatal(err)
	}
	if ginfo.Version != gobFileVersion || ginfo.Legacy || ginfo.Sections != nil {
		t.Fatalf("gob file inspected as %+v", ginfo)
	}

	rawPath := filepath.Join(t.TempDir(), "prose.bin")
	if err := os.WriteFile(rawPath, []byte("no magic here, just prose padding out twelve bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	linfo, err := InspectFile(rawPath)
	if err != nil {
		t.Fatal(err)
	}
	if !linfo.Legacy {
		t.Fatal("headerless file not flagged legacy")
	}
}

// Loading a v4 file through the heap path (Load) must produce the same
// trainable model Save started from — raw factors bit-identical.
func TestLoadV4HeapRoundTrip(t *testing.T) {
	m, path := snapshotWorld(t)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if back.User.MaxAbsDiff(m.User) != 0 || back.Node.MaxAbsDiff(m.Node) != 0 ||
		back.Next.MaxAbsDiff(m.Next) != 0 || back.Bias.MaxAbsDiff(m.Bias) != 0 {
		t.Fatal("heap v4 round trip changed raw factors")
	}
	if back.P != m.P {
		t.Fatalf("metadata drift: params %+v/%+v", back.P, m.P)
	}
	if math.Abs(float64(back.NumUsers()-m.NumUsers())) != 0 {
		t.Fatalf("user count drift: %d vs %d", back.NumUsers(), m.NumUsers())
	}
}

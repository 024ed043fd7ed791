package model

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"testing"

	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

func index32World(t *testing.T, useBias bool) (*Composed, []float64) {
	t.Helper()
	tree, err := taxonomy.Generate(taxonomy.GenConfig{
		CategoryLevels: []int{4, 12},
		Items:          150,
		Skew:           0.4,
	}, vecmath.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	p := Params{K: 7, TaxonomyLevels: 3, Alpha: 1, InitStd: 0.3, UseBias: useBias}
	m, err := New(tree, 4, p, vecmath.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	if useBias {
		for n := 0; n < tree.NumNodes(); n++ {
			m.Bias.Row(n)[0] = vecmath.NewRNG(uint64(n)).NormFloat64()
		}
	}
	q := make([]float64, p.K)
	rng := vecmath.NewRNG(9)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	return m.Compose(), q
}

// The f32 item slab must be the exact float32 rounding of the f64 item
// slab, biases included, and the blocked range sweep must agree bitwise
// with per-item ScoreItem32.
func TestIndex32SlabsMirrorF64(t *testing.T) {
	for _, useBias := range []bool{false, true} {
		c, q := index32World(t, useBias)
		ix := c.Index
		q32 := make([]float32, len(q))
		vecmath.Downconvert32(q32, q)
		for item := 0; item < ix.NumItems(); item++ {
			f64row := ix.ItemFactor(item)
			f32row := ix.ItemFactor32(item)
			for j := range f64row {
				if f32row[j] != float32(f64row[j]) {
					t.Fatalf("useBias=%v item %d dim %d: f32 slab %v != rounded %v", useBias, item, j, f32row[j], float32(f64row[j]))
				}
			}
			if ix.itemBias32[item] != float32(ix.itemBias[item]) {
				t.Fatalf("useBias=%v item %d: f32 bias %v != rounded %v", useBias, item, ix.itemBias32[item], float32(ix.itemBias[item]))
			}
		}
		dst := make([]float32, ix.NumItems())
		ix.ItemScoresRange32Into(q32, 0, ix.NumItems(), dst)
		for item := range dst {
			if want := ix.ScoreItem32(item, q32); dst[item] != want {
				t.Fatalf("blocked f32 sweep diverged at item %d: %v != %v", item, dst[item], want)
			}
		}
	}
}

// The certified error bound must actually dominate the observed |f32−f64|
// score differences — the property the two-stage pipeline's exactness
// proof stands on.
func TestIndex32ErrBoundDominates(t *testing.T) {
	for _, useBias := range []bool{false, true} {
		c, q := index32World(t, useBias)
		ix := c.Index
		q32 := make([]float32, len(q))
		vecmath.Downconvert32(q32, q)
		eps := ix.ItemErrBound32(q)
		if eps <= 0 {
			t.Fatalf("useBias=%v: non-positive error bound %v", useBias, eps)
		}
		var worst float64
		for item := 0; item < ix.NumItems(); item++ {
			d := math.Abs(float64(ix.ScoreItem32(item, q32)) - ix.ScoreItem(item, q))
			if d > worst {
				worst = d
			}
		}
		if worst > eps {
			t.Fatalf("useBias=%v: observed error %v exceeds certified bound %v", useBias, worst, eps)
		}
	}
}

// Save records no precision preference in either format, and files that
// recorded one — v4 meta words and v2/v3 gob fields older writers set —
// still load, the preference validated and ignored. A file written with a
// version-1 header (the pre-precision format) must still load too.
func TestLoadVersion1AndPrecisionRoundTrip(t *testing.T) {
	tree := taxonomy.MustGenerate(taxonomy.GenConfig{CategoryLevels: []int{3}, Items: 20, Skew: 0}, vecmath.NewRNG(2))
	m, err := New(tree, 3, Params{K: 4, TaxonomyLevels: 2, Alpha: 1, InitStd: 0.1}, vecmath.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if v := binary.BigEndian.Uint32(raw[len(fileMagic):headerLen]); v != fileVersion {
		t.Fatalf("written header version %d, want %d", v, fileVersion)
	}
	if _, off, _ := v4SectionEntry(t, raw, secMeta); binary.LittleEndian.Uint64(raw[off+9*8:]) != 0 {
		t.Fatal("Save recorded a precision preference")
	}
	var gbuf bytes.Buffer
	if err := m.SaveGob(&gbuf); err != nil {
		t.Fatal(err)
	}
	graw := gbuf.Bytes()
	if v := binary.BigEndian.Uint32(graw[len(fileMagic):headerLen]); v != gobFileVersion {
		t.Fatalf("gob header version %d, want %d", v, gobFileVersion)
	}
	var p persisted
	if err := gob.NewDecoder(bytes.NewReader(graw[headerLen:])).Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p.Precision != PrecisionDefault {
		t.Fatalf("SaveGob recorded precision %v", p.Precision)
	}
	for _, prec := range []Precision{PrecisionF32, PrecisionF64, PrecisionInt8} {
		if _, err := Load(bytes.NewReader(patchV4MetaPrecision(t, raw, uint64(prec)))); err != nil {
			t.Fatalf("v4 file recording %v failed to load: %v", prec, err)
		}
		// a gob payload recording the preference, under every gob-era
		// header: the files older writers produced
		p.Precision = prec
		var pbuf bytes.Buffer
		pbuf.Write(graw[:headerLen])
		if err := gob.NewEncoder(&pbuf).Encode(&p); err != nil {
			t.Fatal(err)
		}
		for _, v := range []uint32{1, 2, gobFileVersion} {
			old := append([]byte(nil), pbuf.Bytes()...)
			binary.BigEndian.PutUint32(old[len(fileMagic):], v)
			mOld, err := Load(bytes.NewReader(old))
			if err != nil {
				t.Fatalf("v%d file recording %v failed to load: %v", v, prec, err)
			}
			if mOld.NumItems() != m.NumItems() {
				t.Fatalf("v%d load lost structure: %d items", v, mOld.NumItems())
			}
		}
	}
	p.Precision = PrecisionInt8 + 1
	var bad bytes.Buffer
	bad.Write(graw[:headerLen])
	if err := gob.NewEncoder(&bad).Encode(&p); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&bad); err == nil {
		t.Fatal("gob file recording an unknown precision loaded")
	}
}

func TestPrecisionParseAndResolve(t *testing.T) {
	for s, want := range map[string]Precision{"": PrecisionDefault, "f32": PrecisionF32, "f64": PrecisionF64, "int8": PrecisionInt8} {
		got, err := ParsePrecision(s)
		if err != nil || got != want {
			t.Fatalf("ParsePrecision(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePrecision("f16"); err == nil {
		t.Fatal("expected error for unknown precision")
	}
	want := PrecisionF32
	if vecmath.FusedI8Enabled() {
		want = PrecisionInt8
	}
	if got := PrecisionDefault.Resolve(); got != want {
		t.Fatalf("default resolves to %v on %s, want %v", got, vecmath.KernelsID(), want)
	}
	if PrecisionF32.Resolve() != PrecisionF32 {
		t.Fatal("explicit f32 must survive Resolve")
	}
	if PrecisionF64.Resolve() != PrecisionF64 {
		t.Fatal("explicit f64 must survive Resolve")
	}
	if PrecisionInt8.Resolve() != PrecisionInt8 {
		t.Fatal("explicit int8 must survive Resolve")
	}
}

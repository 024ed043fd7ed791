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
	// slot 1 is the retired f32 tier: files that recorded it still load
	for _, prec := range []Precision{1, PrecisionF64, PrecisionInt8} {
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
	// "f32" names the retired tier: it still parses, as the host's tier
	for s, want := range map[string]Precision{"": PrecisionDefault, "f32": PrecisionDefault, "f64": PrecisionF64, "int8": PrecisionInt8} {
		got, err := ParsePrecision(s)
		if err != nil || got != want {
			t.Fatalf("ParsePrecision(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePrecision("f16"); err == nil {
		t.Fatal("expected error for unknown precision")
	}
	if PrecisionF64 != 2 || PrecisionInt8 != 3 {
		t.Fatalf("precision values moved (f64=%d int8=%d): model files record 2 and 3", PrecisionF64, PrecisionInt8)
	}
	if PrecisionF64.Resolve() != PrecisionF64 {
		t.Fatal("explicit f64 must survive Resolve")
	}
	if PrecisionInt8.Resolve() != PrecisionInt8 {
		t.Fatal("explicit int8 must survive Resolve")
	}
}

// The served tier is a per-host constant: int8 exactly where the fused
// int8 kernel runs, the exact f64 sweep everywhere else. The SIMD test
// run checks the first arm; the TFREC_NOSIMD=1 and purego runs the second.
func TestResolveServedTier(t *testing.T) {
	want := PrecisionF64
	if vecmath.FusedI8Enabled() {
		want = PrecisionInt8
	}
	if got := PrecisionDefault.Resolve(); got != want {
		t.Fatalf("default resolves to %v on %s (fused int8 %v), want %v", got, vecmath.KernelsID(), vecmath.FusedI8Enabled(), want)
	}
}

// index32World builds a small biased or unbiased model and a query for
// the float32 section checks.
func index32World(t *testing.T, useBias bool) (*TF, []float64) {
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
	return m, q
}

// The file's f32 sections are the float32 rounding of the index's f64
// item and node slabs, and the float32 range scorer kept for older
// callers is the in-order float32 dot over those rows.
func TestIndex32SlabsMirrorF64(t *testing.T) {
	for _, useBias := range []bool{false, true} {
		m, q := index32World(t, useBias)
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		s, err := parseV4(data, crcOverBytes(data))
		if err != nil {
			t.Fatal(err)
		}
		f32Section := func(id uint32) []float32 {
			b := s.sec[id]
			out := make([]float32, len(b)/4)
			for i := range out {
				out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
			}
			return out
		}
		ix := m.Compose().Index
		item32, itemBias32 := f32Section(secItem32), f32Section(secItemBias32)
		for _, sl := range []struct {
			name string
			f32  []float32
			f64  []float64
		}{
			{"item32", item32, ix.itemFactors},
			{"itemBias32", itemBias32, ix.itemBias},
			{"node32", f32Section(secNode32), ix.nodeFactors},
			{"nodeBias32", f32Section(secNodeBias32), ix.nodeBias},
		} {
			if len(sl.f32) != len(sl.f64) {
				t.Fatalf("useBias=%v %s: %d values, f64 slab has %d", useBias, sl.name, len(sl.f32), len(sl.f64))
			}
			for i, v := range sl.f64 {
				if sl.f32[i] != float32(v) {
					t.Fatalf("useBias=%v %s[%d]: %v != rounded %v", useBias, sl.name, i, sl.f32[i], float32(v))
				}
			}
		}

		q32 := make([]float32, len(q))
		vecmath.Downconvert32(q32, q)
		n, k := ix.NumItems(), len(q)
		lo := n / 3
		dst := make([]float32, n-lo)
		ix.ItemScoresRange32Into(q32, lo, n, dst)
		for i, got := range dst {
			item := lo + i
			want := itemBias32[item]
			for j, v := range item32[item*k : (item+1)*k] {
				want += v * q32[j]
			}
			if got != want {
				t.Fatalf("useBias=%v float32 range sweep diverged at item %d: %v != %v", useBias, item, got, want)
			}
		}
	}
}

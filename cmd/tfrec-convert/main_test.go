package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

func convertWorld(t *testing.T) *model.TF {
	t.Helper()
	tree := taxonomy.MustGenerate(taxonomy.GenConfig{
		CategoryLevels: []int{3, 8},
		Items:          70,
		Skew:           0.3,
	}, vecmath.NewRNG(31))
	m, err := model.New(tree, 5, model.Params{
		K: 5, TaxonomyLevels: 3, MarkovOrder: 1, Alpha: 1, InitStd: 0.2, UseBias: true,
	}, vecmath.NewRNG(32))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// A legacy gob converts into a v4 file that the serving loader accepts,
// and the verify pass proves the round trip bitwise.
func TestConvertGobToV4(t *testing.T) {
	m := convertWorld(t)
	dir := t.TempDir()
	in := filepath.Join(dir, "m.gob")
	out := filepath.Join(dir, "m.tfrec")
	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SaveGob(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := convert(in, out, true, &buf); err != nil {
		t.Fatal(err)
	}
	outStr := buf.String()
	for _, want := range []string{"gob", "v4 flat", "verified: bitwise round trip ok"} {
		if !strings.Contains(outStr, want) {
			t.Fatalf("missing %q in:\n%s", want, outStr)
		}
	}

	info, err := model.InspectFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 4 || info.Legacy {
		t.Fatalf("converted file is not v4: %+v", info)
	}
	sn, err := model.LoadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	if sn.Format != 4 {
		t.Fatalf("serving load sees format %d, want 4", sn.Format)
	}
}

// Converting a gob in place (in == out) must report the source as the gob
// it was, not as the v4 file that replaced it.
func TestConvertInPlaceReportsSourceFormat(t *testing.T) {
	m := convertWorld(t)
	path := filepath.Join(t.TempDir(), "m.tfrec")
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

	var buf bytes.Buffer
	if err := convert(path, path, true, &buf); err != nil {
		t.Fatal(err)
	}
	if want := path + " (v3 gob, "; !strings.HasPrefix(buf.String(), want) {
		t.Fatalf("report does not start with %q:\n%s", want, buf.String())
	}
	info, err := model.InspectFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 4 {
		t.Fatalf("in-place conversion left format v%d, want v4", info.Version)
	}
}

// The verify pass must fail loudly when the written file is damaged
// after conversion (simulating a bad disk or a partial copy).
func TestConvertErrors(t *testing.T) {
	if err := convert(filepath.Join(t.TempDir(), "missing.gob"), "", true, new(bytes.Buffer)); err == nil {
		t.Fatal("converting a missing file succeeded")
	}

	m := convertWorld(t)
	dir := t.TempDir()
	in := filepath.Join(dir, "m.tfrec")
	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// a corrupt v4 input must be rejected at load, not converted
	raw, err := os.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	bad := filepath.Join(dir, "bad.tfrec")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := convert(bad, filepath.Join(dir, "out.tfrec"), true, new(bytes.Buffer)); err == nil {
		t.Fatal("converting a corrupt file succeeded")
	}
}

package tfrec

// Model load-path benches, gated by tfrec-benchgate:
//
//	BenchmarkLoadGob vs BenchmarkLoadMmap  (mmap >= 20x)
//
// BenchmarkSave (not gated) prices the other end: writing the v4 file
// from the trainable model. Its B/op is the writer's heap, which stays
// O(taxonomy nodes) — a small fraction of the bytes it writes.
//
// The pair prices serving startup. The gob path is what tfrec-serve did
// before the v4 flat format: decode the raw factor gob, then run the
// Compose pass — O(catalog) float work and allocation before the first
// request can be answered. The mmap path is model.LoadFile on a v4 flat
// file: validate header, table and section checksums (hardware CRC-32C
// streamed through the page cache), mmap, and wrap the slabs zero-copy —
// no decode, no Compose, no quantization. The benchgate floor pins the
// mmap load at >=20x the gob load; on the CI bench job the world is
// sized to a million-item catalog via TFREC_LOADBENCH_ITEMS, where the
// gap is widest because the gob path scales with the catalog and the
// mmap path only with file checksumming.

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

// loadBench holds the one benchmark world, built once per process:
// TFREC_LOADBENCH_ITEMS items (default 20000), K=8, int8-serving
// preference so every precision tier's slab is exercised. Both layouts
// are kept as bytes, beside the model they were written from; each
// benchmark materializes what it measures.
var loadBench struct {
	once  sync.Once
	err   error
	model *model.TF
	gob   []byte
	v4    []byte
}

func loadBenchWorld(b *testing.B) (gobBytes, v4Bytes []byte) {
	b.Helper()
	loadBench.once.Do(func() {
		items := 20000
		if s := os.Getenv("TFREC_LOADBENCH_ITEMS"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 100 {
				loadBench.err = errInvalidLoadBenchItems(s)
				return
			}
			items = v
		}
		mid := items / 100
		if mid < 8 {
			mid = 8
		}
		top := mid / 50
		if top < 4 {
			top = 4
		}
		tree, err := taxonomy.Generate(taxonomy.GenConfig{
			CategoryLevels: []int{top, mid},
			Items:          items,
			Skew:           0.3,
		}, vecmath.NewRNG(41))
		if err != nil {
			loadBench.err = err
			return
		}
		m, err := model.New(tree, 100, model.Params{
			K: 8, TaxonomyLevels: 3, MarkovOrder: 1, Alpha: 1, InitStd: 0.1, UseBias: true,
		}, vecmath.NewRNG(42))
		if err != nil {
			loadBench.err = err
			return
		}
		var gb, vb bytes.Buffer
		if err := m.SaveGob(&gb); err != nil {
			loadBench.err = err
			return
		}
		if err := m.Save(&vb); err != nil {
			loadBench.err = err
			return
		}
		loadBench.model = m
		loadBench.gob = gb.Bytes()
		loadBench.v4 = vb.Bytes()
	})
	if loadBench.err != nil {
		b.Fatal(loadBench.err)
	}
	return loadBench.gob, loadBench.v4
}

type errInvalidLoadBenchItems string

func (e errInvalidLoadBenchItems) Error() string {
	return "TFREC_LOADBENCH_ITEMS must be an integer >= 100, got " + strconv.Quote(string(e))
}

// BenchmarkLoadGob is the legacy startup path: gob decode plus the full
// Compose pass, per load.
func BenchmarkLoadGob(b *testing.B) {
	gobBytes, _ := loadBenchWorld(b)
	b.SetBytes(int64(len(gobBytes)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := model.Load(bytes.NewReader(gobBytes))
		if err != nil {
			b.Fatal(err)
		}
		runtime.KeepAlive(m.Compose())
	}
}

// BenchmarkLoadMmap is the v4 startup path: checksum-validate and mmap
// the flat file, wrap slabs zero-copy — the snapshot is serving-ready
// when LoadFile returns.
func BenchmarkLoadMmap(b *testing.B) {
	_, v4Bytes := loadBenchWorld(b)
	path := filepath.Join(b.TempDir(), "bench.tfrec")
	if err := os.WriteFile(path, v4Bytes, 0o644); err != nil {
		b.Fatal(err)
	}
	sn, err := model.LoadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	mapped := sn.Mapped
	sn.Close()
	if !mapped {
		b.Log("mmap unavailable on this platform; measuring the heap fallback")
	}
	b.SetBytes(int64(len(v4Bytes)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn, err := model.LoadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		sn.Close()
	}
}

// BenchmarkSave streams the world's v4 file to a discarding writer.
func BenchmarkSave(b *testing.B) {
	_, v4Bytes := loadBenchWorld(b)
	m := loadBench.model
	b.SetBytes(int64(len(v4Bytes)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Save(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

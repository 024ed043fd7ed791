package serve

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/model"
	"repro/internal/synth"
	"repro/internal/taxonomy"
	"repro/internal/train"
	"repro/internal/vecmath"
)

func trainedModel(t *testing.T) (*model.TF, *dataset.Dataset) {
	t.Helper()
	tree := taxonomy.MustGenerate(taxonomy.GenConfig{
		CategoryLevels: []int{3, 9, 27},
		Items:          270,
		Skew:           0.4,
	}, vecmath.NewRNG(61))
	cfg := synth.DefaultConfig()
	cfg.Users = 300
	data, _, err := synth.Generate(tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := model.Params{K: 8, TaxonomyLevels: 4, MarkovOrder: 1, Alpha: 1, InitStd: 0.01}
	m, err := model.New(tree, data.NumUsers(), p, vecmath.NewRNG(62))
	if err != nil {
		t.Fatal(err)
	}
	tc := train.DefaultConfig()
	tc.Epochs = 8
	if _, err := train.Train(m, data, tc); err != nil {
		t.Fatal(err)
	}
	return m, data
}

// The first request after construction or a hot swap must not pay the
// lazy slab build: a Compose()-built snapshot's mirror slab at the host's
// tier (f32 or int8) is materialized before the snapshot is published, so
// the request path allocates nothing catalog-sized.
func TestFirstRequestAllocatesNoCatalogSlab(t *testing.T) {
	tree := taxonomy.MustGenerate(taxonomy.GenConfig{
		CategoryLevels: []int{8, 64},
		Items:          20000,
		Skew:           0.4,
	}, vecmath.NewRNG(71))
	p := model.Params{K: 16, TaxonomyLevels: 3, Alpha: 1, InitStd: 0.1}
	m, err := model.New(tree, 4, p, vecmath.NewRNG(72))
	if err != nil {
		t.Fatal(err)
	}
	// the smallest slab any tier builds: one int8 code per factor
	slab := uint64(m.NumItems() * p.K)
	firstRequestBytes := func(s *Server) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := s.Recommend(Request{User: 1, K: 10}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	s := New(m)
	defer s.Close()
	if got := firstRequestBytes(s); got >= slab/2 {
		t.Errorf("%v tier: first request allocated %d bytes, catalog int8 slab is %d", s.Precision(), got, slab)
	}
	s.Update(m)
	if got := firstRequestBytes(s); got >= slab/2 {
		t.Errorf("%v tier: first request after Update allocated %d bytes, catalog int8 slab is %d", s.Precision(), got, slab)
	}
}

func TestServerBasicRequest(t *testing.T) {
	m, data := trainedModel(t)
	s := New(m)
	resp, err := s.Recommend(Request{User: 3, Recent: data.Users[3].Baskets, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 5 {
		t.Fatalf("got %d items", len(resp))
	}
}

func TestServerValidation(t *testing.T) {
	m, _ := trainedModel(t)
	s := New(m)
	if _, err := s.Recommend(Request{User: 3, K: 0}); err == nil {
		t.Fatal("expected error for K=0")
	}
	if _, err := s.Recommend(Request{User: 99999, K: 5}); err == nil {
		t.Fatal("expected error for out-of-range user")
	}
}

func TestServerSessionRequest(t *testing.T) {
	m, _ := trainedModel(t)
	s := New(m)
	resp, err := s.Recommend(Request{User: -1, Recent: []dataset.Basket{{7}}, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 5 {
		t.Fatalf("got %d items", len(resp))
	}
}

func TestServerCascadeAndDiversify(t *testing.T) {
	m, _ := trainedModel(t)
	s := New(m)
	cc := infer.UniformCascade(m.Tree.Depth(), 1.0)
	casc, err := s.Recommend(Request{User: 0, K: 8, Cascade: &cc})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := s.Recommend(Request{User: 0, K: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range naive {
		if casc[i].ID != naive[i].ID {
			t.Fatal("full-keep cascade must match naive")
		}
	}
	div, err := s.Recommend(Request{User: 0, K: 8, MaxPerCategory: 1})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, item := range div {
		cat := m.Tree.AncestorAtDepth(m.Tree.ItemNode(item.ID), m.Tree.Depth()-1)
		if seen[cat] {
			t.Fatal("diversified response repeated a category")
		}
		seen[cat] = true
	}
}

func TestServerBatchMatchesSerial(t *testing.T) {
	m, data := trainedModel(t)
	s := New(m)
	reqs := make([]Request, 40)
	for i := range reqs {
		reqs[i] = Request{User: i % data.NumUsers(), K: 5}
	}
	batch := s.Batch(reqs, 8)
	for i, r := range batch {
		if r.Err != nil {
			t.Fatalf("req %d: %v", i, r.Err)
		}
		serial, err := s.Recommend(reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		for j := range serial {
			if serial[j] != r.Items[j] {
				t.Fatalf("req %d item %d differs", i, j)
			}
		}
	}
	// bad request inside a batch is isolated
	reqs[0].User = 1 << 30
	batch = s.Batch(reqs, 4)
	if batch[0].Err == nil {
		t.Fatal("expected error for bad user in batch")
	}
	if batch[1].Err != nil {
		t.Fatal("error leaked to neighbouring request")
	}
}

func TestServerConcurrentRequestsDuringUpdates(t *testing.T) {
	m, data := trainedModel(t)
	s := New(m)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// hammer with requests
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Recommend(Request{User: (w*31 + i) % data.NumUsers(), K: 3}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// swap snapshots concurrently
	for i := 0; i < 20; i++ {
		s.Update(m)
	}
	close(stop)
	wg.Wait()
}

// TestServerConcurrentBatchDuringUpdates drives Batch (with its pooled
// query buffers) and single Recommends while snapshots swap underneath;
// run under -race this pins down the Update/run pool interaction.
func TestServerConcurrentBatchDuringUpdates(t *testing.T) {
	m, data := trainedModel(t)
	s := New(m)
	cc := infer.UniformCascade(m.Tree.Depth(), 0.5)
	reqs := make([]Request, 24)
	for i := range reqs {
		reqs[i] = Request{User: i % data.NumUsers(), K: 4}
		switch i % 3 {
		case 1:
			reqs[i].Cascade = &cc
		case 2:
			reqs[i].MaxPerCategory = 2
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if w%2 == 0 {
					for j, r := range s.Batch(reqs, 3) {
						if r.Err != nil {
							t.Errorf("batch req %d: %v", j, r.Err)
							return
						}
					}
				} else if _, err := s.Recommend(reqs[i%len(reqs)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 30; i++ {
		s.Update(m)
	}
	close(stop)
	wg.Wait()
}

func TestServerEmptyBatch(t *testing.T) {
	m, _ := trainedModel(t)
	s := New(m)
	if out := s.Batch(nil, 4); len(out) != 0 {
		t.Fatal("empty batch should return empty result")
	}
}

// A server with a pool must return exactly what the serial server
// returns, for every request flavor and pool size.
func TestParallelServerMatchesSerial(t *testing.T) {
	m, data := trainedModel(t)
	serial := New(m)
	reqs := []Request{
		{User: 3, Recent: data.Users[3].Baskets, K: 7},
		{User: -1, Recent: data.Users[5].Baskets, K: 5},
		{User: 8, K: 4, Cascade: &infer.CascadeConfig{KeepFrac: []float64{0.5, 0.5, 0.5}}},
		{User: 2, K: 6, MaxPerCategory: 2},
	}
	for _, workers := range []int{0, 2, 3, 4} {
		parallel := New(m, WithWorkers(workers))
		parallel.Snapshot().Index.SetShardItems(37) // force many shards on the tiny catalog
		for i, req := range reqs {
			want, err := serial.Recommend(req)
			if err != nil {
				t.Fatalf("req %d serial: %v", i, err)
			}
			got, err := parallel.Recommend(req)
			if err != nil {
				t.Fatalf("req %d workers=%d: %v", i, workers, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("req %d workers=%d: parallel ranking diverged\nwant %v\ngot  %v", i, workers, want, got)
			}
		}
		parallel.Close()
	}
}

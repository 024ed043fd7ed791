package serve

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/model"
	"repro/internal/train"
	"repro/internal/vecmath"
)

// secondModel derives a distinguishably different model from the shared
// test world by training further epochs on a copy of the data.
func secondModel(t *testing.T, m *model.TF) *model.TF {
	t.Helper()
	_, data := trainedModel(t)
	tc := train.DefaultConfig()
	tc.Epochs = 6
	tc.Seed = 977
	if _, err := train.Train(m, data, tc); err != nil {
		t.Fatal(err)
	}
	return m
}

// Hammer Reload (the SIGHUP hot-swap path) concurrently with cached and
// uncached requests. Every response must be byte-identical to one of the
// two models' direct rankings — never a blend, never a partial ranking —
// and once a Reload has returned, requests must never again see the
// pre-reload model's result for a cached key (no stale-epoch serving).
func TestReloadRaceNoStaleResults(t *testing.T) {
	mA, _ := trainedModel(t)
	mB, _ := trainedModel(t)
	mB = secondModel(t, mB)

	probes := []string{
		`{"user":1,"k":5}`,
		`{"user":2,"k":5}`,
		`{"user":3,"k":5,"exclude_categories":[2]}`,
		`{"user":4,"k":4,"strategy":"diversified","max_per_category":2}`,
	}
	reqs := []Request{
		{User: 1, K: 5},
		{User: 2, K: 5},
		{User: 3, K: 5, ExcludeCategories: []int32{2}},
		{User: 4, K: 4, MaxPerCategory: 2},
	}
	plainA, plainB := New(mA), New(mB)
	wantA := make([][]vecmath.Scored, len(reqs))
	wantB := make([][]vecmath.Scored, len(reqs))
	distinct := false
	for i, r := range reqs {
		var err error
		if wantA[i], err = plainA.Recommend(r); err != nil {
			t.Fatal(err)
		}
		if wantB[i], err = plainB.Recommend(r); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantA[i], wantB[i]) {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("test models are indistinguishable; the race assertions would be vacuous")
	}

	var current atomic.Pointer[model.TF]
	current.Store(mA)
	srv := New(mA, WithCache(64), WithWorkers(2))
	defer srv.Close()
	h := NewHTTP(srv, func() (*model.TF, error) { return current.Load(), nil })
	ts := httptest.NewServer(h.Handler())
	defer ts.Close()

	fetch := func(i int) []vecmath.Scored {
		resp, out := postJSON(t, ts.Client(), ts.URL+"/v1/recommend", probes[i])
		if resp.StatusCode != http.StatusOK {
			t.Errorf("probe %d: status %d", i, resp.StatusCode)
			return nil
		}
		items := make([]vecmath.Scored, len(out.Items))
		for j, it := range out.Items {
			items[j] = vecmath.Scored{ID: it.Item, Score: it.Score}
		}
		return items
	}

	// phase 1: concurrent hammer — every answer is exactly A's or B's
	stop := make(chan struct{})
	var reloads sync.WaitGroup
	reloads.Add(1)
	go func() {
		defer reloads.Done()
		flip := false
		for {
			select {
			case <-stop:
				return
			default:
			}
			if flip {
				current.Store(mB)
			} else {
				current.Store(mA)
			}
			flip = !flip
			if err := h.Reload(); err != nil {
				t.Errorf("reload: %v", err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 150; iter++ {
				// repeat keys often so the cached path is genuinely hot
				i := (w + iter) % len(probes)
				if iter%3 == 0 {
					i = 0
				}
				got := fetch(i)
				if got == nil {
					return
				}
				if !reflect.DeepEqual(got, wantA[i]) && !reflect.DeepEqual(got, wantB[i]) {
					t.Errorf("probe %d: response matches neither model (stale or blended result)", i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	reloads.Wait()
	if t.Failed() {
		return
	}

	// phase 2: causality — after Reload returns, the old model's answer
	// (cached or not) must never surface again
	for round := 0; round < 30; round++ {
		m, want := mA, wantA
		if round%2 == 0 {
			m, want = mB, wantB
		}
		current.Store(m)
		if err := h.Reload(); err != nil {
			t.Fatal(err)
		}
		for i := range probes {
			// twice: a miss-then-fill pass and a guaranteed cache hit
			for pass := 0; pass < 2; pass++ {
				if got := fetch(i); !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("round %d probe %d pass %d: stale-epoch result served after Reload", round, i, pass)
				}
			}
		}
	}
	if cs, ok := srv.CacheStats(); !ok || cs.Hits == 0 || cs.Stale == 0 {
		cs, _ := srv.CacheStats()
		t.Fatalf("test never exercised the cached path properly: %+v", cs)
	}
}

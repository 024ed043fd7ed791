package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/taxonomy"
	"repro/internal/train"
	"repro/internal/vecmath"
)

// trainedModel trains one small model for the whole test binary: every
// topology in these tests serves the same content, which is exactly the
// invariant a real sharded deployment holds.
var trainedModel = sync.OnceValues(func() (*model.TF, *dataset.Dataset) {
	tree := taxonomy.MustGenerate(taxonomy.GenConfig{
		CategoryLevels: []int{3, 9, 27},
		Items:          270,
		Skew:           0.4,
	}, vecmath.NewRNG(61))
	cfg := synth.DefaultConfig()
	cfg.Users = 300
	data, _, err := synth.Generate(tree, cfg)
	if err != nil {
		panic(err)
	}
	p := model.Params{K: 8, TaxonomyLevels: 4, MarkovOrder: 1, Alpha: 1, InitStd: 0.01}
	m, err := model.New(tree, data.NumUsers(), p, vecmath.NewRNG(62))
	if err != nil {
		panic(err)
	}
	tc := train.DefaultConfig()
	tc.Epochs = 8
	if _, err := train.Train(m, data, tc); err != nil {
		panic(err)
	}
	return m, data
})

// altModel is a second, differently-initialized model — same shapes,
// different content — for the snapshot-mixing tests.
var altModel = sync.OnceValue(func() *model.TF {
	_, data := trainedModel()
	tree := taxonomy.MustGenerate(taxonomy.GenConfig{
		CategoryLevels: []int{3, 9, 27},
		Items:          270,
		Skew:           0.4,
	}, vecmath.NewRNG(61))
	p := model.Params{K: 8, TaxonomyLevels: 4, MarkovOrder: 1, Alpha: 1, InitStd: 0.01}
	m, err := model.New(tree, data.NumUsers(), p, vecmath.NewRNG(99))
	if err != nil {
		panic(err)
	}
	tc := train.DefaultConfig()
	tc.Epochs = 2
	if _, err := train.Train(m, data, tc); err != nil {
		panic(err)
	}
	return m
})

// topologyUnderTest is one router in front of len(splits) shard servers,
// plus a single full-catalog control node serving the same model.
type topologyUnderTest struct {
	control *httptest.Server
	shards  []*httptest.Server
	// setModel[i] hot-swaps shard i's snapshot to a new model — the
	// SIGHUP path, for the snapshot-mixing tests.
	setModel []func(*model.TF) error
	router   *Router
	front    *httptest.Server
}

func (tp *topologyUnderTest) close() {
	tp.front.Close()
	tp.control.Close()
	for _, s := range tp.shards {
		s.Close()
	}
}

func newTopology(t *testing.T, splits []api.ItemRange, cfg Config) *topologyUnderTest {
	t.Helper()
	m, _ := trainedModel()
	tp := &topologyUnderTest{}
	tp.control = httptest.NewServer(serve.NewHTTP(serve.New(m), nil).Handler())
	for _, rng := range splits {
		var next atomic.Pointer[model.TF]
		h := serve.NewHTTP(serve.New(m, serve.WithItemRange(rng.Lo, rng.Hi)),
			func() (*model.TF, error) { return next.Load(), nil })
		tp.setModel = append(tp.setModel, func(m2 *model.TF) error {
			next.Store(m2)
			return h.Reload()
		})
		tp.shards = append(tp.shards, httptest.NewServer(h.Handler()))
		cfg.Shards = append(cfg.Shards, tp.shards[len(tp.shards)-1].URL)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tp.router = rt
	tp.front = httptest.NewServer(NewHTTP(rt).Handler())
	return tp
}

// randomSplits cuts [0, items) into 1-4 contiguous shard ranges at
// random boundaries.
func randomSplits(rng *rand.Rand, items int) []api.ItemRange {
	n := 1 + rng.Intn(4)
	cuts := map[int]bool{}
	for len(cuts) < n-1 {
		cuts[1+rng.Intn(items-1)] = true
	}
	bounds := []int{0}
	for c := range cuts {
		bounds = append(bounds, c)
	}
	bounds = append(bounds, items)
	// map iteration order is random; sort the boundaries
	for i := range bounds {
		for j := i + 1; j < len(bounds); j++ {
			if bounds[j] < bounds[i] {
				bounds[i], bounds[j] = bounds[j], bounds[i]
			}
		}
	}
	out := make([]api.ItemRange, n)
	for i := 0; i < n; i++ {
		out[i] = api.ItemRange{Lo: bounds[i], Hi: bounds[i+1]}
	}
	return out
}

func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// The tentpole property: a router over ANY contiguous sharding of the
// catalog answers every request with the byte-identical response of a
// single full-catalog node — status, items, scores, tie-breaks, epoch,
// fingerprint, every JSON byte — across strategies, filters, the ignored
// execution knobs (?precision= × ?workers=, malformed values included),
// pagination and the category sweep. The retired per-shape
// routes are rows too: both sides must answer them with the same typed
// 404 not_found envelope.
func TestRouterByteIdenticalToSingleNode(t *testing.T) {
	type request struct {
		path, query, body string
	}
	requests := []request{
		{"/v1/recommend", "", `{"user":3,"k":10}`},
		{"/v1/recommend", "", `{"user":7,"k":25,"offset":13}`},
		{"/v1/recommend", "", `{"user":-1,"k":10,"recent":[[5,9],[12]]}`},
		{"/v1/recommend", "", `{"user":11,"k":500}`}, // K past the catalog
		{"/v1/recommend", "", `{"user":4,"k":12,"strategy":"cascade","keep":3}`},
		{"/v1/recommend", "", `{"user":4,"k":12,"strategy":"cascade","keep_frac":[1,0.5,0.3,0.2]}`},
		{"/v1/recommend", "", `{"user":5,"k":15,"strategy":"diversified","max_per_category":2}`},
		{"/v1/recommend", "", `{"user":5,"k":30,"strategy":"diversified","max_per_category":1,"cat_depth":1,"offset":4}`},
		{"/v1/recommend", "", `{"user":6,"k":10,"categories":[1],"recent":[[3,4]]}`},
		{"/v1/recommend", "", `{"user":6,"k":10,"exclude_categories":[2]}`},
		{"/v1/recommend", "?precision=int8", `{"user":8,"k":9}`},
		{"/v1/recommend", "?precision=f32", `{"user":3,"k":10}`},
		{"/v1/recommend", "?precision=f64", `{"user":3,"k":10}`},
		{"/v1/recommend", "?precision=f32", `{"user":5,"k":15,"strategy":"diversified","max_per_category":2}`},
		{"/v1/recommend", "?precision=f32&pruned=true", `{"user":9,"k":9}`},
		{"/v1/recommend", "?pruned=true", `{"user":9,"k":9}`},
		{"/v1/recommend", "?offset=6&category=1,3", `{"user":10,"k":8}`},
		{"/v1/recommend", "", `{"user":99999,"k":5}`}, // shard 400, propagated verbatim
		// retired routes
		{"/v1/recommend/user", "", `{"user":13,"k":7}`},
		{"/v1/recommend/session", "", `{"k":7,"recent":[[20,21,22]]}`},
		{"/v1/recommend/cascade", "", `{"user":14,"k":7,"keep":4}`},
		{"/v1/recommend/diversified", "", `{"user":15,"k":14,"max_per_category":3}`},
	}
	// the execution-knob table: every cell must answer the knob-free
	// request's bytes, or the node's 400 envelope for a malformed value
	for _, prec := range []string{"", "f32", "f64", "int8", "bogus"} {
		for _, workers := range []string{"", "0", "1", "3", "-1"} {
			var params []string
			if prec != "" {
				params = append(params, "precision="+prec)
			}
			if workers != "" {
				params = append(params, "workers="+workers)
			}
			if len(params) > 0 {
				requests = append(requests, request{"/v1/recommend", "?" + strings.Join(params, "&"), `{"user":3,"k":10}`})
			}
		}
	}
	const items = 270 // the trainedModel taxonomy's catalog size
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		splits := randomSplits(rng, items)
		t.Run(fmt.Sprintf("split=%v", splits), func(t *testing.T) {
			tp := newTopology(t, splits, Config{})
			defer tp.close()
			for _, rq := range requests {
				wantCode, want := post(t, tp.control.URL+rq.path+rq.query, rq.body)
				gotCode, got := post(t, tp.front.URL+rq.path+rq.query, rq.body)
				if gotCode != wantCode || got != want {
					t.Errorf("%s%s %s:\nrouter (%d): %s\nsingle (%d): %s",
						rq.path, rq.query, rq.body, gotCode, got, wantCode, want)
				}
				if defQuery := withoutKnobs(rq.query); defQuery != rq.query && wantCode == http.StatusOK {
					// the knobs are ignored: the answer must equal the
					// knob-free request's, and a plain request's items are
					// infer's literal f64 plan
					defCode, def := post(t, tp.front.URL+rq.path+defQuery, rq.body)
					if defCode != wantCode || def != want {
						t.Errorf("%s %s: knob-free through the router (%d): %s\n%s on the control (%d): %s",
							rq.path, rq.body, defCode, def, rq.query, wantCode, want)
					}
					if want, ok := exactF64Items(t, rq.body); ok {
						var out api.RecommendResponse
						if err := json.Unmarshal([]byte(got), &out); err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(out.Items, want) {
							t.Errorf("%s %s through the router: %+v\ninfer's f64 plan: %+v", rq.query, rq.body, out.Items, want)
						}
					}
				}
				if rq.path != api.EndpointUnified.Path() {
					var eb api.ErrorBody
					if err := json.Unmarshal([]byte(got), &eb); err != nil ||
						gotCode != http.StatusNotFound || eb.Err.Code != api.CodeNotFound {
						t.Errorf("retired route %s answered %d %s, want 404 not_found", rq.path, gotCode, got)
					}
				}
			}
		})
	}
}

// withoutKnobs drops the execution knobs (precision, workers) from a
// "?a=b&c=d" query, keeping the other parameters in order.
func withoutKnobs(query string) string {
	var kept []string
	for _, p := range strings.Split(strings.TrimPrefix(query, "?"), "&") {
		if p != "" && !strings.HasPrefix(p, "precision=") && !strings.HasPrefix(p, "workers=") {
			kept = append(kept, p)
		}
	}
	if len(kept) == 0 {
		return ""
	}
	return "?" + strings.Join(kept, "&")
}

// exactF64Items is infer's exact f64 plan for a plain {"user","k"} body
// on the shared model, as the wire's items; ok is false for any other
// body.
func exactF64Items(t *testing.T, body string) (items []api.Item, ok bool) {
	t.Helper()
	var wr api.RecommendRequest
	if err := json.Unmarshal([]byte(body), &wr); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wr, api.RecommendRequest{User: wr.User, K: wr.K}) {
		return nil, false
	}
	m, _ := trainedModel()
	c := m.Compose()
	q := make([]float64, c.K())
	c.BuildQueryInto(wr.User, nil, q)
	res, err := infer.Execute(context.Background(), c, q, infer.Plan{K: wr.K, Precision: model.PrecisionF64})
	if err != nil {
		t.Fatal(err)
	}
	items = make([]api.Item, len(res.Items))
	for i, it := range res.Items {
		items[i] = api.Item{Item: it.ID, Score: it.Score}
	}
	return items, true
}

// A dead shard must degrade per policy: shed everything with a typed
// 503, or serve the reachable ranges marked degraded — never a hard
// error, never a silently wrong full ranking.
func TestRouterDegradedModes(t *testing.T) {
	splits := []api.ItemRange{{Lo: 0, Hi: 90}, {Lo: 90, Hi: 180}, {Lo: 180, Hi: 270}}
	for _, mode := range []string{"shed", "partial"} {
		t.Run(mode, func(t *testing.T) {
			tp := newTopology(t, splits, Config{DegradedPartial: mode == "partial"})
			defer tp.close()
			_, healthy := post(t, tp.front.URL+"/v1/recommend", `{"user":3,"k":270}`)
			tp.shards[1].Close() // kill the middle range

			code, body := post(t, tp.front.URL+"/v1/recommend", `{"user":3,"k":270}`)
			if mode == "shed" {
				if code != http.StatusServiceUnavailable {
					t.Fatalf("status %d, want 503", code)
				}
				var eb api.ErrorBody
				if err := json.Unmarshal([]byte(body), &eb); err != nil {
					t.Fatal(err)
				}
				if eb.Err.Code != api.CodeShardUnavailable {
					t.Fatalf("code %q, want shard_unavailable", eb.Err.Code)
				}
				return
			}
			if code != http.StatusOK {
				t.Fatalf("status %d, want 200: %s", code, body)
			}
			var full, part api.RecommendResponse
			if err := json.Unmarshal([]byte(healthy), &full); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal([]byte(body), &part); err != nil {
				t.Fatal(err)
			}
			if !part.Degraded {
				t.Fatal("partial response not marked degraded")
			}
			if len(part.Items) != 180 {
				t.Fatalf("partial ranking has %d items, want the 180 reachable", len(part.Items))
			}
			for _, it := range part.Items {
				if it.Item >= 90 && it.Item < 180 {
					t.Fatalf("item %d from the dead shard's range in a degraded ranking", it.Item)
				}
			}
			// the degraded ranking must be the full ranking minus the dead
			// range — relative order preserved
			kept := full.Items[:0:0]
			for _, it := range full.Items {
				if it.Item < 90 || it.Item >= 180 {
					kept = append(kept, it)
				}
			}
			for i := range kept {
				if kept[i] != part.Items[i] {
					t.Fatalf("degraded ranking diverged at %d: %+v vs %+v", i, part.Items[i], kept[i])
				}
			}
		})
	}
}

// Mid-reload, shards briefly serve different snapshots; the router must
// refuse to merge them (typed 503), then recover — and drop its cache —
// once the topology converges on the new content.
func TestRouterSnapshotMixing(t *testing.T) {
	splits := []api.ItemRange{{Lo: 0, Hi: 135}, {Lo: 135, Hi: 270}}
	tp := newTopology(t, splits, Config{CacheSize: 64})
	defer tp.close()
	m2 := altModel()

	body := `{"user":3,"k":10}`
	_, first := post(t, tp.front.URL+"/v1/recommend", body)
	code, cached := post(t, tp.front.URL+"/v1/recommend", body)
	if code != http.StatusOK || cached != first {
		t.Fatalf("cache replay diverged: %s vs %s", cached, first)
	}
	var rs api.RouterStats
	decodeStats(t, tp.front.URL, &rs)
	if rs.Router.CacheHits != 1 {
		t.Fatalf("cache_hits = %d, want 1", rs.Router.CacheHits)
	}
	// the aggregate catalog shape and the shard rows
	if rs.Model.Items != 270 || len(rs.Shards) != 2 {
		t.Fatalf("stats model/shards wrong: %+v", rs)
	}

	// reload only shard 0 with different content: merges must refuse
	if err := tp.setModel[0](m2); err != nil {
		t.Fatal(err)
	}
	code, body503 := post(t, tp.front.URL+"/v1/recommend", `{"user":4,"k":10}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("mixed-snapshot merge answered %d: %s", code, body503)
	}
	var eb api.ErrorBody
	if err := json.Unmarshal([]byte(body503), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Err.Code != api.CodeEpochMismatch {
		t.Fatalf("code %q, want epoch_mismatch", eb.Err.Code)
	}

	// converge shard 1 too: serving resumes on the new model, and the
	// old cache entry must NOT replay (its stamp is below the new min)
	if err := tp.setModel[1](m2); err != nil {
		t.Fatal(err)
	}
	code, after := post(t, tp.front.URL+"/v1/recommend", body)
	if code != http.StatusOK {
		t.Fatalf("converged topology answered %d: %s", code, after)
	}
	if after == first {
		t.Fatal("stale cached ranking replayed after both shards reloaded")
	}
	decodeStats(t, tp.front.URL, &rs)
	if rs.Router.EpochMismatch != 1 {
		t.Fatalf("epoch_mismatch = %d, want 1", rs.Router.EpochMismatch)
	}
	if rs.Model.Epoch != 1 {
		t.Fatalf("model epoch %d, want min across shards = 1 after one swap each", rs.Model.Epoch)
	}
}

func decodeStats(t *testing.T, frontURL string, rs *api.RouterStats) {
	t.Helper()
	resp, err := http.Get(frontURL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(rs); err != nil {
		t.Fatal(err)
	}
}

// stubShard is a canned backend for the hedging tests: full control
// over latency without a real model.
func stubShard(rng api.ItemRange, items []api.Item, slowFirst time.Duration) *httptest.Server {
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(api.Stats{Model: api.StatsModel{
			Items: 270, Epoch: 1, ModelID: "stub", ItemRange: &rng,
		}})
	})
	mux.HandleFunc("POST /v1/recommend", func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 && slowFirst > 0 {
			time.Sleep(slowFirst)
		}
		json.NewEncoder(w).Encode(api.RecommendResponse{Items: items, Epoch: 1, ModelID: "stub"})
	})
	return httptest.NewServer(mux)
}

// A shard sitting on a request past the hedge delay gets a second copy,
// and the first answer wins — the slow primary must not set the
// request's latency floor.
func TestRouterHedging(t *testing.T) {
	a := stubShard(api.ItemRange{Lo: 0, Hi: 135},
		[]api.Item{{Item: 1, Score: 5}}, 2*time.Second)
	defer a.Close()
	b := stubShard(api.ItemRange{Lo: 135, Hi: 270},
		[]api.Item{{Item: 200, Score: 7}}, 0)
	defer b.Close()
	rt, err := New(Config{Shards: []string{a.URL, b.URL}, HedgeDelay: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(NewHTTP(rt).Handler())
	defer front.Close()

	start := time.Now()
	code, body := post(t, front.URL+"/v1/recommend", `{"user":1,"k":2}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("hedge did not mask the slow primary: %s", d)
	}
	var out api.RecommendResponse
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != 2 || out.Items[0].Item != 200 || out.Items[1].Item != 1 {
		t.Fatalf("merged ranking wrong: %+v", out.Items)
	}
	if rt.hedges.Load() < 1 || rt.hedgeWins.Load() < 1 {
		t.Fatalf("hedge counters: %d fired / %d won, want >= 1 each",
			rt.hedges.Load(), rt.hedgeWins.Load())
	}
}

// Router-level client errors: typed envelope, no fan-out for what every
// shard would reject anyway, structured 404s.
func TestRouterErrorPaths(t *testing.T) {
	tp := newTopology(t, []api.ItemRange{{Lo: 0, Hi: 270}}, Config{})
	defer tp.close()
	check := func(code int, wantCode api.Code, gotBody string) {
		t.Helper()
		var eb api.ErrorBody
		if err := json.Unmarshal([]byte(gotBody), &eb); err != nil {
			t.Fatalf("not an error envelope: %s", gotBody)
		}
		if eb.Err.Code != wantCode || eb.Err.Code.Status() != code {
			t.Fatalf("got %d/%s, want %d/%s", code, eb.Err.Code, wantCode.Status(), wantCode)
		}
	}
	code, body := post(t, tp.front.URL+"/v1/recommend", `{"user":3,"k":0}`)
	check(code, api.CodeBadRequest, body)
	code, body = post(t, tp.front.URL+"/v1/recommend?offset=-2", `{"user":3,"k":5}`)
	check(code, api.CodeBadRequest, body)
	code, body = post(t, tp.front.URL+"/v1/recommend", `{"user":3,"k"`)
	check(code, api.CodeBadRequest, body)
	code, body = post(t, tp.front.URL+"/v1/nope", `{}`)
	check(code, api.CodeNotFound, body)
}

// A router answers /healthz exactly like a node: same status, same
// content type, the byte-identical documented body "ok\n".
func TestHealthzMatchesNode(t *testing.T) {
	tp := newTopology(t, []api.ItemRange{{Lo: 0, Hi: 270}}, Config{})
	defer tp.close()
	get := func(url string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), string(b)
	}
	nodeCode, nodeType, nodeBody := get(tp.control.URL)
	routerCode, routerType, routerBody := get(tp.front.URL)
	if nodeCode != http.StatusOK || nodeBody != "ok\n" {
		t.Fatalf("node /healthz answered %d %q, want 200 %q", nodeCode, nodeBody, "ok\n")
	}
	if routerCode != nodeCode || routerType != nodeType || routerBody != nodeBody {
		t.Fatalf("router /healthz answered %d %q %q, node %d %q %q", routerCode, routerType, routerBody, nodeCode, nodeType, nodeBody)
	}
}

// Topology bootstrap must reject a shard set that cannot serve
// correctly: gaps, overlaps, or a backend not running in shard mode.
func TestRouterBootstrapValidation(t *testing.T) {
	m, _ := trainedModel()
	full := httptest.NewServer(serve.NewHTTP(serve.New(m), nil).Handler())
	defer full.Close()
	if _, err := New(Config{Shards: []string{full.URL}}); err == nil ||
		!strings.Contains(err.Error(), "not in shard mode") {
		t.Fatalf("full-catalog backend accepted as shard: %v", err)
	}

	gapA := httptest.NewServer(serve.NewHTTP(serve.New(m, serve.WithItemRange(0, 100)), nil).Handler())
	defer gapA.Close()
	gapB := httptest.NewServer(serve.NewHTTP(serve.New(m, serve.WithItemRange(120, 270)), nil).Handler())
	defer gapB.Close()
	if _, err := New(Config{Shards: []string{gapA.URL, gapB.URL}}); err == nil ||
		!strings.Contains(err.Error(), "tile") {
		t.Fatalf("gapped topology accepted: %v", err)
	}

	short := httptest.NewServer(serve.NewHTTP(serve.New(m, serve.WithItemRange(0, 200)), nil).Handler())
	defer short.Close()
	if _, err := New(Config{Shards: []string{short.URL}}); err == nil ||
		!strings.Contains(err.Error(), "catalog") {
		t.Fatalf("undersized topology accepted: %v", err)
	}
}

package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/infer"
	"repro/internal/model"
	"repro/internal/vecmath"
)

func postJSON(t *testing.T, client *http.Client, url, body string) (*http.Response, api.RecommendResponse) {
	t.Helper()
	resp, err := client.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out api.RecommendResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func TestHTTPEndpoints(t *testing.T) {
	m, data := trainedModel(t)
	s := New(m)
	h := NewHTTP(s, nil)
	ts := httptest.NewServer(h.Handler())
	defer ts.Close()

	// user recommendations match the in-process path
	resp, out := postJSON(t, ts.Client(), ts.URL+"/v1/recommend", `{"user":3,"k":5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("user: status %d", resp.StatusCode)
	}
	want, err := s.Recommend(Request{User: 3, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != 5 {
		t.Fatalf("user: got %d items", len(out.Items))
	}
	for i := range want {
		if out.Items[i].Item != want[i].ID || out.Items[i].Score != want[i].Score {
			t.Fatalf("user rank %d: %+v vs %+v", i, out.Items[i], want[i])
		}
	}

	// recent baskets round-trip through JSON
	recent, _ := json.Marshal(data.Users[3].Baskets)
	resp, out = postJSON(t, ts.Client(), ts.URL+"/v1/recommend",
		fmt.Sprintf(`{"user":3,"recent":%s,"k":4}`, recent))
	if resp.StatusCode != http.StatusOK || len(out.Items) != 4 {
		t.Fatalf("user+recent: status %d items %d", resp.StatusCode, len(out.Items))
	}

	// user -1 is a session request, ranked on the recent baskets alone
	resp, out = postJSON(t, ts.Client(), ts.URL+"/v1/recommend", `{"user":-1,"recent":[[7]],"k":5}`)
	if resp.StatusCode != http.StatusOK || len(out.Items) != 5 {
		t.Fatalf("session: status %d items %d", resp.StatusCode, len(out.Items))
	}

	// full-keep cascade equals the naive user ranking
	resp, out = postJSON(t, ts.Client(), ts.URL+"/v1/recommend", `{"user":3,"k":5,"strategy":"cascade","keep":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cascade: status %d", resp.StatusCode)
	}
	for i := range want {
		if out.Items[i].Item != want[i].ID {
			t.Fatalf("cascade rank %d: %d vs %d", i, out.Items[i].Item, want[i].ID)
		}
	}

	// diversified respects the quota
	resp, out = postJSON(t, ts.Client(), ts.URL+"/v1/recommend", `{"user":3,"k":5,"strategy":"diversified","max_per_category":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diversified: status %d", resp.StatusCode)
	}
	seen := map[int]bool{}
	for _, it := range out.Items {
		cat := m.Tree.AncestorAtDepth(m.Tree.ItemNode(it.Item), m.Tree.Depth()-1)
		if seen[cat] {
			t.Fatal("diversified repeated a category")
		}
		seen[cat] = true
	}
}

// The per-shape routes retired in favour of POST /v1/recommend answer the
// same typed 404 envelope as any unknown path, and count nowhere.
func TestHTTPRetiredRoutesNotFound(t *testing.T) {
	m, _ := trainedModel(t)
	h := NewHTTP(New(m), nil)
	ts := httptest.NewServer(h.Handler())
	defer ts.Close()

	for _, shape := range []string{"user", "session", "cascade", "diversified"} {
		resp, err := ts.Client().Post(ts.URL+"/v1/recommend/"+shape, "application/json",
			bytes.NewReader([]byte(`{"user":3,"k":5}`)))
		if err != nil {
			t.Fatal(err)
		}
		var eb api.ErrorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusNotFound || eb.Err.Code != api.CodeNotFound {
			t.Fatalf("%s: status %d, envelope %+v (%v), want 404 not_found", shape, resp.StatusCode, eb, err)
		}
	}
	if h.plans.Load() != 0 || h.errors.Load() != 0 {
		t.Fatalf("retired routes moved the counters: plan %d, errors %d", h.plans.Load(), h.errors.Load())
	}
}

func TestHTTPErrors(t *testing.T) {
	m, _ := trainedModel(t)
	h := NewHTTP(New(m), nil)
	ts := httptest.NewServer(h.Handler())
	defer ts.Close()

	for name, probe := range map[string]struct{ path, body string }{
		"bad json":       {"/v1/recommend", `{"user":`},
		"bad user":       {"/v1/recommend", `{"user":99999,"k":5}`},
		"zero k":         {"/v1/recommend", `{"user":1}`},
		"cascade nokeep": {"/v1/recommend", `{"user":1,"k":5,"strategy":"cascade"}`},
		"div noquota":    {"/v1/recommend", `{"user":1,"k":5,"strategy":"diversified"}`},
	} {
		resp, _ := postJSON(t, ts.Client(), ts.URL+probe.path, probe.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	var st statsResponse
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Served.Errors != 5 {
		t.Fatalf("errors counter = %d, want 5", st.Served.Errors)
	}
}

func TestHTTPStats(t *testing.T) {
	m, _ := trainedModel(t)
	h := NewHTTP(New(m), nil)
	ts := httptest.NewServer(h.Handler())
	defer ts.Close()

	postJSON(t, ts.Client(), ts.URL+"/v1/recommend", `{"user":1,"k":3}`)
	postJSON(t, ts.Client(), ts.URL+"/v1/recommend", `{"user":-1,"recent":[[2]],"k":3}`)

	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Model.Items != m.Tree.NumItems() || st.Model.K != m.P.K || st.Model.Depth != m.Tree.Depth() {
		t.Fatalf("stats model block wrong: %+v", st.Model)
	}
	if st.Served.Plan != 2 {
		t.Fatalf("stats counters wrong: %+v", st.Served)
	}
	// the kernels section must mirror the process-wide vecmath dispatch
	ks := vecmath.Kernels()
	if st.Inference.Kernels.Arch != ks.Arch {
		t.Fatalf("stats kernels arch = %q, want %q", st.Inference.Kernels.Arch, ks.Arch)
	}
	if len(st.Inference.Kernels.Ops) == 0 {
		t.Fatalf("stats kernels ops missing: %+v", st.Inference.Kernels)
	}
	for op, impl := range ks.Ops {
		if st.Inference.Kernels.Ops[op] != impl {
			t.Fatalf("stats kernels op %s = %q, want %q", op, st.Inference.Kernels.Ops[op], impl)
		}
	}

	if resp, err := ts.Client().Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
}

// TestHTTPHotSwap hammers the service with requests while the model is
// hot-swapped via Reload: no request may fail or observe a torn snapshot.
func TestHTTPHotSwap(t *testing.T) {
	m, data := trainedModel(t)
	s := New(m)
	reloaded := 0
	h := NewHTTP(s, func() (*model.TF, error) {
		reloaded++
		return m, nil
	})
	ts := httptest.NewServer(h.Handler())
	defer ts.Close()

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
				body := fmt.Sprintf(`{"user":%d,"k":3}`, (w*13+i)%data.NumUsers())
				resp, err := ts.Client().Post(ts.URL+"/v1/recommend", "application/json", bytes.NewReader([]byte(body)))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("in-flight request failed during hot swap: %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 10; i++ {
		if err := h.Reload(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if reloaded != 10 || h.reloads.Load() != 10 {
		t.Fatalf("reloads = %d / counter %d, want 10", reloaded, h.reloads.Load())
	}

	// a reload source failure must not disturb the serving snapshot
	h2 := NewHTTP(s, func() (*model.TF, error) { return nil, fmt.Errorf("boom") })
	if err := h2.Reload(); err == nil {
		t.Fatal("expected reload error")
	}
	if _, err := s.Recommend(Request{User: 0, K: 3}); err != nil {
		t.Fatal(err)
	}
}

// Concurrent requests to a pooled server must each answer exactly the
// bytes the serial server answers for that body, whatever shape it has
// and whatever else is in flight; /v1/stats reports the pool.
func TestHTTPConcurrentMatchesSerial(t *testing.T) {
	m, data := trainedModel(t)
	serial := New(m, WithHistory(data))
	s := New(m, WithHistory(data), WithWorkers(3))
	defer s.Close()
	s.Snapshot().Index.SetShardItems(37) // force many shards on the tiny catalog
	sts := httptest.NewServer(NewHTTP(serial, nil).Handler())
	defer sts.Close()
	ts := httptest.NewServer(NewHTTP(s, nil).Handler())
	defer ts.Close()

	bodies := []string{
		`{"user":3,"k":5}`,
		`{"user":4,"k":6,"offset":3}`,
		`{"user":-1,"recent":[[7]],"k":5}`,
		`{"user":5,"k":4,"exclude_purchased":true}`,
		`{"user":6,"k":4,"pruned":true}`,
		`{"user":3,"k":5,"strategy":"cascade","keep":0.6}`,
		`{"user":3,"k":4,"strategy":"diversified","max_per_category":1}`,
		`{"user":999999,"k":5}`,
	}
	want := make([][]byte, len(bodies))
	for i, body := range bodies {
		_, want[i] = postRaw(t, sts.Client(), sts.URL+"/v1/recommend", body)
	}
	const rounds = 4
	got := make([][]byte, rounds*len(bodies))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, got[i] = postRaw(t, ts.Client(), ts.URL+"/v1/recommend", bodies[i%len(bodies)])
		}()
	}
	wg.Wait()
	for i := range got {
		if w := want[i%len(bodies)]; !bytes.Equal(got[i], w) {
			t.Fatalf("%s: concurrent answer diverged from serial\ngot  %s\nwant %s", bodies[i%len(bodies)], got[i], w)
		}
	}

	st, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(st.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Inference.PoolWorkers != 3 {
		t.Fatalf("stats.Inference = %+v, want 3 pool workers", stats.Inference)
	}
}

// knobQuery is the query string of one ?precision= × ?workers= cell; an
// empty value leaves its parameter out.
func knobQuery(prec, workers string) string {
	var params []string
	if prec != "" {
		params = append(params, "precision="+prec)
	}
	if workers != "" {
		params = append(params, "workers="+workers)
	}
	if len(params) == 0 {
		return ""
	}
	return "?" + strings.Join(params, "&")
}

// The execution knobs are validated and otherwise ignored: every
// ?precision= × ?workers= cell answers the default request's bytes, whose
// items are infer's exact f64 plan, on a serial server and on a pooled
// one; a malformed value answers the 400 envelope it always has
// (workers is checked first). /v1/stats reports the host's tier.
func TestHTTPExecutionKnobs(t *testing.T) {
	m, _ := trainedModel(t)
	serial := New(m)
	pooled := New(m, WithWorkers(3))
	defer pooled.Close()

	const body = `{"user":3,"k":8}`
	c := serial.Snapshot()
	q := make([]float64, c.K())
	c.BuildQueryInto(3, nil, q)
	ref, err := infer.Execute(context.Background(), c, q, infer.Plan{K: 8, Precision: model.PrecisionF64})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]api.Item, len(ref.Items))
	for i, it := range ref.Items {
		want[i] = api.Item{Item: it.ID, Score: it.Score}
	}
	const (
		badWorkers   = `{"error":{"code":"bad_request","message":"bad workers parameter \"-1\""}}` + "\n"
		badPrecision = `{"error":{"code":"bad_request","message":"bad precision parameter \"bogus\" (want f32, f64 or int8)"}}` + "\n"
	)
	platform := "f64"
	if vecmath.SIMDEnabled() {
		platform = "int8"
	}

	for _, srv := range []struct {
		name string
		s    *Server
	}{{"serial", serial}, {"pooled", pooled}} {
		h := NewHTTP(srv.s, nil)
		ts := httptest.NewServer(h.Handler())
		code, defBody := postRaw(t, ts.Client(), ts.URL+"/v1/recommend", body)
		var out api.RecommendResponse
		if err := json.Unmarshal(defBody, &out); code != http.StatusOK || err != nil {
			t.Fatalf("%s: default request answered %d: %s", srv.name, code, defBody)
		}
		if !reflect.DeepEqual(out.Items, want) {
			t.Fatalf("%s: ranking is not infer's exact f64 plan:\ngot  %+v\nwant %+v", srv.name, out.Items, want)
		}
		for _, prec := range []string{"", "f32", "f64", "int8", "bogus"} {
			for _, workers := range []string{"", "0", "1", "3", "-1"} {
				query := knobQuery(prec, workers)
				wantCode, wantBody := http.StatusOK, string(defBody)
				switch {
				case workers == "-1":
					wantCode, wantBody = http.StatusBadRequest, badWorkers
				case prec == "bogus":
					wantCode, wantBody = http.StatusBadRequest, badPrecision
				}
				code, got := postRaw(t, ts.Client(), ts.URL+"/v1/recommend"+query, body)
				if code != wantCode || string(got) != wantBody {
					t.Errorf("%s %s: %d %s\nwant %d %s", srv.name, query, code, got, wantCode, wantBody)
				}
			}
		}

		var stats statsResponse
		resp, err := ts.Client().Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&stats)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := stats.Inference.Precision; got != platform {
			t.Errorf("%s: stats precision %q on %s, want the platform tier %s", srv.name, got, vecmath.KernelsID(), platform)
		}
		if stats.Inference.F32Escalations < 0 || stats.Inference.I8Escalations < 0 {
			t.Errorf("%s: negative escalation counter", srv.name)
		}
		ts.Close()
	}
}

// patchMetaPrecision returns a copy of a v4 model file whose meta section
// records precision word p, as older writers did, with the meta
// section's and the section table's CRC-32C fixed up. Layout (see
// internal/model/format4.go): a 32-byte header holding the section count
// at 12 and the table CRC at 24, then 24-byte table entries {id, crc,
// off, len}; the meta section has id 1 and the precision is its tenth
// u64.
func patchMetaPrecision(t *testing.T, raw []byte, p uint64) []byte {
	t.Helper()
	out := bytes.Clone(raw)
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	count := int(binary.LittleEndian.Uint32(out[12:]))
	table := out[32 : 32+24*count]
	for i := 0; i < count; i++ {
		e := table[24*i:]
		if binary.LittleEndian.Uint32(e) != 1 {
			continue
		}
		off, n := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
		meta := out[off : off+n]
		binary.LittleEndian.PutUint64(meta[9*8:], p)
		binary.LittleEndian.PutUint32(e[4:], crc32.Checksum(meta, castagnoli))
		binary.LittleEndian.PutUint32(out[24:], crc32.Checksum(table, castagnoli))
		return out
	}
	t.Fatal("no meta section in the model file")
	return nil
}

// A v4 file recording an f32 preference loads and is served at the
// host's tier with the bytes of a file recording none; /v1/stats reports
// that tier. A word above int8 is still rejected at load.
func TestRecordedPrecisionIgnored(t *testing.T) {
	m, _ := trainedModel(t)
	dir := t.TempDir()
	plain := saveV4File(t, m, dir, "plain.tfrec")
	raw, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	patched := filepath.Join(dir, "f32.tfrec")
	// word 1 is the retired f32 tier's
	if err := os.WriteFile(patched, patchMetaPrecision(t, raw, 1), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.tfrec")
	if err := os.WriteFile(bad, patchMetaPrecision(t, raw, uint64(model.PrecisionInt8)+1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := model.LoadFile(bad); err == nil || !strings.Contains(err.Error(), "unknown precision") {
		t.Fatalf("precision word above int8: LoadFile error %v, want unknown precision", err)
	}

	serveFile := func(path string) ([]byte, string) {
		sn, err := model.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSnapshot(sn)
		defer s.Close()
		ts := httptest.NewServer(NewHTTP(s, nil).Handler())
		defer ts.Close()
		code, body := postRaw(t, ts.Client(), ts.URL+"/v1/recommend", `{"user":3,"k":8}`)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, code, body)
		}
		resp, err := ts.Client().Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var stats statsResponse
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		return body, stats.Inference.Precision
	}
	wantBody, _ := serveFile(plain)
	body, prec := serveFile(patched)
	if !bytes.Equal(body, wantBody) {
		t.Fatalf("f32-recording file served different bytes:\n%s\nwant\n%s", body, wantBody)
	}
	if want := model.PrecisionDefault.Resolve().String(); prec != want {
		t.Fatalf("f32-recording file: stats precision %q on %s, want the host tier %q", prec, vecmath.KernelsID(), want)
	}
}

// "f32" names the retired float32 tier. It still parses, so a client
// that sends ?precision=f32 gets the exact bytes of the same request sent
// without the parameter, and /v1/stats keeps reporting f32_escalations,
// which reads 0.
func TestF32SpellingServesHostTier(t *testing.T) {
	m, _ := trainedModel(t)
	s := New(m)
	defer s.Close()
	ts := httptest.NewServer(NewHTTP(s, nil).Handler())
	defer ts.Close()
	for _, body := range []string{`{"user":3,"k":8}`, `{"user":5,"k":4,"offset":2,"pruned":true}`} {
		code, want := postRaw(t, ts.Client(), ts.URL+"/v1/recommend", body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, code, want)
		}
		code, got := postRaw(t, ts.Client(), ts.URL+"/v1/recommend?precision=f32", body)
		if code != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("%s ?precision=f32: %d %s\nwant 200 %s", body, code, got, want)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw struct {
		Inference map[string]json.RawMessage `json:"inference"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if got := string(raw.Inference["f32_escalations"]); got != "0" {
		t.Fatalf("stats inference.f32_escalations = %q, want 0", got)
	}
}

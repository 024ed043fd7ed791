package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/model"
	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

// A diversified request whose ranking is led by a few categories must
// re-fetch its ranked prefix, and /v1/stats must show the re-fetch
// counter move — the outside view of why such a request cost extra
// sweeps.
func TestHTTPDiversifyRefetchesCounted(t *testing.T) {
	tree := taxonomy.MustGenerate(taxonomy.GenConfig{
		CategoryLevels: []int{4, 16, 64},
		Items:          2000,
		Skew:           0.4,
	}, vecmath.NewRNG(17))
	m, err := model.New(tree, 4, model.Params{K: 8, TaxonomyLevels: 4, InitStd: 0.3, Alpha: 1, UseBias: true}, vecmath.NewRNG(19))
	if err != nil {
		t.Fatal(err)
	}
	// every item under the first depth-2 category outscores the rest, so a
	// depth-2 quota of 1 skips a few hundred items before its second pick
	m.Bias.Row(int(tree.Level(2)[0]))[0] = 50
	ts := httptest.NewServer(NewHTTP(New(m), nil).Handler())
	defer ts.Close()

	refetches := func() int64 {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st statsResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.Inference.DiversifyRefetches
	}
	before := refetches()
	resp, out := postJSON(t, ts.Client(), ts.URL+"/v1/recommend",
		`{"user":1,"k":5,"strategy":"diversified","max_per_category":1,"cat_depth":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out.Items) != 5 {
		t.Fatalf("got %d items, want 5", len(out.Items))
	}
	if after := refetches(); after <= before {
		t.Fatalf("diversify_refetches %d -> %d, want it to move", before, after)
	}
}

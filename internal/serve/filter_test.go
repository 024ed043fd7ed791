package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/infer"
)

// Exclude-purchased must drop exactly the user's history and the
// request's recent baskets, and still return K items.
func TestServerExcludePurchased(t *testing.T) {
	m, data := trainedModel(t)
	s := New(m, WithHistory(data))
	user := 3
	recent := data.Users[user].Baskets
	got, err := s.Recommend(Request{User: user, Recent: recent, K: 5, ExcludePurchased: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %d items, want 5 (filters apply before the heap)", len(got))
	}
	bought := data.Users[user].ItemSet()
	for _, it := range got {
		if _, ok := bought[int32(it.ID)]; ok {
			t.Fatalf("item %d was already purchased by user %d", it.ID, user)
		}
	}
	// the filtered ranking is the unfiltered ranking minus purchased items
	full, err := s.Recommend(Request{User: user, Recent: recent, K: m.NumItems()})
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for _, it := range full {
		if _, ok := bought[int32(it.ID)]; !ok {
			want = append(want, it.ID)
			if len(want) == 5 {
				break
			}
		}
	}
	for i := range got {
		if got[i].ID != want[i] {
			t.Fatalf("rank %d: got %d, want %d", i, got[i].ID, want[i])
		}
	}
	// without WithHistory only the recent baskets are known
	s2 := New(m)
	got2, err := s2.Recommend(Request{User: user, Recent: recent, K: 5, ExcludePurchased: true})
	if err != nil {
		t.Fatal(err)
	}
	recentSet := map[int]bool{}
	for _, b := range recent {
		for _, it := range b {
			recentSet[int(it)] = true
		}
	}
	for _, it := range got2 {
		if recentSet[it.ID] {
			t.Fatalf("recent item %d leaked through the filter", it.ID)
		}
	}
}

// Category allow/deny lists must restrict results to the requested
// subtrees across every strategy.
func TestServerCategoryFilter(t *testing.T) {
	m, _ := trainedModel(t)
	s := New(m)
	tree := m.Tree
	allow := int(tree.Level(1)[0])
	for name, req := range map[string]Request{
		"naive":       {User: 0, K: 4, Categories: []int32{int32(allow)}},
		"diversified": {User: 0, K: 4, MaxPerCategory: 2, Categories: []int32{int32(allow)}},
		"cascade": {User: 0, K: 4, Categories: []int32{int32(allow)},
			Cascade: &infer.CascadeConfig{KeepFrac: []float64{1, 1, 1}}},
	} {
		items, err := s.Recommend(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(items) == 0 {
			t.Fatalf("%s: empty result", name)
		}
		for _, it := range items {
			if tree.AncestorAtDepth(tree.ItemNode(it.ID), 1) != allow {
				t.Fatalf("%s: item %d outside allowed subtree %d", name, it.ID, allow)
			}
		}
	}
	// denying the allowed subtree of a category-constrained request
	// leaves nothing
	items, err := s.Recommend(Request{User: 0, K: 4,
		Categories: []int32{int32(allow)}, ExcludeCategories: []int32{int32(allow)}})
	if err != nil || len(items) != 0 {
		t.Fatalf("allow∩deny: %d items, err %v", len(items), err)
	}
}

// Offset pagination must tile the full ranking without gaps or overlaps.
func TestServerOffsetPagination(t *testing.T) {
	m, _ := trainedModel(t)
	s := New(m)
	full, err := s.Recommend(Request{User: 1, K: 15})
	if err != nil {
		t.Fatal(err)
	}
	var paged []int
	for off := 0; off < 15; off += 5 {
		page, err := s.Recommend(Request{User: 1, K: 5, Offset: off})
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range page {
			paged = append(paged, it.ID)
		}
	}
	if len(paged) != len(full) {
		t.Fatalf("pages cover %d items, full ranking %d", len(paged), len(full))
	}
	for i := range full {
		if full[i].ID != paged[i] {
			t.Fatalf("rank %d: paged %d, full %d", i, paged[i], full[i].ID)
		}
	}
}

// Every boundary rejection must be a typed *RequestError — the contract
// the HTTP 400 mapping stands on.
func TestServerBoundaryValidation(t *testing.T) {
	m, _ := trainedModel(t)
	s := New(m)
	for name, req := range map[string]Request{
		"zero k":          {User: 1, K: 0},
		"negative k":      {User: 1, K: -3},
		"k over catalog":  {User: 1, K: m.NumItems() + 1},
		"negative offset": {User: 1, K: 5, Offset: -1},
		"bad user":        {User: 99999, K: 5},
		"bad recent item": {User: 1, K: 5, Recent: []dataset.Basket{{int32(m.NumItems())}}},
		"bad category":    {User: 1, K: 5, Categories: []int32{int32(m.Tree.NumNodes())}},
		"bad ex category": {User: 1, K: 5, ExcludeCategories: []int32{-1}},
		"bad keep frac":   {User: 1, K: 5, Cascade: &infer.CascadeConfig{KeepFrac: []float64{0.5}}},
		"bad cat depth":   {User: 1, K: 5, MaxPerCategory: 1, CatDepth: 99},
	} {
		_, err := s.Recommend(req)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		var reqErr *RequestError
		if !errors.As(err, &reqErr) {
			t.Errorf("%s: error %v is not a *RequestError", name, err)
		}
	}
}

// The HTTP layer must honor the filter knobs as query parameters and JSON
// fields, reject malformed values with 400s, serve the unified plan
// endpoint, and report filter usage in /v1/stats.
func TestHTTPFilterParamsAndPlanEndpoint(t *testing.T) {
	m, data := trainedModel(t)
	s := New(m, WithHistory(data))
	h := NewHTTP(s, nil)
	ts := httptest.NewServer(h.Handler())
	defer ts.Close()

	// exclude_purchased as a query parameter
	resp, out := postJSON(t, ts.Client(), ts.URL+"/v1/recommend?exclude_purchased=true", `{"user":3,"k":5}`)
	if resp.StatusCode != http.StatusOK || len(out.Items) != 5 {
		t.Fatalf("exclude_purchased: status %d items %d", resp.StatusCode, len(out.Items))
	}
	bought := data.Users[3].ItemSet()
	for _, it := range out.Items {
		if _, ok := bought[int32(it.Item)]; ok {
			t.Fatalf("purchased item %d served", it.Item)
		}
	}

	// category constraint via parameter, offset via JSON
	allow := int(m.Tree.Level(1)[1])
	resp, out = postJSON(t, ts.Client(),
		fmt.Sprintf("%s/v1/recommend?category=%d", ts.URL, allow), `{"user":3,"k":3,"offset":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("category param: status %d", resp.StatusCode)
	}
	for _, it := range out.Items {
		if m.Tree.AncestorAtDepth(m.Tree.ItemNode(it.Item), 1) != allow {
			t.Fatalf("item %d outside category %d", it.Item, allow)
		}
	}

	// unified plan endpoint: every strategy spelling
	for _, body := range []string{
		`{"user":3,"k":4}`,
		`{"user":3,"k":4,"strategy":"naive","exclude_purchased":true}`,
		`{"user":3,"k":4,"strategy":"cascade","keep":0.5}`,
		`{"user":3,"k":4,"strategy":"diversified","max_per_category":1}`,
	} {
		resp, out := postJSON(t, ts.Client(), ts.URL+"/v1/recommend", body)
		if resp.StatusCode != http.StatusOK || len(out.Items) == 0 {
			t.Fatalf("plan endpoint %s: status %d items %d", body, resp.StatusCode, len(out.Items))
		}
	}

	// malformed values are client errors
	for name, probe := range map[string]string{
		"bad strategy":        "/v1/recommend",
		"bad offset param":    "/v1/recommend?offset=-2",
		"bad category param":  "/v1/recommend?category=1,x",
		"bad exclude param":   "/v1/recommend?exclude_purchased=maybe",
		"offset in body":      "/v1/recommend",
		"category over range": "/v1/recommend?category=99999",
	} {
		body := `{"user":3,"k":5}`
		switch name {
		case "bad strategy":
			body = `{"user":3,"k":5,"strategy":"bogus"}`
		case "offset in body":
			body = `{"user":3,"k":5,"offset":-4}`
		}
		resp, err := ts.Client().Post(ts.URL+probe, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	// filter usage counters surface in /v1/stats
	st, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(st.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Inference.Filters.ExcludePurchased < 2 || stats.Inference.Filters.Category < 1 || stats.Inference.Filters.Paged < 1 {
		t.Fatalf("filter counters never moved: %+v", stats.Inference.Filters)
	}
	// every successful request above counts once, whatever its strategy
	if stats.Served.Plan != 6 {
		t.Fatalf("plan endpoint counter = %d, want 6", stats.Served.Plan)
	}
}

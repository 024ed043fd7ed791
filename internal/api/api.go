// Package api holds the canonical wire types of the serving stack: the
// JSON request, response, error and stats shapes spoken on the HTTP
// boundary. Exactly one definition of each shape exists — internal/serve
// renders and parses them, internal/router forwards, merges and
// re-emits them, and the CLIs (tfrec-loadgen, tfrec-recommend) build and
// decode them — so a field added here is the wire contract everywhere at
// once, and docs/API.md is checked against these declarations by
// internal/api/doc_test.go.
//
// The package is deliberately a leaf: wire shapes only, no serving
// logic, no model types. Scores travel as JSON float64 and Go's encoder
// writes the shortest round-tripping decimal form, so a ranking that is
// byte-identical in memory is byte-identical on the wire — the property
// the scatter-gather router's merge depends on.
package api

// Endpoint names a recommend route. There is exactly one,
// EndpointUnified; its Path is the single declaration of the route
// string that tfrec-serve and tfrec-router register and clients post to.
type Endpoint int

// EndpointUnified is POST /v1/recommend — every recommend request, of
// every strategy, goes through it.
const EndpointUnified Endpoint = 0

// Path returns the endpoint's route.
func (e Endpoint) Path() string { return "/v1/recommend" }

// RecommendRequest is the JSON body of POST /v1/recommend; Strategy picks
// the ranking shape.
type RecommendRequest struct {
	// User is the subject's id; -1 marks a session request (no known
	// user; the ranking runs on the Recent baskets alone).
	User int `json:"user"`
	// Recent lists the subject's latest baskets most-recent first; it
	// drives the short-term Markov term.
	Recent [][]int32 `json:"recent,omitempty"`
	// K is the number of items returned (after filters and Offset).
	K int `json:"k"`
	// Strategy picks the ranking shape: "" or "naive", "cascade",
	// "diversified".
	Strategy string `json:"strategy,omitempty"`
	// KeepFrac lists per-level cascade keep fractions; Keep is the
	// uniform shorthand. One of them is required for cascade requests.
	KeepFrac []float64 `json:"keep_frac,omitempty"`
	Keep     float64   `json:"keep,omitempty"`
	// MaxPerCategory caps how many items one category may place in a
	// diversified result; CatDepth picks the quota level (0 = the lowest
	// category level).
	MaxPerCategory int `json:"max_per_category,omitempty"`
	CatDepth       int `json:"cat_depth,omitempty"`
	// ExcludePurchased drops items the user is known to have bought.
	ExcludePurchased bool `json:"exclude_purchased,omitempty"`
	// Categories restricts results to items under these taxonomy nodes
	// (union); ExcludeCategories removes items under its nodes.
	Categories        []int32 `json:"categories,omitempty"`
	ExcludeCategories []int32 `json:"exclude_categories,omitempty"`
	// Offset skips the first Offset ranked items (pagination).
	Offset int `json:"offset,omitempty"`
	// Pruned is parsed and ignored: every naive sweep is the exact
	// category sweep.
	Pruned bool `json:"pruned,omitempty"`
}

// Item is one ranked entry of a recommend response. Category is present
// only on diversified rankings: the taxonomy node the item's quota was
// charged to, which the scatter-gather router needs to re-apply the
// per-category quota merge across shards (node 0 is the taxonomy root
// and never a quota category, so omitempty is unambiguous).
type Item struct {
	Item     int     `json:"item"`
	Score    float64 `json:"score"`
	Category int32   `json:"category,omitempty"`
}

// RecommendResponse is the success body of a recommend request.
type RecommendResponse struct {
	// Items is the ranked page, best first.
	Items []Item `json:"items"`
	// Epoch is the serving snapshot generation the ranking was computed
	// on (a router reports the minimum across the shards it merged).
	Epoch uint64 `json:"epoch"`
	// ModelID fingerprints the model content behind the ranking; a
	// router refuses to merge shard responses whose ModelIDs differ, so
	// a mid-reload topology never mixes snapshots.
	ModelID string `json:"model_id,omitempty"`
	// Degraded reports that one or more shards were unavailable and the
	// ranking covers only the reachable part of the catalog (routers
	// running -degraded partial; a single node never sets it).
	Degraded bool `json:"degraded,omitempty"`
}

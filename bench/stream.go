package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/model"
	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

// scenario is one request of a workload's stream: the wire request as a
// client would send it, pre-encoded so the load generator spends its
// time sending, plus what the harness needs to re-derive the answer.
type scenario struct {
	// kind names the mix entry that produced the request.
	kind string
	req  api.RecommendRequest
	// prec is the ?precision= override (PrecisionDefault = none sent).
	prec  model.Precision
	body  []byte
	query string // raw query string, "" when no parameter is sent
}

// planKind names the executor path a scenario takes; per-layer execute
// times are reported under it.
func (sc *scenario) planKind() string {
	switch {
	case sc.req.Strategy == "cascade":
		return "cascade"
	case sc.req.Strategy == "diversified":
		return "diversified"
	case sc.req.Pruned:
		return "pruned"
	case sc.req.ExcludePurchased || len(sc.req.Categories) > 0 || len(sc.req.ExcludeCategories) > 0:
		return "filtered"
	case sc.req.User == -1:
		return "session"
	case sc.req.Offset > 0:
		return "paged"
	case sc.prec == model.PrecisionInt8:
		return "dense_i8"
	case sc.prec == model.PrecisionF64:
		return "dense_f64"
	default:
		return "dense_f32"
	}
}

// planKinds lists every planKind, in report order.
var planKinds = []string{
	"dense_f32", "dense_i8", "dense_f64", "paged", "session",
	"pruned", "filtered", "cascade", "diversified",
}

// aliasKey is the identity the serving result cache keys on: everything
// that changes the ranking and nothing that only changes how it is
// computed (precision, pruned). Two scenarios with equal aliasKeys would
// turn the second one's sweep into a cache hit.
func (sc *scenario) aliasKey() string {
	var b strings.Builder
	r := &sc.req
	fmt.Fprintf(&b, "u%d|k%d|o%d|%v|%s|%g|%d@%d|%v", r.User, r.K, r.Offset, r.Recent,
		r.Strategy, r.Keep, r.MaxPerCategory, r.CatDepth, r.ExcludePurchased)
	for _, ids := range [][]int32{r.Categories, r.ExcludeCategories} {
		s := slices.Clone(ids)
		slices.Sort(s)
		fmt.Fprintf(&b, "|%v", s)
	}
	return b.String()
}

// recent converts the wire baskets to the model's type.
func (sc *scenario) recent() []dataset.Basket {
	out := make([]dataset.Basket, len(sc.req.Recent))
	for i, b := range sc.req.Recent {
		out[i] = dataset.Basket(b)
	}
	return out
}

// plan is the infer.Plan the harness derives from its own scenario — the
// same translation serve does, written independently so the replay does
// not depend on serve's. purchased lists the user's recorded items (nil
// without a log). A positive hi scopes the plan to the shard range
// [lo, hi) and applies the router's rewrite: the shard is asked for the
// whole pre-pagination heap.
func (sc *scenario) plan(c *model.Composed, purchased []int32, lo, hi int) infer.Plan {
	r := &sc.req
	pl := infer.Plan{K: r.K, Offset: r.Offset, Precision: sc.prec, Pruned: r.Pruned}
	if hi > lo {
		pl.K, pl.Offset = r.K+r.Offset, 0
	}
	if r.ExcludePurchased || len(r.Categories) > 0 || len(r.ExcludeCategories) > 0 || hi > lo {
		f := &infer.Filter{AllowNodes: r.Categories, DenyNodes: r.ExcludeCategories, RangeLo: lo, RangeHi: hi}
		if r.ExcludePurchased {
			f.ExcludeItems = append(f.ExcludeItems, purchased...)
			for _, b := range r.Recent {
				f.ExcludeItems = append(f.ExcludeItems, b...)
			}
		}
		pl.Filter = f
	}
	switch r.Strategy {
	case "cascade":
		pl.Strategy = infer.StrategyCascade
		cfg := infer.UniformCascade(c.Tree.Depth(), r.Keep)
		pl.Cascade = &cfg
		pl.Pruned = false
	case "diversified":
		pl.Strategy = infer.StrategyDiversified
		pl.Diversify = &infer.Diversify{MaxPerCategory: r.MaxPerCategory, CatDepth: r.CatDepth}
		pl.Pruned = false
	}
	return pl
}

// mixEntry is one weighted request shape of a traffic mix. fill
// completes a scenario whose User and K are already set.
type mixEntry struct {
	kind   string
	weight int
	fill   func(g *streamGen, sc *scenario)
}

// pageK is the page size every request asks for.
const pageK = 10

// denseMix is node_dense's traffic: full-catalog sweeps at the three
// precisions, a deeper page, and the two Markov query shapes.
var denseMix = []mixEntry{
	{"naive_f32", 50, func(g *streamGen, sc *scenario) {}},
	{"naive_i8", 15, func(g *streamGen, sc *scenario) { sc.prec = model.PrecisionInt8 }},
	{"naive_f64", 5, func(g *streamGen, sc *scenario) { sc.prec = model.PrecisionF64 }},
	{"paged", 10, func(g *streamGen, sc *scenario) { sc.req.Offset = 20 }},
	{"session", 10, func(g *streamGen, sc *scenario) { sc.req.User = -1; sc.req.Recent = g.baskets(2) }},
	{"recent", 10, func(g *streamGen, sc *scenario) { sc.req.Recent = g.baskets(2) }},
}

// hotMix is node_hot's traffic: the one shape a result cache can serve.
var hotMix = []mixEntry{
	{"naive_f32", 1, func(g *streamGen, sc *scenario) {}},
}

// taxoMix is router3_taxo's traffic: every plan whose cost depends on
// the taxonomy.
var taxoMix = []mixEntry{
	{"pruned", 35, func(g *streamGen, sc *scenario) { sc.req.Pruned = true }},
	{"allow", 15, func(g *streamGen, sc *scenario) { sc.req.Categories = g.nodes(2, 1+g.rng.Intn(3)) }},
	{"deny", 10, func(g *streamGen, sc *scenario) { sc.req.ExcludeCategories = g.nodes(1, 1) }},
	{"exclude_purchased", 10, func(g *streamGen, sc *scenario) { sc.req.ExcludePurchased = true }},
	{"pruned_paged", 10, func(g *streamGen, sc *scenario) { sc.req.Pruned = true; sc.req.Offset = 20 }},
	{"diversified", 10, func(g *streamGen, sc *scenario) { sc.req.Strategy = "diversified"; sc.req.MaxPerCategory = 2 }},
	{"cascade", 10, func(g *streamGen, sc *scenario) { sc.req.Strategy = "cascade"; sc.req.Keep = 0.4 }},
}

// streamGen produces a workload's seeded request stream on demand. The
// sequence is a pure function of (seed, mix, world shape); concurrent
// senders only decide who sends which element.
type streamGen struct {
	mu    sync.Mutex
	rng   *vecmath.RNG
	mix   []mixEntry
	total int
	tree  *taxonomy.Tree
	// users maps a draw to a user id. Without a Zipf sampler the stream
	// walks the permutation cyclically — uniform, and no user recurs
	// within len(users) requests, so a result cache smaller than the user
	// base never sees a key twice. With one, draws are Zipf ranks.
	users  []int
	cursor int
	zipf   *vecmath.Zipf
}

// newStream builds a stream over the world's users. zipfS > 0 draws
// users Zipf(zipfS)-distributed; otherwise without replacement.
func newStream(seed uint64, mix []mixEntry, tree *taxonomy.Tree, numUsers int, zipfS float64) *streamGen {
	g := &streamGen{rng: vecmath.NewRNG(subSeed(seed, 10)), mix: mix, tree: tree}
	for _, m := range mix {
		g.total += m.weight
	}
	g.users = g.rng.Perm(numUsers)
	if zipfS > 0 {
		g.zipf = vecmath.NewZipf(g.rng, numUsers, zipfS)
	}
	return g
}

// baskets draws n random baskets of one or two items.
func (g *streamGen) baskets(n int) [][]int32 {
	out := make([][]int32, n)
	for i := range out {
		b := make([]int32, 1+g.rng.Intn(2))
		for j := range b {
			b[j] = int32(g.rng.Intn(g.tree.NumItems()))
		}
		out[i] = b
	}
	return out
}

// nodes draws n distinct taxonomy nodes of the given depth.
func (g *streamGen) nodes(depth, n int) []int32 {
	level := g.tree.Level(depth)
	if n > len(level) {
		n = len(level)
	}
	out := make([]int32, 0, n)
	for len(out) < n {
		if c := level[g.rng.Intn(len(level))]; !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	return out
}

// next returns the stream's next scenario.
func (g *streamGen) next() *scenario {
	g.mu.Lock()
	defer g.mu.Unlock()
	sc := &scenario{}
	if g.zipf != nil {
		sc.req.User = g.users[g.zipf.Draw()]
	} else {
		sc.req.User = g.users[g.cursor]
		g.cursor = (g.cursor + 1) % len(g.users)
	}
	sc.req.K = pageK
	pick := g.rng.Intn(g.total)
	for i := range g.mix {
		if pick < g.mix[i].weight {
			sc.kind = g.mix[i].kind
			g.mix[i].fill(g, sc)
			break
		}
		pick -= g.mix[i].weight
	}
	body, err := json.Marshal(&sc.req)
	if err != nil {
		panic(err) // a struct of ints and slices always marshals
	}
	sc.body = body
	if sc.prec != model.PrecisionDefault {
		sc.query = "precision=" + sc.prec.String()
	}
	return sc
}

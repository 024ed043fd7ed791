// Package tfrec is a Go implementation of the taxonomy-aware temporal
// latent factor model (TF) of Kanagal, Ahmed, Pandey, Josifovski, Yuan and
// Garcia-Pueyo, "Supercharging Recommender Systems using Taxonomies for
// Learning User Purchase Behavior", PVLDB 5(10), 2012.
//
// TF augments Bayesian-Personalized-Ranking matrix factorization with two
// structural priors: a product taxonomy, whose every node carries a latent
// offset so an item's factor is the sum of the offsets on its path to the
// root, and an order-N Markov chain over a user's previous transactions
// for short-term purchase dynamics. The combination addresses the sparsity
// and cold-start failures of flat factor models and admits a cascaded
// top-down inference that prunes the item space by taxonomy level.
//
// This package is the high-level facade: build or load a taxonomy and a
// purchase log, train a Recommender, and query it. The building blocks
// live in internal/ (model, bpr, train, infer, eval, taxonomy, dataset,
// synth, factors, tsne, experiments) and are exercised directly by the
// benchmark harness that regenerates every figure of the paper's
// evaluation; see DESIGN.md for the map.
package tfrec

import (
	"context"
	"fmt"
	"io"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/infer"
	"repro/internal/model"
	"repro/internal/synth"
	"repro/internal/taxonomy"
	"repro/internal/train"
	"repro/internal/vecmath"
)

// Re-exported core types. The facade aliases the internal types rather
// than wrapping them, so advanced callers lose nothing.
type (
	// Taxonomy is the immutable product tree; leaves are items.
	Taxonomy = taxonomy.Tree
	// TaxonomyConfig shapes a generated taxonomy.
	TaxonomyConfig = taxonomy.GenConfig
	// Dataset is a purchase log: per-user ordered baskets.
	Dataset = dataset.Dataset
	// Basket is the set of items bought in one transaction.
	Basket = dataset.Basket
	// Split is a train/validation/test partition of a Dataset.
	Split = dataset.Split
	// SplitConfig parameterizes the paper's µ-split protocol.
	SplitConfig = dataset.SplitConfig
	// Params are the TF hyper-parameters (K, taxonomyUpdateLevels,
	// maxPrevtransactions, ...).
	Params = model.Params
	// TrainConfig are the SGD settings (epochs, ε, λ, sibling mix,
	// workers, cache threshold).
	TrainConfig = train.Config
	// TrainStats reports per-epoch timings and likelihoods.
	TrainStats = train.Stats
	// EvalConfig controls evaluation (T, category depth, workers).
	EvalConfig = eval.Config
	// EvalResult carries AUC, meanRank, category and cold-start metrics.
	EvalResult = eval.Result
	// CascadeConfig sets the per-level keep fractions of cascaded
	// inference.
	CascadeConfig = infer.CascadeConfig
	// Plan is one fully specified recommendation query: strategy,
	// precision, result page, worker cap and item filter.
	Plan = infer.Plan
	// Filter restricts a plan's eligible items (taxonomy allow/deny
	// lists, explicit exclusions such as already-purchased items).
	Filter = infer.Filter
	// PlanResult is an executed plan's output page plus work stats.
	PlanResult = infer.Result
	// Scored is a ranked (id, score) pair.
	Scored = vecmath.Scored
	// StructuredRanking is a per-taxonomy-level ranking plus top items.
	StructuredRanking = infer.StructuredRanking
	// SynthConfig controls the synthetic purchase-log generator.
	SynthConfig = synth.Config
	// GroundTruth exposes the generator's hidden state for diagnostics.
	GroundTruth = synth.GroundTruth
)

// DefaultParams returns K=20 flat-MF parameters; set TaxonomyLevels to the
// taxonomy depth and MarkovOrder > 0 to enable the TF features.
func DefaultParams() Params { return model.DefaultParams() }

// DefaultTrainConfig returns the harness defaults (30 epochs, ε=0.05,
// λ=0.01, sibling mix 0.5, single worker).
func DefaultTrainConfig() TrainConfig { return train.DefaultConfig() }

// DefaultSplitConfig mirrors the paper's protocol (µ=0.5, σ=0.05, T=1,
// repeat purchases removed from test).
func DefaultSplitConfig() SplitConfig { return dataset.DefaultSplitConfig() }

// DefaultEvalConfig mirrors the paper (first test transaction, top-level
// categories).
func DefaultEvalConfig() EvalConfig { return eval.DefaultConfig() }

// DefaultSynthConfig returns the generator settings used by the examples.
func DefaultSynthConfig() SynthConfig { return synth.DefaultConfig() }

// GenerateTaxonomy builds a random taxonomy with the given shape; use
// taxonomy shapes like {CategoryLevels: []int{23, 270, 1500}, Items: N}
// for the paper's tree.
func GenerateTaxonomy(cfg TaxonomyConfig, seed uint64) (*Taxonomy, error) {
	return taxonomy.Generate(cfg, vecmath.NewRNG(seed))
}

// PaperTaxonomyConfig returns the Yahoo!-shopping-shaped taxonomy scaled
// down by the given factor (1 = the full 1.5M-item tree).
func PaperTaxonomyConfig(scale int) TaxonomyConfig { return taxonomy.PaperShape(scale) }

// GenerateLog simulates a purchase log over the taxonomy (see
// internal/synth for the generative model and DESIGN.md for why it stands
// in for the paper's proprietary dataset).
func GenerateLog(tree *Taxonomy, cfg SynthConfig) (*Dataset, *GroundTruth, error) {
	return synth.Generate(tree, cfg)
}

// Recommender is a trained TF model ready for querying. Obtain one with
// Train or LoadRecommender.
type Recommender struct {
	model    *model.TF
	composed *model.Composed
}

// Train fits a TF model on the training dataset and returns a ready
// Recommender along with training statistics.
func Train(tree *Taxonomy, data *Dataset, p Params, cfg TrainConfig) (*Recommender, *TrainStats, error) {
	m, err := model.New(tree, data.NumUsers(), p, vecmath.NewRNG(cfg.Seed))
	if err != nil {
		return nil, nil, err
	}
	stats, err := train.Train(m, data, cfg)
	if err != nil {
		return nil, nil, err
	}
	return &Recommender{model: m, composed: m.Compose()}, stats, nil
}

// Params returns the model's hyper-parameters.
func (r *Recommender) Params() Params { return r.model.P }

// Taxonomy returns the tree the model was trained over.
func (r *Recommender) Taxonomy() *Taxonomy { return r.model.Tree }

// query builds the affinity query vector for a user with the given recent
// baskets (most recent first).
func (r *Recommender) query(user int, recent []Basket) ([]float64, error) {
	if user < 0 || user >= r.model.NumUsers() {
		return nil, fmt.Errorf("tfrec: user %d out of range [0,%d)", user, r.model.NumUsers())
	}
	q := make([]float64, r.model.K())
	r.composed.BuildQueryInto(user, recent, q)
	return q, nil
}

// Recommend returns the top-k items for a user by full scan. recent is
// the user's latest baskets, most recent first; it feeds the short-term
// (Markov) term and may be nil.
func (r *Recommender) Recommend(user int, recent []Basket, k int) ([]Scored, error) {
	res, err := r.RecommendPlan(user, recent, Plan{K: k})
	if err != nil {
		return nil, err
	}
	return res.Items, nil
}

// RecommendSession returns top-k items for an anonymous session: no user
// factor is available, so the ranking is driven entirely by the short-term
// Markov term over the session's recent baskets (most recent first). The
// model must have MarkovOrder > 0 for this to be meaningful.
func (r *Recommender) RecommendSession(recent []Basket, k int) ([]Scored, error) {
	if r.model.P.MarkovOrder == 0 {
		return nil, fmt.Errorf("tfrec: session recommendations need MarkovOrder > 0 (model has 0)")
	}
	q := make([]float64, r.model.K())
	r.composed.BuildSessionQueryInto(recent, q)
	res, err := infer.Execute(context.Background(), r.composed, q, Plan{K: k})
	if err != nil {
		return nil, err
	}
	return res.Items, nil
}

// RecommendPlan executes one query plan for a user — the full serving
// surface (strategy, precision, filters, pagination) through a single
// call. The zero-valued plan fields default sensibly: strategy naive, the
// host's tier (int8 two-stage on AVX2, the exact f64 sweep elsewhere;
// both rank identically), whole catalog, first page.
func (r *Recommender) RecommendPlan(user int, recent []Basket, pl Plan) (PlanResult, error) {
	q, err := r.query(user, recent)
	if err != nil {
		return PlanResult{}, err
	}
	return infer.Execute(context.Background(), r.composed, q, pl)
}

// RecommendDiversified returns a top-k list with at most maxPerCategory
// items from any single category at taxonomy depth catDepth (0 = the
// lowest category level) — the §1 "reduce duplication of items of
// similar type" use of the taxonomy.
func (r *Recommender) RecommendDiversified(user int, recent []Basket, k, maxPerCategory, catDepth int) ([]Scored, error) {
	res, err := r.RecommendPlan(user, recent, Plan{
		Strategy:  infer.StrategyDiversified,
		K:         k,
		Diversify: &infer.Diversify{MaxPerCategory: maxPerCategory, CatDepth: catDepth},
	})
	if err != nil {
		return nil, err
	}
	return res.Items, nil
}

// EvaluateTopK computes precision/recall/hit-rate/NDCG at cut k.
func (r *Recommender) EvaluateTopK(history, test *Dataset, k int) (eval.TopKResult, error) {
	return eval.EvaluateTopK(r.composed, history, test, k)
}

// RecommendCascaded returns the top-k items using §5.1 cascaded inference
// with the given per-level keep fractions (see UniformCascade).
func (r *Recommender) RecommendCascaded(user int, recent []Basket, cfg CascadeConfig, k int) ([]Scored, error) {
	res, err := r.RecommendPlan(user, recent, Plan{Strategy: infer.StrategyCascade, K: k, Cascade: &cfg})
	if err != nil {
		return nil, err
	}
	return res.Items, nil
}

// RecommendStructured returns a complete per-level category ranking plus
// the top-k items — the "structured ranking" of §1 used for category
// targeting.
func (r *Recommender) RecommendStructured(user int, recent []Basket, k int) (*StructuredRanking, error) {
	q, err := r.query(user, recent)
	if err != nil {
		return nil, err
	}
	return infer.Structured(r.composed, q, k), nil
}

// UniformCascade keeps the fraction f of nodes at every category level of
// this recommender's taxonomy.
func (r *Recommender) UniformCascade(f float64) CascadeConfig {
	return infer.UniformCascade(r.model.Tree.Depth(), f)
}

// Evaluate runs the paper's protocol: history is the observed context
// (train + validation), test supplies the held-out transactions.
func (r *Recommender) Evaluate(history, test *Dataset, cfg EvalConfig) EvalResult {
	return eval.Evaluate(r.composed, history, test, cfg)
}

// Save persists the model (with its taxonomy) to w.
func (r *Recommender) Save(w io.Writer) error { return r.model.Save(w) }

// LoadRecommender restores a model written by Save.
func LoadRecommender(rd io.Reader) (*Recommender, error) {
	m, err := model.Load(rd)
	if err != nil {
		return nil, err
	}
	return &Recommender{model: m, composed: m.Compose()}, nil
}

// Refresh recomposes the inference snapshot after direct mutation of the
// underlying model (advanced use, e.g. continued training).
func (r *Recommender) Refresh() { r.composed = r.model.Compose() }

// WarmStart continues training the existing model on data — typically a
// log extended with new users and new transactions — growing the user
// factor table if needed, and refreshes the inference snapshot. This is
// the incremental-update path: items cold-start through their taxonomy
// ancestors automatically; users cold-start here.
func (r *Recommender) WarmStart(data *Dataset, cfg TrainConfig) (*TrainStats, error) {
	if data.NumUsers() > r.model.NumUsers() {
		if err := r.model.GrowUsers(data.NumUsers(), vecmath.NewRNG(cfg.Seed^0xabcd)); err != nil {
			return nil, err
		}
	}
	stats, err := train.Train(r.model, data, cfg)
	if err != nil {
		return nil, err
	}
	r.Refresh()
	return stats, nil
}

// Model exposes the underlying TF model for advanced use (continued
// training, factor inspection). Call Refresh after mutating it.
func (r *Recommender) Model() *model.TF { return r.model }

// Concat merges two datasets user-by-user (a's baskets then b's);
// evaluation contexts are built this way from train and validation.
func Concat(a, b *Dataset) *Dataset { return dataset.Concat(a, b) }

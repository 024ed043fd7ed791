package infer

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/model"
	"repro/internal/vecmath"
)

// ErrDeadline marks a plan whose context ended — deadline exceeded or
// cancelled — before its ranking completed. The executor checks the
// context cooperatively at shard-claim boundaries, so a cancelled sweep
// stops within one shard's worth of work and returns this error with an
// empty Result: callers never observe a partial ranking. Test with
// errors.Is(err, ErrDeadline); the context's own error (and cause) is
// wrapped alongside.
var ErrDeadline = errors.New("infer: context ended before the ranking completed")

// deadlineErr builds the error a cancelled plan returns, wrapping both the
// typed sentinel and the context's cause.
func deadlineErr(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrDeadline, context.Cause(ctx))
}

// canceled reports whether a dispatch's done channel has fired. A nil
// channel (plan with no deadline) never fires and costs one skipped
// select per shard claim — the reason deadline support is free on the
// uncontended sweep.
func canceled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// Strategy selects a plan's ranking shape.
type Strategy uint8

const (
	// StrategyNaive is the exact full-catalog sweep (the default).
	StrategyNaive Strategy = iota
	// StrategyCascade is the §5.1 top-down beam over the taxonomy;
	// Plan.Cascade must carry the per-level keep fractions.
	StrategyCascade
	// StrategyDiversified caps how many items a single category may place
	// in the result; Plan.Diversify must carry the quota.
	StrategyDiversified
)

// String returns the wire spelling used by flags and HTTP parameters.
func (s Strategy) String() string {
	switch s {
	case StrategyNaive:
		return "naive"
	case StrategyCascade:
		return "cascade"
	case StrategyDiversified:
		return "diversified"
	default:
		return fmt.Sprintf("strategy(%d)", uint8(s))
	}
}

// ParseStrategy parses the wire spelling; "" means StrategyNaive.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "", "naive":
		return StrategyNaive, nil
	case "cascade":
		return StrategyCascade, nil
	case "diversified":
		return StrategyDiversified, nil
	default:
		return StrategyNaive, fmt.Errorf("infer: unknown strategy %q (want naive, cascade or diversified)", s)
	}
}

// ParseIDList parses a comma-separated list of non-negative ids — the
// wire spelling of category filter lists, shared by the HTTP layer and
// the CLIs. Whether an id names a real taxonomy node is checked later,
// by Plan.Validate against a snapshot.
func ParseIDList(s string) ([]int32, error) {
	parts := strings.Split(s, ",")
	out := make([]int32, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("infer: bad id %q in list", p)
		}
		out = append(out, int32(n))
	}
	return out, nil
}

// Diversify configures StrategyDiversified: at most MaxPerCategory items
// from any single category at taxonomy depth CatDepth (0 = the lowest
// category level) may appear in the result.
type Diversify struct {
	MaxPerCategory int
	CatDepth       int
}

// Plan is one fully specified recommendation query: what to rank
// (Strategy plus its config), over which items (Filter), how much of the
// ranking to return (K results after skipping Offset), and how to spend
// hardware doing it (Precision, MaxWorkers). A Plan is validated once and
// executed by the single Execute path.
type Plan struct {
	// Strategy picks the ranking shape; the zero value is the naive sweep.
	Strategy Strategy
	// Precision picks the scoring tier; model.PrecisionDefault resolves
	// by platform (Precision.Resolve): the two-stage int8 sweep where the
	// fused int8 kernel runs, the two-stage f32 sweep elsewhere.
	// PrecisionF64 is the exact one-stage sweep. Rankings are
	// byte-identical at every tier.
	Precision model.Precision
	// K is the number of items returned (after filtering and Offset).
	K int
	// Offset skips the first Offset ranked items — pagination. Filters
	// and ranking happen first, so page boundaries are stable for a fixed
	// plan and snapshot.
	Offset int
	// MaxWorkers caps the query's share of the executing pool: 0 uses the
	// whole pool, 1 forces the serial sweep.
	MaxWorkers int
	// Cascade carries the §5.1 keep fractions; required for (and only
	// for) StrategyCascade.
	Cascade *CascadeConfig
	// Diversify carries the category quota; required for (and only for)
	// StrategyDiversified.
	Diversify *Diversify
	// Filter restricts the eligible items; nil passes the whole catalog.
	Filter *Filter
	// Pruned runs the naive sweep as a taxonomy-guided branch-and-bound
	// descent (prune.go): subtrees whose certified score bound cannot
	// reach the current k-th heap score are skipped. Rankings stay
	// byte-identical to the dense path at every precision; only the work
	// changes. Valid only with StrategyNaive — the other strategies have
	// no full-catalog sweep to prune.
	Pruned bool
}

// Validate checks the plan against a snapshot. It is deliberately
// permissive about K exceeding the catalog (the heap just returns fewer
// items) — strict request-shape limits belong to the serving boundary.
func (pl Plan) Validate(c *model.Composed) error {
	if pl.K <= 0 {
		return fmt.Errorf("infer: plan K must be positive, got %d", pl.K)
	}
	if pl.Offset < 0 {
		return fmt.Errorf("infer: plan Offset must be non-negative, got %d", pl.Offset)
	}
	if pl.K+pl.Offset < 0 {
		return fmt.Errorf("infer: plan K+Offset overflows (%d + %d)", pl.K, pl.Offset)
	}
	if pl.MaxWorkers < 0 {
		return fmt.Errorf("infer: plan MaxWorkers must be non-negative, got %d", pl.MaxWorkers)
	}
	if pl.Pruned && pl.Strategy != StrategyNaive {
		return fmt.Errorf("infer: pruned retrieval applies only to naive plans, got strategy %v", pl.Strategy)
	}
	switch pl.Strategy {
	case StrategyNaive:
	case StrategyCascade:
		if pl.Cascade == nil {
			return fmt.Errorf("infer: cascade plan needs a CascadeConfig")
		}
		if err := pl.Cascade.Validate(c.Tree.Depth()); err != nil {
			return err
		}
	case StrategyDiversified:
		if pl.Diversify == nil {
			return fmt.Errorf("infer: diversified plan needs a Diversify config")
		}
		if pl.Diversify.MaxPerCategory <= 0 {
			return fmt.Errorf("infer: maxPerCategory must be positive, got %d", pl.Diversify.MaxPerCategory)
		}
		// check the depth the executor will actually use: on a flat
		// taxonomy even the CatDepth=0 default resolves to an invalid
		// level, and a validated plan must not fail during execution
		if d := pl.diversifyDepth(c); d < 1 || d >= c.Tree.Depth() {
			return fmt.Errorf("infer: catDepth %d outside (0,%d)", d, c.Tree.Depth())
		}
	default:
		return fmt.Errorf("infer: unknown strategy %v", pl.Strategy)
	}
	return pl.Filter.validate(c)
}

// diversifyDepth resolves the quota level: CatDepth 0 means the lowest
// category level.
func (pl Plan) diversifyDepth(c *model.Composed) int {
	return DiversifyDepth(c, pl.Diversify.CatDepth)
}

// DiversifyDepth resolves a diversified request's quota level against a
// snapshot: catDepth 0 means the lowest category level. Serving layers
// use it to report which taxonomy node each returned item's quota was
// charged to — the annotation a scatter-gather router needs to re-apply
// the per-category quota merge across shard results.
func DiversifyDepth(c *model.Composed, catDepth int) int {
	if catDepth != 0 {
		return catDepth
	}
	return c.Tree.Depth() - 1
}

// heapSize is the collector capacity a plan needs: the K+Offset page,
// clamped to the catalog — a bounded heap can never retain more than
// NumItems entries, so the clamp is behavior-identical while keeping an
// absurd K or Offset from sizing a giant allocation.
func (pl Plan) heapSize(c *model.Composed) int {
	k := pl.K + pl.Offset
	if n := c.Index.NumItems(); k > n {
		k = n
	}
	return k
}

// Result is one executed plan's output.
type Result struct {
	// Items is the ranked page: up to K entries, best first, after the
	// filter and Offset were applied. The slice aliases the collector the
	// plan ran on (the caller's, for ExecuteInto).
	Items []vecmath.Scored
	// Stats reports the cascade's work; nil for other strategies.
	Stats *Stats
	// Eligible is how many catalog items survived the plan's filter
	// (NumItems for an unfiltered plan).
	Eligible int
}

// Execute validates and runs a plan against a snapshot using the pool's
// workers (a nil receiver executes serially). The returned ranking is
// byte-identical — order and tie-breaks included — for any precision,
// worker count and shard size. An error is either a plan validation
// failure or — when ctx carries a deadline or cancellation that fires
// mid-query — ErrDeadline; once a plan validates and its context holds,
// execution cannot fail. A cancelled plan returns an empty Result, never
// a partial ranking.
func (p *Pool) Execute(ctx context.Context, c *model.Composed, q []float64, pl Plan) (Result, error) {
	// validate before sizing the collector: a malformed K/Offset must
	// come back as an error, not a makeslice panic or a giant allocation
	if err := pl.Validate(c); err != nil {
		return Result{}, err
	}
	return p.execInto(ctx, c, q, pl, vecmath.NewTopKStream(pl.heapSize(c)))
}

// Execute runs a plan serially; it is (*Pool)(nil).Execute for callers
// without a pool.
func Execute(ctx context.Context, c *model.Composed, q []float64, pl Plan) (Result, error) {
	return (*Pool)(nil).Execute(ctx, c, q, pl)
}

// ExecuteInto is Execute with a caller-owned collector, the zero-alloc
// core for tight loops (evaluation sweeps a collector across every test
// user). The collector is re-armed internally to K+Offset; Result.Items
// aliases its storage and stays valid until the next Reset.
func (p *Pool) ExecuteInto(ctx context.Context, c *model.Composed, q []float64, pl Plan, st *vecmath.TopKStream) (Result, error) {
	if err := pl.Validate(c); err != nil {
		return Result{}, err
	}
	return p.execInto(ctx, c, q, pl, st)
}

// execInto runs an already-validated plan into an armed collector. The
// context's done channel is threaded into every engine and checked at
// shard-claim boundaries; a fired deadline abandons the sweep (the
// collector may hold partial state, which is discarded — the re-arm on
// the next use wipes it) and surfaces as ErrDeadline.
func (p *Pool) execInto(ctx context.Context, c *model.Composed, q []float64, pl Plan, st *vecmath.TopKStream) (Result, error) {
	done := ctx.Done()
	if canceled(done) {
		return Result{}, deadlineErr(ctx)
	}
	cf := compileFilter(c.Index, pl.Filter)
	defer releaseFilter(cf)
	var mask *vecmath.Bitset
	eligible := c.Index.NumItems()
	if cf != nil {
		mask, eligible = &cf.mask, cf.eligible
	}
	st.Reset(pl.heapSize(c))
	res := Result{Eligible: eligible}
	switch pl.Strategy {
	case StrategyCascade:
		res.Stats = p.executeCascade(done, c, q, *pl.Cascade, pl.Precision, pl.MaxWorkers, cf, st)
	case StrategyDiversified:
		p.executeDiversified(done, c, q, pl.Diversify.MaxPerCategory, pl.diversifyDepth(c), pl.Precision, pl.MaxWorkers, mask, eligible, st)
	default:
		p.executeNaive(done, c, q, pl.Precision, pl.MaxWorkers, mask, eligible, st, pl.Pruned)
	}
	// one check decides: engines bail cooperatively but quietly, so a
	// ranking is returned iff the context still holds here — a cancelled
	// sweep can never leak the partial heap it stopped with
	if canceled(done) {
		return Result{}, deadlineErr(ctx)
	}
	res.Items = page(st.Ranked(), pl.Offset)
	return res, nil
}

// ExecuteInto runs a plan serially into a caller-owned collector.
func ExecuteInto(ctx context.Context, c *model.Composed, q []float64, pl Plan, st *vecmath.TopKStream) (Result, error) {
	return (*Pool)(nil).ExecuteInto(ctx, c, q, pl, st)
}

// page drops the first offset entries of a ranked slice; a past-the-end
// offset yields an empty (non-nil) page.
func page(ranked []vecmath.Scored, offset int) []vecmath.Scored {
	if offset >= len(ranked) {
		return ranked[len(ranked):]
	}
	return ranked[offset:]
}

// ExecuteBatch runs each plan against its query through Execute, in
// order, and returns one Result per plan. The first error — a plan
// validation failure or ErrDeadline — stops the loop and returns no
// results; a pooled sweep's *TaskPanic is raised as Execute raises it.
//
// Deprecated: ExecuteBatch is a loop over Execute; call Execute per query.
func (p *Pool) ExecuteBatch(ctx context.Context, c *model.Composed, qs [][]float64, pls []Plan) ([]Result, error) {
	if len(qs) != len(pls) {
		return nil, fmt.Errorf("infer: batch has %d queries but %d plans", len(qs), len(pls))
	}
	if len(qs) == 0 {
		return nil, nil
	}
	results := make([]Result, len(qs))
	for i := range qs {
		res, err := p.Execute(ctx, c, qs[i], pls[i])
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	return results, nil
}

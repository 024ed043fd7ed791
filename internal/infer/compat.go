package infer

import (
	"context"
	"fmt"

	"repro/internal/model"
)

// Entry points kept for callers built against older releases. Each is a
// thin shim over the current API; new code should not call them.

// F32Escalations returns 0: the float32 tier whose margin escalations it
// counted is retired.
//
// Deprecated: the float32 tier is gone; read I8Escalations.
func F32Escalations() int64 { return 0 }

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

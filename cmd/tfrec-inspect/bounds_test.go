package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/infer"
	"repro/internal/model"
	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

func boundsWorld(t *testing.T) *model.Composed {
	t.Helper()
	tree := taxonomy.MustGenerate(taxonomy.GenConfig{
		CategoryLevels: []int{4, 16},
		Items:          200,
		Skew:           0.3,
	}, vecmath.NewRNG(11))
	m, err := model.New(tree, 3, model.Params{
		K: 6, TaxonomyLevels: 3, Alpha: 1, InitStd: 0.3, UseBias: true,
	}, vecmath.NewRNG(12))
	if err != nil {
		t.Fatal(err)
	}
	return m.Compose()
}

// The audit must uphold the ball invariant (slack >= 0 everywhere),
// account for every category × query sample and every probe's checkpoint
// share, and be seed-deterministic.
func TestBoundTightness(t *testing.T) {
	c := boundsWorld(t)
	const queries = 5
	ct := boundTightness(c, queries, 99)
	if ct.Categories != len(c.Tree.Level(c.Tree.Depth()-1)) {
		t.Fatalf("%d categories, want the %d item parents", ct.Categories, len(c.Tree.Level(c.Tree.Depth()-1)))
	}
	if ct.Samples != ct.Categories*queries {
		t.Fatalf("%d samples from %d categories × %d queries", ct.Samples, ct.Categories, queries)
	}
	total := 0
	for _, n := range ct.Hist {
		total += n
	}
	if total != ct.Samples {
		t.Fatalf("histogram holds %d of %d samples", total, ct.Samples)
	}
	if ct.Min < 0 {
		t.Fatalf("negative slack %g — a ball does not dominate", ct.Min)
	}
	if ct.Min > ct.Mean() || ct.Mean() > ct.Max {
		t.Fatalf("min/mean/max out of order: %g %g %g", ct.Min, ct.Mean(), ct.Max)
	}
	if len(ct.Shares) != queries || len(ct.Early) != queries {
		t.Fatalf("%d/%d checkpoint shares for %d probes", len(ct.Shares), len(ct.Early), queries)
	}
	for _, s := range append(ct.Shares, ct.Early...) {
		if s < 0 || s > 1 {
			t.Fatalf("checkpoint share %g outside [0,1]", s)
		}
	}
	again := boundTightness(c, queries, 99)
	if ct.Min != again.Min || ct.Max != again.Max || ct.sum != again.sum || !slices.Equal(ct.Shares, again.Shares) || !slices.Equal(ct.Early, again.Early) {
		t.Fatal("same seed diverged")
	}
}

// On a world whose first level-1 subtree outscores the rest by a wide
// bias margin, the bounds rule out the other subtrees at both
// checkpoints: every probe's shares clear the bail line.
func TestBoundTightnessSkewedWorldPasses(t *testing.T) {
	tree := taxonomy.MustGenerate(taxonomy.GenConfig{CategoryLevels: []int{8, 64}, Items: 2000, Skew: 0.3}, vecmath.NewRNG(21))
	m, err := model.New(tree, 4, model.Params{K: 6, TaxonomyLevels: 3, Alpha: 1, InitStd: 0.05, UseBias: true}, vecmath.NewRNG(22))
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range tree.Level(1) {
		m.Bias.Row(int(n))[0] = -5
		if i == 0 {
			m.Bias.Row(int(n))[0] = 5
		}
	}
	ct := boundTightness(m.Compose(), 4, 3)
	if p := min(percentile(ct.Shares, 0), percentile(ct.Early, 0)); p < infer.CheckpointShare {
		t.Fatalf("lowest checkpoint share %g below %g", p, infer.CheckpointShare)
	}
}

func TestPrintBoundTightness(t *testing.T) {
	c := boundsWorld(t)
	var buf bytes.Buffer
	ct := boundTightness(c, 2, 5)
	printBoundTightness(&buf, 2, &ct)
	out := buf.String()
	for _, want := range []string{"cut ball-bound tightness over 2 probe queries", "slack histogram:", "checkpoint share before any row (best centre): p10", "checkpoint share at the first top-10 fill:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

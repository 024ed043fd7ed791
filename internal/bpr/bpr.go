// Package bpr implements Bayesian Personalized Ranking SGD over the TF
// model (Kanagal et al., VLDB 2012 §4): the per-sample gradient step of
// Eq. 6–7, uniform negative sampling, and the paper's sibling-based
// training scheme (§4.2).
//
// Two deliberate corrections/clarifications versus the paper's text, both
// documented in DESIGN.md: the sign of ∂L/∂vI_i follows the actual
// derivative of Eq. 3 (the printed minus is a typo), and the Gaussian
// prior (regularization) is applied to each taxonomy *offset* — which is
// precisely the prior that shrinks children toward their parents.
package bpr

import (
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/vecmath"
)

// StepConfig carries the SGD hyper-parameters of one gradient step.
type StepConfig struct {
	// LearnRate is ε in Eq. 7.
	LearnRate float64
	// Lambda is the regularization constant λ of Eq. 5.
	Lambda float64
	// RegularizeEffective switches the taxonomy offsets from offset-wise
	// shrinkage (w ← w + ε(c·q − λw), the Gaussian prior on offsets that
	// pulls children toward parents) to the paper's literal Eq. 6 reading,
	// which shrinks every offset on a path by the *effective* factor:
	// w ← w + ε(c·q − λ·vI). DESIGN.md §6 lists this as an ablation; the
	// default (false) is the principled interpretation.
	RegularizeEffective bool
}

// View is row-level access to a factor matrix as seen by one SGD worker.
// Serial training uses Plain; the parallel trainer routes shared rows
// through a worker-private write-back overlay that it merges at round
// barriers.
type View interface {
	// ReadInto copies row into dst.
	ReadInto(row int, dst []float64)
	// ApplyStep sets row = scale*row + coef*vec — the shape of every BPR
	// update (scale carries the regularization decay 1−ελ, coef the
	// gradient coefficient ε·c).
	ApplyStep(row int, scale, coef float64, vec []float64)
}

// Plain is a View that reads and writes the matrix directly.
type Plain struct {
	M *vecmath.Matrix
}

// ReadInto implements View.
func (p Plain) ReadInto(row int, dst []float64) {
	copy(dst, p.M.Row(row))
}

// ApplyStep implements View.
func (p Plain) ApplyStep(row int, scale, coef float64, vec []float64) {
	ApplyRow(p.M.Row(row), scale, coef, vec)
}

// ApplyRow sets row = scale*row + coef*vec in place.
func ApplyRow(row []float64, scale, coef float64, vec []float64) {
	for k := range row {
		row[k] = scale*row[k] + coef*vec[k]
	}
}

// Stores bundles the factor views a worker reads and updates.
type Stores struct {
	User View
	Node View
	Next View
	// Bias holds the per-node popularity biases (1-column rows); only
	// touched when the model's UseBias is set.
	Bias View
}

// PlainStores returns direct views over the model's matrices.
func PlainStores(m *model.TF) Stores {
	return Stores{
		User: Plain{M: m.User},
		Node: Plain{M: m.Node},
		Next: Plain{M: m.Next},
		Bias: Plain{M: m.Bias},
	}
}

// Stepper executes BPR-SGD steps. It owns scratch buffers, so every
// worker goroutine must have its own Stepper (sharing the underlying
// factor storage through its Stores).
type Stepper struct {
	m   *model.TF
	st  Stores
	cfg StepConfig
	rng *vecmath.RNG

	weights []float64 // decay weights α_n
	// scratch buffers, all of length K
	q, vi, vj, diff, buf []float64
	// one and bbuf are 1-element scratch for the scalar bias updates
	one, bbuf []float64
}

// NewStepper builds a worker-local stepper over the model's structure
// (paths, hyper-parameters) with row access via st.
//
// The scratch buffers are carved out of one padded arena: every buffer is
// separated by a full cache line from its neighbours and from the arena
// edges, so concurrently running steppers never false-share scratch even
// when their arenas are adjacent on the heap — with sub-microsecond SGD
// steps that sharing would dominate the epoch time.
func NewStepper(m *model.TF, st Stores, cfg StepConfig, rng *vecmath.RNG) *Stepper {
	k := m.K()
	const pad = 8 // 8 float64s = 64 bytes
	arena := make([]float64, pad+5*(k+pad))
	carve := func(i int) []float64 {
		start := pad + i*(k+pad)
		return arena[start : start+k : start+k]
	}
	return &Stepper{
		m:       m,
		st:      st,
		cfg:     cfg,
		rng:     rng,
		weights: m.P.DecayWeights(),
		q:       carve(0),
		vi:      carve(1),
		vj:      carve(2),
		diff:    carve(3),
		buf:     carve(4),
		one:     []float64{1},
		bbuf:    make([]float64, 1),
	}
}

// pathBias sums the bias offsets along item's path through the view.
func (s *Stepper) pathBias(item int) float64 {
	var b float64
	for _, node := range s.m.ItemPath(item) {
		s.st.Bias.ReadInto(int(node), s.bbuf)
		b += s.bbuf[0]
	}
	return b
}

// SetLearnRate updates ε (used by per-epoch decay schedules).
func (s *Stepper) SetLearnRate(eps float64) { s.cfg.LearnRate = eps }

// composeItemInto sums the node offsets along item's path through the
// view, producing the effective factor of Eq. 1.
func (s *Stepper) composeItemInto(view View, item int, dst []float64) {
	vecmath.Zero(dst)
	for _, node := range s.m.ItemPath(item) {
		view.ReadInto(int(node), s.buf)
		vecmath.Add(dst, s.buf)
	}
}

// buildQuery assembles q = vU_u + Σ_n (α_n/|B_{t−n}|) Σ_ℓ vI→•_ℓ through
// the views; prev[0] is B_{t−1}.
func (s *Stepper) buildQuery(user int, prev []dataset.Basket) {
	s.st.User.ReadInto(user, s.q)
	order := s.m.P.MarkovOrder
	for n := 0; n < len(prev) && n < order; n++ {
		basket := prev[n]
		if len(basket) == 0 {
			continue
		}
		coef := s.weights[n] / float64(len(basket))
		for _, item := range basket {
			for _, node := range s.m.ItemPath(int(item)) {
				s.st.Next.ReadInto(int(node), s.buf)
				vecmath.AddScaled(s.q, coef, s.buf)
			}
		}
	}
}

// Step performs one SGD update for the tuple (u, i, j) with short-term
// context prev (most-recent basket first), following Eq. 6–7:
//
//	x  = s(i) − s(j) = ⟨q, vI_i − vI_j⟩
//	c  = 1 − σ(x)
//	vU      += ε(c·(vI_i − vI_j) − λ·vU)
//	wI_p^m(i) += ε(c·q − λ·wI_p^m(i))        for m in the trained band
//	wI_p^m(j) −= ε(c·q + λ·wI_p^m(j))
//	wI→•_p^m(ℓ) += ε(c·coef_ℓ·(vI_i − vI_j) − λ·w)   for ℓ in prev baskets
//
// It returns ln σ(x), the sample's log-likelihood before the update, for
// convergence monitoring.
func (s *Stepper) Step(u, i, j int, prev []dataset.Basket) float64 {
	s.buildQuery(u, prev)
	s.composeItemInto(s.st.Node, i, s.vi)
	s.composeItemInto(s.st.Node, j, s.vj)
	for k := range s.diff {
		s.diff[k] = s.vi[k] - s.vj[k]
	}
	x := vecmath.Dot(s.q, s.diff)
	useBias := s.m.P.UseBias
	if useBias {
		x += s.pathBias(i) - s.pathBias(j)
	}
	c := 1 - vecmath.Sigmoid(x)

	eps, lam := s.cfg.LearnRate, s.cfg.Lambda
	scale := 1 - eps*lam

	// user factor
	s.st.User.ApplyStep(u, scale, eps*c, s.diff)

	// item-offset factors along both paths (trained band only)
	band := s.m.TrainedBand()
	pi, pj := s.m.ItemPath(i), s.m.ItemPath(j)
	if s.cfg.RegularizeEffective {
		// ablation: shrink each offset by the effective factor instead of
		// by itself (two ApplySteps per node: gradient, then shrinkage)
		for mIdx := 0; mIdx < band; mIdx++ {
			ni, nj := int(pi[mIdx]), int(pj[mIdx])
			s.st.Node.ApplyStep(ni, 1, eps*c, s.q)
			s.st.Node.ApplyStep(ni, 1, -eps*lam, s.vi)
			s.st.Node.ApplyStep(nj, 1, -eps*c, s.q)
			s.st.Node.ApplyStep(nj, 1, -eps*lam, s.vj)
		}
	} else {
		for mIdx := 0; mIdx < band; mIdx++ {
			s.st.Node.ApplyStep(int(pi[mIdx]), scale, eps*c, s.q)
			s.st.Node.ApplyStep(int(pj[mIdx]), scale, -eps*c, s.q)
		}
	}
	if useBias {
		for mIdx := 0; mIdx < band; mIdx++ {
			s.st.Bias.ApplyStep(int(pi[mIdx]), scale, eps*c, s.one)
			s.st.Bias.ApplyStep(int(pj[mIdx]), scale, -eps*c, s.one)
		}
	}

	// next-item offsets for every item in the Markov context
	s.updateNext(c, prev)
	return vecmath.LogSigmoid(x)
}

// updateNext applies the ∂L/∂vI→•_ℓ updates for all context items using
// diff = vI_i − vI_j already in s.diff.
func (s *Stepper) updateNext(c float64, prev []dataset.Basket) {
	order := s.m.P.MarkovOrder
	if order == 0 {
		return
	}
	eps, lam := s.cfg.LearnRate, s.cfg.Lambda
	scale := 1 - eps*lam
	band := s.m.TrainedBand()
	for n := 0; n < len(prev) && n < order; n++ {
		basket := prev[n]
		if len(basket) == 0 {
			continue
		}
		coef := s.weights[n] / float64(len(basket))
		for _, item := range basket {
			path := s.m.ItemPath(int(item))
			for mIdx := 0; mIdx < band; mIdx++ {
				s.st.Next.ApplyStep(int(path[mIdx]), scale, eps*c*coef, s.diff)
			}
		}
	}
}

// SampleNegative draws a uniform item not contained in basket. It panics
// if the model has fewer than 2 items; if the basket covers the whole
// catalog it returns a uniform item after bounded attempts.
func (s *Stepper) SampleNegative(basket dataset.Basket) int {
	n := s.m.NumItems()
	for attempt := 0; attempt < 32; attempt++ {
		j := s.rng.Intn(n)
		if !basket.Contains(int32(j)) {
			return j
		}
	}
	return s.rng.Intn(n)
}

// SiblingPass runs the §4.2 sibling-based training for a positive item i:
// for every trained level m, it contrasts i's ancestor a = p^m(i) against
// one uniformly chosen sibling b. Because a and b share all higher
// ancestors, the gradients on the shared part of the two paths cancel
// exactly, so the net update touches only the two sibling offsets (plus
// the user and next-item factors):
//
//	x = ⟨q, w_a − w_b⟩,  c = 1 − σ(x)
//	w_a += ε(c·q − λ·w_a);  w_b −= ε(c·q + λ·w_b)
//
// It returns the summed log-likelihood of the level steps.
func (s *Stepper) SiblingPass(u, i int, prev []dataset.Basket) float64 {
	s.buildQuery(u, prev)
	tree := s.m.Tree
	band := s.m.TrainedBand()
	path := s.m.ItemPath(i)
	eps, lam := s.cfg.LearnRate, s.cfg.Lambda
	scale := 1 - eps*lam
	var ll float64

	for mIdx := 0; mIdx < band; mIdx++ {
		a := int(path[mIdx])
		if a == tree.Root() {
			break
		}
		sibs := tree.Children(tree.Parent(a))
		if len(sibs) < 2 {
			continue
		}
		b := a
		for attempt := 0; attempt < 16 && b == a; attempt++ {
			b = int(sibs[s.rng.Intn(len(sibs))])
		}
		if b == a {
			continue
		}
		s.st.Node.ReadInto(a, s.vi)
		s.st.Node.ReadInto(b, s.vj)
		for k := range s.diff {
			s.diff[k] = s.vi[k] - s.vj[k]
		}
		x := vecmath.Dot(s.q, s.diff)
		useBias := s.m.P.UseBias
		if useBias {
			// shared ancestors cancel, so only the sibling offsets differ
			s.st.Bias.ReadInto(a, s.bbuf)
			x += s.bbuf[0]
			s.st.Bias.ReadInto(b, s.bbuf)
			x -= s.bbuf[0]
		}
		c := 1 - vecmath.Sigmoid(x)

		s.st.User.ApplyStep(u, scale, eps*c, s.diff)
		s.st.Node.ApplyStep(a, scale, eps*c, s.q)
		s.st.Node.ApplyStep(b, scale, -eps*c, s.q)
		if useBias {
			s.st.Bias.ApplyStep(a, scale, eps*c, s.one)
			s.st.Bias.ApplyStep(b, scale, -eps*c, s.one)
		}
		s.updateNext(c, prev)
		ll += vecmath.LogSigmoid(x)
	}
	return ll
}

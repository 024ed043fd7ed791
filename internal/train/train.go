// Package train orchestrates BPR-SGD training of TF models (Kanagal et
// al., VLDB 2012 §4, §6.1): epoch loops over uniformly sampled positive
// events, mixing of random-negative steps with sibling-based training, and
// the multi-core execution model. Parallel training is lock-free and
// round-synchronised: each worker owns a contiguous block of users and
// writes their rows directly, buffers its writes to the shared taxonomy
// rows in a private overlay for one round, and the overlays are merged
// deterministically at the round barrier.
package train

import (
	"fmt"
	"math"
	"time"

	"repro/internal/bpr"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/vecmath"
)

// Config are the training hyper-parameters.
type Config struct {
	// Epochs is the number of passes; each epoch draws SamplesPerEpoch
	// uniform samples (with replacement, as in §2.2).
	Epochs int
	// SamplesPerEpoch defaults to the number of positive events (one
	// nominal pass over the non-zero entries).
	SamplesPerEpoch int
	// LearnRate is ε of Eq. 7.
	LearnRate float64
	// LearnRateDecay shrinks ε per epoch: ε_e = LearnRate/(1+decay·e).
	LearnRateDecay float64
	// Lambda is the regularization constant λ.
	Lambda float64
	// SiblingMix is the probability that a sample additionally runs the
	// §4.2 sibling-based pass after its random-negative step ("we mix
	// random sampling with sibling-based training"); 0 disables sibling
	// training (the paper's "no sibling" ablation of Fig. 7d).
	SiblingMix float64
	// Workers is the goroutine count; <=1 uses the single-threaded path.
	// Either way a run is deterministic for a fixed (Seed, Workers).
	Workers int
	// Deprecated: CacheThreshold is ignored. The parallel trainer keeps
	// every shared row in a per-worker overlay for one round, which
	// subsumes the §6.1 hot-row caches it used to configure.
	CacheThreshold float64
	// ForceLocked routes Workers <= 1 through the parallel round engine,
	// so scaling measurements (Figure 8) compare n workers with one
	// worker paying the same round and merge costs. A one-worker round
	// engine reproduces the serial trainer bit for bit.
	ForceLocked bool
	// RegularizeEffective selects the paper's literal Eq. 6 shrinkage
	// (regularize offsets by the effective factor) instead of the default
	// offset-wise Gaussian prior; see bpr.StepConfig and DESIGN.md §6.
	RegularizeEffective bool
	// OnEpoch, when set, runs after every epoch with the epoch index and
	// its mean ln σ(x); returning true stops training early (every round
	// of the epoch is already merged into the model). Use it for early
	// stopping on a validation metric or for checkpointing.
	OnEpoch func(epoch int, avgLogLik float64) (stop bool)
	// Seed makes runs reproducible; every worker derives its own stream.
	Seed uint64
}

// DefaultConfig returns the settings the experiment harness uses before
// any cross-validation: 30 nominal epochs, ε=0.05, λ=0.01, an even
// sibling/random mix, single-threaded.
func DefaultConfig() Config {
	return Config{
		Epochs:     30,
		LearnRate:  0.05,
		Lambda:     0.01,
		SiblingMix: 0.5,
		Workers:    1,
		Seed:       1,
	}
}

// Stats reports per-epoch measurements of a training run.
type Stats struct {
	// Samples is the total number of SGD samples drawn.
	Samples int64
	// EpochTime holds the wall-clock duration of each epoch; Figure 8(a)
	// plots its mean against the worker count.
	EpochTime []time.Duration
	// AvgLogLik is the mean ln σ(x) of the samples of each epoch (before
	// their updates); it should climb toward 0 as ranking improves.
	AvgLogLik []float64
}

// MeanEpochTime returns the average epoch duration.
func (s *Stats) MeanEpochTime() time.Duration {
	if len(s.EpochTime) == 0 {
		return 0
	}
	var total time.Duration
	for _, d := range s.EpochTime {
		total += d
	}
	return total / time.Duration(len(s.EpochTime))
}

// Train fits the model to the dataset's positive events in place and
// returns per-epoch statistics. The run is deterministic given
// Config.Seed and Config.Workers.
func Train(m *model.TF, data *dataset.Dataset, cfg Config) (*Stats, error) {
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("train: Epochs must be positive, got %d", cfg.Epochs)
	}
	if cfg.LearnRate <= 0 {
		return nil, fmt.Errorf("train: LearnRate must be positive, got %v", cfg.LearnRate)
	}
	if cfg.SiblingMix < 0 || cfg.SiblingMix > 1 {
		return nil, fmt.Errorf("train: SiblingMix must be in [0,1], got %v", cfg.SiblingMix)
	}
	if data.NumItems != m.NumItems() {
		return nil, fmt.Errorf("train: dataset has %d items, model %d", data.NumItems, m.NumItems())
	}
	if data.NumUsers() > m.NumUsers() {
		return nil, fmt.Errorf("train: dataset has %d users, model only %d", data.NumUsers(), m.NumUsers())
	}
	events := data.Events()
	if len(events) == 0 {
		return nil, fmt.Errorf("train: dataset has no purchase events")
	}
	samples := cfg.SamplesPerEpoch
	if samples <= 0 {
		samples = len(events)
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}

	stats := &Stats{}
	if workers == 1 && !cfg.ForceLocked {
		trainSerial(m, data, events, cfg, samples, stats)
	} else {
		trainRounds(m, data, events, cfg, samples, workers, stats)
	}
	// Divergence guard: an oversized learning rate drives σ into
	// saturation and the factors to ±Inf/NaN; surface that as an error
	// instead of handing back a silently poisoned model.
	for e, ll := range stats.AvgLogLik {
		if math.IsNaN(ll) || math.IsInf(ll, 0) {
			return stats, fmt.Errorf("train: diverged at epoch %d (log-likelihood %v); lower LearnRate or raise Lambda", e, ll)
		}
	}
	return stats, nil
}

// epochRate returns the learning rate for epoch e under the decay
// schedule.
func epochRate(cfg Config, e int) float64 {
	return cfg.LearnRate / (1 + cfg.LearnRateDecay*float64(e))
}

// runSamples executes n SGD samples on one stepper and returns ll plus the
// summed log-likelihood of the random-negative steps. It is the shared
// inner loop of both execution modes: every sample takes a plain BPR
// step, and with probability siblingMix also runs the sibling fine-tuning
// pass on the same positive.
func runSamples(st *bpr.Stepper, m *model.TF, data *dataset.Dataset, events []dataset.Event, rng *vecmath.RNG, siblingMix float64, n int, ll float64) float64 {
	for s := 0; s < n; s++ {
		ev := events[rng.Intn(len(events))]
		u, t, i := int(ev.User), int(ev.Txn), int(ev.Item)
		history := data.Users[u].Baskets
		prev := m.PrevBaskets(history, t)
		j := st.SampleNegative(history[t])
		ll += st.Step(u, i, j, prev)
		if siblingMix > 0 && rng.Float64() < siblingMix {
			st.SiblingPass(u, i, prev)
		}
	}
	return ll
}

// stepConfig translates the trainer's knobs into a per-step config.
func stepConfig(cfg Config) bpr.StepConfig {
	return bpr.StepConfig{
		LearnRate:           cfg.LearnRate,
		Lambda:              cfg.Lambda,
		RegularizeEffective: cfg.RegularizeEffective,
	}
}

func trainSerial(m *model.TF, data *dataset.Dataset, events []dataset.Event, cfg Config, samples int, stats *Stats) {
	rng := vecmath.NewRNG(cfg.Seed)
	st := bpr.NewStepper(m, bpr.PlainStores(m), stepConfig(cfg), rng.Split())
	for e := 0; e < cfg.Epochs; e++ {
		st.SetLearnRate(epochRate(cfg, e))
		start := time.Now()
		ll := runSamples(st, m, data, events, rng, cfg.SiblingMix, samples, 0)
		stats.EpochTime = append(stats.EpochTime, time.Since(start))
		stats.AvgLogLik = append(stats.AvgLogLik, ll/float64(samples))
		stats.Samples += int64(samples)
		if cfg.OnEpoch != nil && cfg.OnEpoch(e, ll/float64(samples)) {
			return
		}
	}
}

// SearchLambda performs the paper's exhaustive cross-validation over λ
// (§2.2): it trains one fresh model per candidate with build() supplying
// identically initialized models, scores each with score (higher is
// better, e.g. validation AUC), and returns the winning λ alongside all
// scores.
func SearchLambda(lambdas []float64, build func() (*model.TF, error), data *dataset.Dataset, cfg Config, score func(*model.TF) float64) (float64, []float64, error) {
	if len(lambdas) == 0 {
		return 0, nil, fmt.Errorf("train: no lambda candidates")
	}
	scores := make([]float64, len(lambdas))
	bestIdx := 0
	for idx, lam := range lambdas {
		m, err := build()
		if err != nil {
			return 0, nil, fmt.Errorf("train: build model for lambda %v: %w", lam, err)
		}
		c := cfg
		c.Lambda = lam
		if _, err := Train(m, data, c); err != nil {
			return 0, nil, err
		}
		scores[idx] = score(m)
		if scores[idx] > scores[bestIdx] {
			bestIdx = idx
		}
	}
	return lambdas[bestIdx], scores, nil
}

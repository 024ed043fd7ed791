package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/infer"
	"repro/internal/model"
	"repro/internal/train"
)

// Fig8abResult carries the parallel-training measurements of Figures 8(a)
// and 8(b): wall-clock time per epoch and speedup versus thread count for
// MF(0) and TF(u,0). The paper's third system, TF with §6.1 hot-row
// caches, has no counterpart here: the round engine keeps every shared
// row in a per-worker overlay for one round, so all runs are "cached".
type Fig8abResult struct {
	Threads []int
	// EpochTime[system][i] is the mean epoch duration at Threads[i];
	// systems are indexed by the Systems labels.
	Systems   []string
	EpochTime [][]time.Duration
	Speedup   [][]float64
}

// RunFig8ab reproduces Figures 8(a,b). threads may be nil, defaulting to
// {1, 2, 4, 8, 16, 32, 48} (the paper sweeps 1..50 on a 12-core box; we
// likewise oversubscribe past the physical cores).
func RunFig8ab(out io.Writer, sc Scale, threads []int) (*Fig8abResult, error) {
	out = discardIfNil(out)
	if len(threads) == 0 {
		threads = []int{1, 2, 4, 8, 16, 32, 48}
	}
	w, err := BuildWorkload(sc, 0.5)
	if err != nil {
		return nil, err
	}
	type system struct {
		label string
		u     int
	}
	systems := []system{
		{"MF(0)", 1},
		{fmt.Sprintf("TF(%d,0)", w.MaxU()), w.MaxU()},
	}
	// The paper's epoch is "a fixed number of iterations for both models";
	// pinning the sample count also keeps epochs long enough to measure at
	// small scales.
	samplesPerEpoch := w.History.NumPurchases()
	if samplesPerEpoch < 100_000 {
		samplesPerEpoch = 100_000
	}
	res := &Fig8abResult{Threads: threads}
	for _, sys := range systems {
		res.Systems = append(res.Systems, sys.label)
		var times []time.Duration
		for _, th := range threads {
			p := model.Params{K: sc.FixedK, TaxonomyLevels: sys.u, MarkovOrder: 0, Alpha: 1, InitStd: 0.01}
			m, err := model.New(w.Tree, w.Log.NumUsers(), p, rngFor(sc.Seed+51))
			if err != nil {
				return nil, err
			}
			cfg := sc.TrainConfig()
			cfg.Epochs = 3
			cfg.SamplesPerEpoch = samplesPerEpoch
			cfg.Workers = th
			// the 1-thread baseline must pay the same round and merge
			// costs as the n-thread runs for the speedup curve to mean
			// anything
			cfg.ForceLocked = true
			if sys.u == 1 {
				cfg.SiblingMix = 0
			}
			stats, err := train.Train(m, w.History, cfg)
			if err != nil {
				return nil, err
			}
			times = append(times, stats.MeanEpochTime())
		}
		speedups := make([]float64, len(threads))
		for i := range threads {
			if times[i] > 0 {
				speedups[i] = float64(times[0]) / float64(times[i])
			}
		}
		res.EpochTime = append(res.EpochTime, times)
		res.Speedup = append(res.Speedup, speedups)
	}

	fmt.Fprintf(out, "Figure 8(a,b) — parallel training (%s scale, K=%d, %d samples/epoch)\n",
		sc.Name, sc.FixedK, samplesPerEpoch)
	tw := newTable(out)
	fmt.Fprint(tw, "threads")
	for _, s := range res.Systems {
		fmt.Fprintf(tw, "\t%s time\tspeedup", s)
	}
	fmt.Fprintln(tw)
	for i, th := range threads {
		fmt.Fprintf(tw, "%d", th)
		for s := range res.Systems {
			fmt.Fprintf(tw, "\t%v\t%.2f", res.EpochTime[s][i].Round(time.Microsecond), res.Speedup[s][i])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(out)
	return res, nil
}

// Fig8cdResult carries a cascaded-inference trade-off curve: for each keep
// percentage, the AUC ratio against naive inference and the wall-time
// ratio.
type Fig8cdResult struct {
	KeepPct   []int
	AccRatio  []float64
	TimeRatio []float64
	NaiveAUC  float64
}

// RunFig8c reproduces Figure 8(c): all of k1, k2, k3 grow together from
// 5% to 100%.
func RunFig8c(out io.Writer, sc Scale) (*Fig8cdResult, error) {
	return runCascadeTradeoff(out, sc, false, "Figure 8(c) — cascaded inference, sweeping all k_i")
}

// RunFig8d reproduces Figure 8(d): k1 = k2 = 100% and only the lowest
// category level's k3 grows, giving the monotone accuracy curve the paper
// notes.
func RunFig8d(out io.Writer, sc Scale) (*Fig8cdResult, error) {
	return runCascadeTradeoff(out, sc, true, "Figure 8(d) — cascaded inference, sweeping k3 only")
}

// cascadeUserAUC walks every test user once, producing the mean
// PrunedAUC of the first test transaction under the given scorer
// plus the wall time of the production ranking path. scoreFn fills dst
// with item scores for the user's query (−Inf marks items the cascade
// pruned away) and is used only for accuracy; rankFn is the production
// top-k call (naive scan or cascade) and is what the time ratio measures —
// the paper's Figure 8(c,d) compares inference cost, not metric
// bookkeeping.
func cascadeUserAUC(c *model.Composed, history, test *dataset.Dataset,
	scoreFn func(q, dst []float64), rankFn func(q []float64)) (float64, time.Duration) {
	q := make([]float64, c.K())
	scores := make([]float64, c.NumItems())
	var aucSum float64
	var elapsed time.Duration
	users := 0
	for u := 0; u < test.NumUsers(); u++ {
		baskets := test.Users[u].Baskets
		if len(baskets) == 0 {
			continue
		}
		seq := history.Users[u].Baskets
		c.BuildQueryInto(u, c.PrevBaskets(seq, len(seq)), q)
		start := time.Now()
		rankFn(q)
		elapsed += time.Since(start)
		scoreFn(q, scores)
		aucSum += eval.PrunedAUC(scores, baskets[0])
		users++
	}
	if users == 0 {
		return 0, elapsed
	}
	return aucSum / float64(users), elapsed
}

func runCascadeTradeoff(out io.Writer, sc Scale, leafOnly bool, title string) (*Fig8cdResult, error) {
	out = discardIfNil(out)
	w, err := BuildWorkload(sc, 0.5)
	if err != nil {
		return nil, err
	}
	m, _, err := trainModel(w, sc, sysSpec{U: w.MaxU(), B: 0, SiblingMix: -1}, sc.FixedK)
	if err != nil {
		return nil, err
	}
	c := m.Compose()

	// both sides time the serving path at one precision, so the time ratio
	// compares the beam with the sweep it approximates, not two tiers
	ctx := context.Background()
	naive := infer.Plan{K: 10}
	naiveAUC, naiveTime := cascadeUserAUC(c, w.History, w.Split.Test,
		func(q, dst []float64) { c.ItemScoresInto(q, dst) },
		func(q []float64) {
			if _, err := infer.Execute(ctx, c, q, naive); err != nil {
				panic(err)
			}
		})

	res := &Fig8cdResult{NaiveAUC: naiveAUC}
	for _, pct := range []int{5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100} {
		f := float64(pct) / 100
		cfg := infer.UniformCascade(w.Tree.Depth(), 1.0)
		if leafOnly {
			cfg.KeepFrac[len(cfg.KeepFrac)-1] = f
		} else {
			for i := range cfg.KeepFrac {
				cfg.KeepFrac[i] = f
			}
		}
		if err := cfg.Validate(w.Tree.Depth()); err != nil {
			return nil, err
		}
		casc := naive
		casc.Strategy, casc.Cascade = infer.StrategyCascade, &cfg
		auc, elapsed := cascadeUserAUC(c, w.History, w.Split.Test,
			func(q, dst []float64) {
				s, _, err := infer.CascadeScores(c, q, cfg)
				if err != nil {
					panic(err) // validated above
				}
				copy(dst, s)
			},
			func(q []float64) {
				if _, err := infer.Execute(ctx, c, q, casc); err != nil {
					panic(err)
				}
			})

		res.KeepPct = append(res.KeepPct, pct)
		acc := 0.0
		if naiveAUC > 0 {
			acc = auc / naiveAUC
		}
		res.AccRatio = append(res.AccRatio, acc)
		res.TimeRatio = append(res.TimeRatio, float64(elapsed)/float64(naiveTime))
	}

	fmt.Fprintf(out, "%s (%s scale, naive AUC %.4f, naive time %v)\n", title, sc.Name, naiveAUC, naiveTime.Round(time.Millisecond))
	tw := newTable(out)
	fmt.Fprintln(tw, "K%\taccuracy ratio\ttime ratio")
	for i, pct := range res.KeepPct {
		fmt.Fprintf(tw, "%d\t%.4f\t%.3f\n", pct, res.AccRatio[i], res.TimeRatio[i])
	}
	tw.Flush()
	fmt.Fprintln(out)
	return res, nil
}

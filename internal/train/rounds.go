package train

import (
	"time"

	"repro/internal/bpr"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/vecmath"
)

// roundSamples caps how many SGD samples a worker draws between two
// merge barriers, and so bounds the staleness of shared rows: a worker
// sees another worker's update to a Node/Next/Bias row at most one round
// after it was made. Picked by measurement on the train_tf benchmark
// world (89k events, TF(4,1), K=20, 2 workers on 2 vCPU, 8 epochs, three
// interleaved reps): 1024 ran 463–522k samples/s, held-out AUC 0.8586,
// losing a quarter of the rate to per-round copy-in and merge; 4096 ran
// 610–902k at AUC 0.8582; 8192 ran 717–895k — no better within the
// host's noise — at AUC 0.8571, with twice the staleness and overlays.
const roundSamples = 4096

// minRounds is the fewest rounds an epoch is cut into. On a small log a
// full-size round would span the whole epoch, and every worker would run
// it against shared rows a whole epoch stale.
const minRounds = 4

// overlay is one worker's private write-back copy of the shared rows of
// a factor matrix it has written during the current round. Reads see
// the worker's own copy when there is one and the shared row otherwise;
// nothing is written to the shared matrix until the round's merge.
type overlay struct {
	base    *vecmath.Matrix
	cols    int
	slot    []int32   // row → position in touched, −1 when not written this round
	touched []int32   // rows written this round, in first-write order
	arena   []float64 // the copies: touched[s] lives at [s·cols, (s+1)·cols)
	// decay[s] is the product of the ApplyStep scales applied to
	// touched[s] this round, so its copy is decay[s]·old + (gradient
	// terms) for the round's shared value old.
	decay []float64
}

func newOverlay(base *vecmath.Matrix) *overlay {
	slot := make([]int32, base.Rows())
	for i := range slot {
		slot[i] = -1
	}
	return &overlay{base: base, cols: base.Cols(), slot: slot}
}

// local returns this round's copy of row, or nil when it has none.
func (o *overlay) local(row int) []float64 {
	s := o.slot[row]
	if s < 0 {
		return nil
	}
	off := int(s) * o.cols
	return o.arena[off : off+o.cols : off+o.cols]
}

// ReadInto implements bpr.View.
func (o *overlay) ReadInto(row int, dst []float64) {
	if r := o.local(row); r != nil {
		copy(dst, r)
		return
	}
	copy(dst, o.base.Row(row))
}

// ApplyStep implements bpr.View; the first write of a round copies the
// shared row into the arena.
func (o *overlay) ApplyStep(row int, scale, coef float64, vec []float64) {
	r := o.local(row)
	if r == nil {
		o.slot[row] = int32(len(o.touched))
		o.touched = append(o.touched, int32(row))
		o.arena = append(o.arena, o.base.Row(row)...)
		o.decay = append(o.decay, 1)
		r = o.local(row)
	}
	o.decay[o.slot[row]] *= scale
	bpr.ApplyRow(r, scale, coef, vec)
}

// reset forgets the round's copies, keeping the arena's capacity.
func (o *overlay) reset() {
	for _, r := range o.touched {
		o.slot[r] = -1
	}
	o.touched = o.touched[:0]
	o.arena = o.arena[:0]
	o.decay = o.decay[:0]
}

// worker is one goroutine's training state. It samples only events of
// the users it owns, so it writes their User rows directly; the shared
// Node, Next and Bias rows go through its overlays.
type worker struct {
	events  []dataset.Event
	rng     *vecmath.RNG
	st      *bpr.Stepper
	shared  [3]*overlay // Node, Next, Bias
	scratch []float64   // merge accumulator, one row wide
	ll      float64     // the epoch's log-likelihood so far
}

type roundOp int

const (
	opSample roundOp = iota
	opMerge
)

// roundCmd tells a worker what to do until the next barrier.
type roundCmd struct {
	op roundOp
	n  int // samples to draw (opSample)
	// epochStart sets the epoch's learning rate and restarts the
	// log-likelihood sum before sampling.
	epochStart bool
	rate       float64
}

// roundEngine runs persistent workers in lock-step rounds: every worker
// draws its share of the round's samples against its overlays; after a
// barrier, each worker folds all overlays into the shared rows it owns
// (row % workers, see mergeRow); after a second barrier the overlays are
// reset. During a phase no two goroutines write the same memory, and the
// result depends only on (seed, workers).
type roundEngine struct {
	workers []*worker
	cmd     []chan roundCmd
	done    chan struct{}
}

// trainRounds is the parallel trainer; see roundEngine.
func trainRounds(m *model.TF, data *dataset.Dataset, events []dataset.Event, cfg Config, samples, workers int, stats *Stats) {
	parts := partition(events, workers)
	quota := make([]int, workers)
	left := samples
	for w, p := range parts {
		quota[w] = int(int64(samples) * int64(len(p)) / int64(len(events)))
		left -= quota[w]
	}
	quota[0] += left

	e := &roundEngine{
		workers: make([]*worker, workers),
		cmd:     make([]chan roundCmd, workers),
		done:    make(chan struct{}, workers),
	}
	ready := make(chan struct{}, workers)
	for w := range workers {
		e.cmd[w] = make(chan roundCmd)
		// Each worker allocates its own state in its own goroutine, so
		// the RNGs, steppers and overlay headers it writes on every
		// sample do not share cache lines with another worker's.
		go func(id int) {
			e.workers[id] = newWorker(m, parts[id], cfg, id)
			ready <- struct{}{}
			e.serve(id, m, data, cfg.SiblingMix)
		}(w)
	}
	for range workers {
		<-ready
	}

	// every worker spreads its quota evenly over the epoch's rounds, so
	// all of them finish together
	maxQuota := 0
	for _, q := range quota {
		maxQuota = max(maxQuota, q)
	}
	rounds := max(minRounds, (maxQuota+roundSamples-1)/roundSamples)
	for ep := 0; ep < cfg.Epochs; ep++ {
		rate := epochRate(cfg, ep)
		start := time.Now()
		for r := range rounds {
			for w, q := range quota {
				n := q*(r+1)/rounds - q*r/rounds
				e.cmd[w] <- roundCmd{op: opSample, n: n, epochStart: r == 0, rate: rate}
			}
			e.barrier()
			e.broadcast(roundCmd{op: opMerge})
			e.barrier()
		}
		var ll float64
		for _, wk := range e.workers {
			ll += wk.ll
		}
		stats.EpochTime = append(stats.EpochTime, time.Since(start))
		stats.AvgLogLik = append(stats.AvgLogLik, ll/float64(samples))
		stats.Samples += int64(samples)
		if cfg.OnEpoch != nil && cfg.OnEpoch(ep, ll/float64(samples)) {
			break
		}
	}
	for _, c := range e.cmd {
		close(c)
	}
	e.barrier()
}

// newWorker builds worker id's state. Worker 0 derives its streams
// exactly as trainSerial does, so a one-worker round engine reproduces
// the serial trainer bit for bit.
func newWorker(m *model.TF, events []dataset.Event, cfg Config, id int) *worker {
	rng := vecmath.NewRNG(cfg.Seed + 0x9e3779b97f4a7c15*uint64(id))
	wk := &worker{
		events:  events,
		rng:     rng,
		shared:  [3]*overlay{newOverlay(m.Node), newOverlay(m.Next), newOverlay(m.Bias)},
		scratch: make([]float64, max(m.Node.Cols(), m.Next.Cols(), m.Bias.Cols())),
	}
	stores := bpr.Stores{User: bpr.Plain{M: m.User}, Node: wk.shared[0], Next: wk.shared[1], Bias: wk.shared[2]}
	wk.st = bpr.NewStepper(m, stores, stepConfig(cfg), rng.Split())
	return wk
}

// serve is worker id's loop; it acknowledges every command on e.done,
// and once more when its command channel closes.
func (e *roundEngine) serve(id int, m *model.TF, data *dataset.Dataset, siblingMix float64) {
	wk := e.workers[id]
	for c := range e.cmd[id] {
		switch c.op {
		case opSample:
			for _, ov := range wk.shared {
				ov.reset()
			}
			if c.epochStart {
				wk.st.SetLearnRate(c.rate)
				wk.ll = 0
			}
			wk.ll = runSamples(wk.st, m, data, wk.events, wk.rng, siblingMix, c.n, wk.ll)
		case opMerge:
			e.merge(id)
		}
		e.done <- struct{}{}
	}
	e.done <- struct{}{}
}

func (e *roundEngine) broadcast(c roundCmd) {
	for _, ch := range e.cmd {
		ch <- c
	}
}

// barrier waits until every worker has acknowledged its command.
func (e *roundEngine) barrier() {
	for range e.workers {
		<-e.done
	}
}

// merge folds every worker's overlays into the shared rows that worker
// owner owns. Each row is merged once, when the scan reaches the
// lowest-indexed worker that wrote it.
func (e *roundEngine) merge(owner int) {
	n := len(e.workers)
	for mi := range e.workers[owner].shared {
		for w, wk := range e.workers {
			for _, r := range wk.shared[mi].touched {
				row := int(r)
				if row%n == owner && !e.writtenBefore(mi, w, row) {
					e.mergeRow(mi, w, row, e.workers[owner].scratch)
				}
			}
		}
	}
}

// writtenBefore reports whether a worker below w wrote row of matrix mi.
func (e *roundEngine) writtenBefore(mi, w, row int) bool {
	for _, wk := range e.workers[:w] {
		if wk.shared[mi].slot[row] >= 0 {
			return true
		}
	}
	return false
}

// mergeRow publishes row of matrix mi, first written by worker first. A
// row with one writer takes that worker's value exactly. A row written by
// several workers w, each of whose copies is a_w = S_w·old + g_w (S_w its
// decay product, g_w its gradient terms), becomes
//
//	old·Π_w S_w + Σ_w (a_w − S_w·old)
//
// in worker order: the regularization decay composes as it would had the
// steps run one after another, and the gradient terms add up. Summing
// the raw deltas a_w − old instead would apply each worker's decay to
// the whole row again, and rows that every sample touches flip sign and
// grow once W·(1 − S_w) > 2.
func (e *roundEngine) mergeRow(mi, first, row int, scratch []float64) {
	own := e.workers[first].shared[mi]
	old := own.base.Row(row)
	decay := 1.0
	writers := 0
	for _, wk := range e.workers[first:] {
		if s := wk.shared[mi].slot[row]; s >= 0 {
			decay *= wk.shared[mi].decay[s]
			writers++
		}
	}
	if writers == 1 {
		copy(old, own.local(row))
		return
	}
	sum := scratch[:len(old)]
	for k := range sum {
		sum[k] = decay * old[k]
	}
	for _, wk := range e.workers[first:] {
		ov := wk.shared[mi]
		if s := ov.slot[row]; s >= 0 {
			a, d := ov.local(row), ov.decay[s]
			for k := range sum {
				sum[k] += a[k] - d*old[k]
			}
		}
	}
	copy(old, sum)
}

// partition cuts the user-major event list into n contiguous slices at
// user boundaries, each cut at the first boundary at or after its even
// share, so every user's events — and its User row — belong to exactly
// one slice. Slice 0 is never empty; later slices may be when there are
// fewer users than slices.
func partition(events []dataset.Event, n int) [][]dataset.Event {
	parts := make([][]dataset.Event, 0, n)
	lo := 0
	for w := 1; w < n; w++ {
		cut := min(max(w*len(events)/n, lo+1), len(events))
		for cut < len(events) && events[cut].User == events[cut-1].User {
			cut++
		}
		parts = append(parts, events[lo:cut])
		lo = cut
	}
	return append(parts, events[lo:])
}

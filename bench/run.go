package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/vecmath"
)

// options are one run's settings.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	quick   bool
	nproc   int
	tmpDir  string // model files are written here
	outDir  string // traces and result files are written here
}

// setupRepeats is how many times a run sets the workload up; setup_s is
// the median, so one slow page-cache miss does not move it.
const setupRepeats = 3

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind the number (0 when it is not a
	// statistic of a sample).
	N int `json:"n,omitempty"`
}

// stage is one entry of a run's timeline.
type stage struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// result is everything one run of one workload reports.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Quick     bool              `json:"quick"`
	NProc     int               `json:"nproc"`
	Kernels   string            `json:"kernels"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Notes explain every failed check and flagged condition.
	Notes []string `json:"notes,omitempty"`
	// Timeline lists how long each stage of the run took, in order.
	Timeline []stage `json:"timeline"`
}

// newResult starts a result; the kernel dispatch arm is recorded so
// numbers from different arms are never compared.
func newResult(wl *workload, o options) *result {
	return &result{
		Workload: wl.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Quick: o.quick,
		NProc: o.nproc, Kernels: vecmath.KernelsID(), Correct: true, Metrics: map[string]metric{},
	}
}

func (r *result) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, N: n}
}

// note flags a condition a reader of the numbers should know about.
func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail records a violated check: the run's outputs are not correct.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.note(format, args...)
}

// mark appends a stage that began at start and ends now.
func (r *result) mark(name string, start time.Time) {
	r.Timeline = append(r.Timeline, stage{name, time.Since(start).Seconds()})
}

// count folds a batch of samples into the attempted/failed totals.
func (r *result) count(samples []sample) {
	r.Attempted += len(samples)
	for i := range samples {
		if !samples[i].ok {
			r.Failed++
		}
	}
}

// stack is a workload set up and ready to measure.
type stack struct {
	w    *world      // nil when the workload serves its trained model
	tw   *trainWorld // the training half's world
	dep  *deployment
	orc  *oracle
	path string
	// view is the harness's own mapping of the served file: what the
	// oracle and the replay score against. It shares the served
	// mapping's pages, so it adds nothing to resident memory.
	view *model.Snapshot

	saveTime, loadTime time.Duration
	fileBytes          int64
}

// close tears the deployment down and deletes the model file.
func (s *stack) close() {
	if s.dep != nil {
		s.dep.close()
	}
	if s.view != nil {
		s.view.Close()
	}
	if s.path != "" {
		os.Remove(s.path)
	}
}

// history returns the served world's purchase log, if it has one.
func (s *stack) history() *dataset.Dataset {
	if s.w == nil {
		return nil
	}
	return s.w.log
}

// deployConfig returns the workload's reference deployment of the
// stack's model file. The result cache holds the reference 4096 entries,
// shrunk with the user base in quick mode so the tiny worlds keep the
// streams' no-aliasing property (capacity well below the user count).
func (s *stack) deployConfig(wl *workload, o options, tr *tracer) deployConfig {
	return deployConfig{
		path: s.path, workers: o.nproc, cache: min(cacheEntries, s.view.Composed.User.Rows()/4),
		shards: wl.shards, history: s.history(), tr: tr,
	}
}

// serveModel saves m, opens it the production way and deploys the
// workload's topology over it.
func (s *stack) serveModel(wl *workload, o options, m *model.TF, tr *tracer) error {
	var err error
	s.path, s.saveTime, s.fileBytes, err = saveModel(m, o.tmpDir, wl.name)
	if err != nil {
		return err
	}
	start := time.Now()
	if s.view, err = model.LoadFile(s.path); err != nil {
		return err
	}
	s.loadTime = time.Since(start)
	var purchased [][]int32
	if s.w != nil {
		purchased = historyItems(s.w)
	}
	s.orc = newOracle(s.view.Composed, purchased)
	s.dep, err = deploy(s.deployConfig(wl, o, tr))
	return err
}

// setUp generates the workload's worlds from the seed and, unless the
// workload serves its own trained model, brings the deployment up.
func setUp(wl *workload, o options, tr *tracer) (*stack, error) {
	s := &stack{}
	ts, ws := wl.train, wl.world
	if o.quick {
		ts, ws = ts.quick(), ws.quick()
	}
	var err error
	if s.tw, err = buildTrainWorld(ts, o.seed); err != nil {
		return nil, err
	}
	if wl.servesTrained() {
		return s, nil
	}
	if s.w, err = buildWorld(ws, o.seed); err != nil {
		return nil, err
	}
	if err := s.serveModel(wl, o, s.w.model, tr); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// settle hands the set-up's garbage back to the OS before a measured
// phase. A serving process does not hold its generator's heap, and
// freeing it now leaves the background scavenger nothing to do mid-phase.
func settle() { debug.FreeOSMemory() }

func getJSON(url string, into any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// counters are the GET /v1/stats totals the checks read, summed over the
// topology's nodes (and its router).
type counters struct {
	hits, misses, stale, evictions int64
	shed, deadline                 int64
	routerErrors, hedges           int64
}

func (d *deployment) counters() (counters, error) {
	var c counters
	for _, n := range d.nodes {
		var st api.Stats
		if err := getJSON(n.ts.URL+"/v1/stats", &st); err != nil {
			return c, err
		}
		if st.Cache != nil {
			c.hits += st.Cache.Hits
			c.misses += st.Cache.Misses
			c.stale += st.Cache.Stale
			c.evictions += st.Cache.Evictions
		}
		if st.Admission != nil {
			c.shed += st.Admission.ShedQueueFull + st.Admission.ShedWait
		}
		c.deadline += st.DeadlineExceeded
	}
	if d.front != nil {
		var rs api.RouterStats
		if err := getJSON(d.url+"/v1/stats", &rs); err != nil {
			return c, err
		}
		c.routerErrors, c.hedges = rs.Router.Errors, rs.Router.Hedges
		c.shed += rs.Router.Shed
		c.deadline += rs.DeadlineExceeded
	}
	return c, nil
}

func (c counters) minus(b counters) counters {
	return counters{
		hits: c.hits - b.hits, misses: c.misses - b.misses, stale: c.stale - b.stale,
		evictions: c.evictions - b.evictions, shed: c.shed - b.shed, deadline: c.deadline - b.deadline,
		routerErrors: c.routerErrors - b.routerErrors, hedges: c.hedges - b.hedges,
	}
}

// hitRatio is cache hits over cache lookups.
func (c counters) hitRatio() float64 {
	if c.hits+c.misses == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.hits+c.misses)
}

// reportCounters reports the counter deltas of a measured interval and
// checks them: the hit ratio must sit in the band the traffic was
// designed for (else sweeps silently became hits, or the reverse), and
// nothing may have been shed, timed out or failed behind the router.
func reportCounters(d counters, wl *workload, steady bool, res *result) {
	res.set("serve.cache_hit_ratio", d.hitRatio(), "ratio", int(d.hits+d.misses))
	res.set("serve.cache_evictions", float64(d.evictions), "count", 0)
	res.set("serve.cache_stale", float64(d.stale), "count", 0)
	res.set("serve.shed_count", float64(d.shed), "count", 0)
	res.set("serve.deadline_count", float64(d.deadline), "count", 0)
	res.set("router.errors", float64(d.routerErrors), "count", 0)
	res.set("router.hedges", float64(d.hedges), "count", 0)
	// the lower edge holds only in steady state: the traced pass and the
	// one-second quick phases start on a cold cache
	if hr := d.hitRatio(); hr > wl.hitMax || (hr < wl.hitMin && steady) {
		res.fail("cache hit ratio %.3f outside the workload's band [%.2f, %.2f]", hr, wl.hitMin, wl.hitMax)
	}
	if d.shed != 0 || d.deadline != 0 || d.routerErrors != 0 {
		res.fail("shed=%d deadline=%d router_errors=%d, all must be 0", d.shed, d.deadline, d.routerErrors)
	}
}

// reloadDuring hot-swaps a fresh mapping of the model file into every
// node 40% of the way through a phase of length dur, the way a SIGHUP
// would, and returns a function that waits for it and reports failures.
func (d *deployment) reloadDuring(dur time.Duration) (wait func() error) {
	done := make(chan error, 1)
	go func() {
		time.Sleep(dur * 2 / 5)
		for _, n := range d.nodes {
			if err := n.h.Reload(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	return func() error { return <-done }
}

// phase runs one measured phase of length dur, hot-swapping the snapshot
// mid-phase on the workloads that ask for it.
func phase(wl *workload, s *stack, res *result, name string, dur time.Duration, run func() []sample) ([]sample, error) {
	defer res.mark(name, time.Now())
	if !wl.reload {
		return run(), nil
	}
	wait := s.dep.reloadDuring(dur)
	out := run()
	return out, wait()
}

// openLoops runs the two open-loop phases, dur each — independent users
// arriving at the frozen low and high rates — and reports latency from
// due time, the share of the high rate's requests inside the latency
// limit, and how well the generator kept its schedule.
func openLoops(wl *workload, o options, s *stack, ss []*sender, g *streamGen, dur time.Duration, res *result) ([]sample, error) {
	lo, err := phase(wl, s, res, "open_lo", dur, func() []sample { return runOpen(ss, g, newSchedule(o.seed, wl.rateLo, dur)) })
	if err != nil {
		return nil, err
	}
	hi, err := phase(wl, s, res, "open_hi", dur, func() []sample { return runOpen(ss, g, newSchedule(o.seed+1, wl.rateHi, dur)) })
	if err != nil {
		return nil, err
	}
	loSt, hiSt := openLoop(lo, dur, wl.sloMS), openLoop(hi, dur, wl.sloMS)
	res.set("p50_lo_ms", loSt.lat.p50, "ms", loSt.lat.n)
	res.set("p99_lo_ms", loSt.lat.tail, "ms", loSt.lat.n)
	res.set("p99_hi_ms", hiSt.lat.tail, "ms", hiSt.lat.n)
	res.set("slo_ok_hi_pct", 100*float64(hiSt.withinSLO)/float64(max(hiSt.sent, 1)), "%", hiSt.sent)
	res.set("load.late_p99_ms", max(loSt.late.tail, hiSt.late.tail), "ms", hiSt.late.n)
	res.set("load.achieved_rate_ratio", min(loSt.achieved, hiSt.achieved), "ratio", 0)
	for _, ph := range []struct {
		name string
		st   openLoopStats
	}{{"open_lo", loSt}, {"open_hi", hiSt}} {
		// flagged, not failed: these say the numbers mean less, not that
		// an output was wrong
		if !ph.st.lat.supported {
			res.note("%s: %d samples support only p%g, not the p99 reported", ph.name, ph.st.lat.n, supportedPercentile(ph.st.lat.n))
		}
		if ph.st.achieved < 0.95 {
			res.note("%s: saturated, achieved only %.2f of the offered rate", ph.name, ph.st.achieved)
		}
	}
	return append(lo, hi...), nil
}

// servingPhases runs warm-up, the closed loop and the two open loops
// against the deployment and reports the serving metrics.
func servingPhases(wl *workload, o options, s *stack, res *result) error {
	settle()
	c := s.view.Composed
	g := newStream(o.seed, wl.mix, c.Tree, c.User.Rows(), wl.zipf)
	ss := newSenders(o.nproc, s.dep.url, o.seed)
	defer closeIdle(ss)

	// warm-up: caches fill, lazy index builds finish; not timed
	t := time.Now()
	runClosed(ss, g, share(o.seconds, wl.warmShare))
	res.mark("warm-up", t)
	before, err := s.dep.counters()
	if err != nil {
		return err
	}
	// closed loop: nproc clients back to back measure capacity
	closedDur := share(o.seconds, wl.closedShare)
	all, err := phase(wl, s, res, "closed", closedDur, func() []sample { return runClosed(ss, g, closedDur) })
	if err != nil {
		return err
	}
	res.set("throughput_rps", closedRate(all, closedDur), "req/s", len(all))
	open, err := openLoops(wl, o, s, ss, g, share(o.seconds, wl.openShare), res)
	if err != nil {
		return err
	}
	all = append(all, open...)
	after, err := s.dep.counters()
	if err != nil {
		return err
	}

	// correctness: every response a decodable 200, a seeded 2% re-derived
	res.count(all)
	t = time.Now()
	checked, errs := s.orc.checkAll(all, o.nproc)
	res.mark("oracle", t)
	res.Failed += len(errs)
	for _, err := range errs[:min(len(errs), 5)] {
		res.fail("oracle: %v", err)
	}
	res.set("oracle.checked", float64(checked), "count", 0)
	reportCounters(after.minus(before), wl, !o.quick, res)
	return nil
}

// trainingPhase runs the workload's training half and reports its
// metrics. An epoch is an operation; one with a non-finite
// log-likelihood failed.
func trainingPhase(wl *workload, o options, s *stack, res *result) (*trainOutcome, error) {
	defer res.mark("train+eval", time.Now())
	ts := wl.train
	if o.quick {
		ts = ts.quick()
	}
	epochs := ts.epochs(o.seconds)
	out, err := runTraining(s.tw, ts, epochs, o.nproc, o.seed)
	if err != nil {
		return nil, err
	}
	res.Attempted += epochs
	res.Failed += out.badEpoch
	res.set("train_samples_per_s", out.samplesPerSecond(), "samples/s", len(out.stats.EpochTime))
	res.set("heldout_auc", out.res.AUC, "AUC", out.res.Users)
	if out.res.Users == 0 {
		res.fail("evaluation scored no users")
	}
	return out, nil
}

// runWorkload measures one workload end to end (the untraced pass).
// start is when the process began: the first set-up is charged from
// there, the way a deployment would pay it.
func runWorkload(wl *workload, o options, start time.Time) (*result, error) {
	res := newResult(wl, o)
	var s *stack
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t := start
		if i > 0 {
			s.close()
			s = nil
			runtime.GC()
			t = time.Now()
		}
		var err error
		if s, err = setUp(wl, o, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer func() { s.close() }()
	res.mark("set-up x3", start)
	res.set("setup_s", median(setups), "s", len(setups))

	if wl.servesTrained() {
		out, err := trainingPhase(wl, o, s, res)
		if err != nil {
			return nil, err
		}
		if err := s.serveModel(wl, o, out.m, nil); err != nil {
			return nil, err
		}
		if err := servingPhases(wl, o, s, res); err != nil {
			return nil, err
		}
	} else {
		s.w.model = nil // the file is what is served; drop the generator's copy
		if err := servingPhases(wl, o, s, res); err != nil {
			return nil, err
		}
		if _, err := trainingPhase(wl, o, s, res); err != nil {
			return nil, err
		}
	}
	res.set("peak_rss_mib", peakRSSMiB(), "MiB", 0)
	return res, nil
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/api"
	"repro/internal/infer"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/train"
	"repro/internal/vecmath"
)

// The traced pass is one sequential client: the first tracedRequests
// requests of the workload's seeded stream after tracedWarmups warm-ups,
// or as many as fit in tracedShare of the run length.
const (
	tracedRequests = 3000
	tracedWarmups  = 300
	tracedShare    = 0.5
)

// serveRequest is the serve.Request the harness derives from its own
// scenario. With shard set it applies the router's rewrite (the shard is
// asked for the whole pre-pagination heap).
func (sc *scenario) serveRequest(c *model.Composed, shard bool) serve.Request {
	r := &sc.req
	req := serve.Request{
		User: r.User, Recent: sc.recent(), K: r.K, Offset: r.Offset,
		ExcludePurchased: r.ExcludePurchased, Categories: r.Categories, ExcludeCategories: r.ExcludeCategories,
		Precision: sc.prec, Pruned: r.Pruned,
	}
	if shard {
		req.K, req.Offset = r.K+r.Offset, 0
	}
	switch r.Strategy {
	case "cascade":
		cfg := infer.UniformCascade(c.Tree.Depth(), r.Keep)
		req.Cascade = &cfg
	case "diversified":
		req.MaxPerCategory, req.CatDepth = r.MaxPerCategory, r.CatDepth
	}
	return req
}

// replayer re-runs a traced request through the exported functions of
// each layer on the served snapshot, with the result cache out of the
// way, so every layer's cost is timed at its own boundary.
type replayer struct {
	c    *model.Composed
	orc  *oracle
	pool *infer.Pool
	// bare[i] is a cache-less server scoped like node i of the topology;
	// ranges[i] is that scope ({0,0} = the whole catalog).
	bare   []*serve.Server
	ranges [][2]int
	q      []float64
}

func newReplayer(s *stack, o options) (*replayer, error) {
	c := s.view.Composed
	r := &replayer{c: c, orc: s.orc, pool: infer.NewPool(o.nproc), q: make([]float64, c.K())}
	for _, n := range s.dep.nodes {
		lo, hi, _ := n.srv.ItemRange()
		sn, err := model.LoadFile(s.path)
		if err != nil {
			r.close()
			return nil, err
		}
		opts := []serve.Option{serve.WithWorkers(o.nproc), serve.WithItemRange(lo, hi)}
		if h := s.history(); h != nil {
			opts = append(opts, serve.WithHistory(h))
		}
		r.bare = append(r.bare, serve.NewSnapshot(sn, opts...))
		r.ranges = append(r.ranges, [2]int{lo, hi})
	}
	return r, nil
}

func (r *replayer) close() {
	r.pool.Close()
	for _, b := range r.bare {
		b.Close()
	}
}

// replayTimes are one request's layer costs against one node's scope,
// microseconds.
type replayTimes struct {
	recommend, buildQuery, execute, encode float64
	bytes                                  int
}

// traceCounts are the counter deltas read at the replay's execute
// boundary, where the work happens.
type traceCounts struct {
	requests                 int
	escalations              int64
	prunedExecs              int
	prunedItems, prunedScope int64
	fallbacks                int64
	eligibleShare            float64 // summed per-request eligible/items
}

// replay runs one scenario through every layer against node's scope.
func (r *replayer) replay(tr *tracer, sc *scenario, node int, tc *traceCounts) replayTimes {
	ctx := context.Background()
	lo, hi := r.ranges[node][0], r.ranges[node][1]
	req := sc.serveRequest(r.c, hi > lo)
	var rt replayTimes
	var items []vecmath.Scored
	rt.recommend = tr.timed("serve.recommend", node, func() {
		items, _ = r.bare[node].RecommendContext(ctx, req)
	}).dur()
	rt.buildQuery = tr.timed("model.build_query", node, func() {
		if sc.req.User == -1 {
			r.c.BuildSessionQueryInto(req.Recent, r.q)
		} else {
			r.c.BuildQueryInto(sc.req.User, req.Recent, r.q)
		}
	}).dur()
	pl := sc.plan(r.c, r.orc.purchasedOf(sc.req.User), lo, hi)
	esc, pc := infer.F32Escalations()+infer.I8Escalations(), infer.PruneCounters()
	var res infer.Result
	rt.execute = tr.timed("infer.execute", node, func() {
		res, _ = r.pool.Execute(ctx, r.c, r.q, pl)
	}).dur()
	tc.escalations += infer.F32Escalations() + infer.I8Escalations() - esc
	tc.eligibleShare += float64(res.Eligible) / float64(r.c.NumItems())
	if pl.Pruned {
		after := infer.PruneCounters()
		tc.prunedExecs++
		tc.prunedItems += after.ItemsPruned - pc.ItemsPruned
		tc.prunedScope += int64(r.c.NumItems())
		tc.fallbacks += after.Fallbacks - pc.Fallbacks
	}
	resp := api.RecommendResponse{Items: make([]api.Item, len(items)), ModelID: r.c.Fingerprint()}
	for j, it := range items {
		resp.Items[j] = api.Item{Item: it.ID, Score: it.Score}
	}
	rt.encode = tr.timed("api.encode", node, func() {
		b, _ := json.Marshal(&resp)
		rt.bytes = len(b)
	}).dur()
	return rt
}

// hits reads every node's result-cache hit counter straight off the
// servers the harness owns.
func (d *deployment) hits() []int64 {
	out := make([]int64, len(d.nodes))
	for i, n := range d.nodes {
		cs, _ := n.srv.CacheStats()
		out[i] = cs.Hits
	}
	return out
}

// layerTimes is one traced request's latency budget, microseconds. The
// client round trip splits exactly into the network's self time, the
// router's self time and the time its serve handlers cover; the covered
// time is then attributed to the layers below in proportion to what the
// replay measured on every node. (Behind a router the three handlers
// share the machine's cores, so their spans overlap only partly and all
// three cost wall time, not just the slowest.)
type layerTimes struct {
	kind                               string
	routed                             bool
	roundtrip, netSelf                 float64
	routerSelf, shardMedian, straggler float64
	handlerSelf, decode, encode        float64
	recommendSelf, buildQuery, execute float64 // 0 when the cache answered
	executeRaw                         float64 // mean replayed execute per node, unscaled
	respBytes                          int
}

// tracedPass sends the stream's requests one at a time through the
// wrapped deployment, replays each through the layers, and returns the
// per-request budgets.
func tracedPass(wl *workload, o options, s *stack, tr *tracer, rp *replayer, res *result) ([]layerTimes, traceCounts) {
	c := s.view.Composed
	g := newStream(o.seed, wl.mix, c.Tree, c.User.Rows(), wl.zipf)
	snd := newSenders(1, s.dep.url, o.seed)
	defer closeIdle(snd)
	for i := 0; i < tracedWarmups; i++ {
		snd[0].roundtrip(g.next())
	}
	var out []layerTimes
	var tc traceCounts
	sx := s.orc.newScratch()
	nodes := len(s.dep.nodes)
	deadline := time.Now().Add(share(o.seconds, tracedShare))
	tr.on.Store(true)
	defer tr.on.Store(false)
	for i := 0; i < tracedRequests && time.Now().Before(deadline); i++ {
		sc := g.next()
		tr.begin(int64(i))
		before := s.dep.hits()
		start := time.Now()
		resp, read, ok := snd[0].roundtrip(sc)
		rt := tr.add("client.roundtrip", 0, start, read)
		after := s.dep.hits()
		res.Attempted++
		if !ok {
			res.Failed++
			continue
		}
		if i%50 == 0 { // the same 2% oracle sample the untraced pass takes
			if err := s.orc.check(sc, resp, sx); err != nil {
				res.Failed++
				res.fail("oracle: %v", err)
			}
		}
		front := rt
		handlers := make([]span, 0, nodes)
		for _, sp := range tr.inFlight() {
			switch sp.Name {
			case "router.handler":
				front = sp
			case "serve.handler":
				handlers = append(handlers, sp)
			}
		}
		if len(handlers) != nodes {
			res.fail("request %d recorded %d serve.handler spans for %d nodes", i, len(handlers), nodes)
			continue
		}
		lt := layerTimes{kind: sc.planKind(), routed: s.dep.front != nil, roundtrip: rt.dur()}
		covered := front.dur() - selfTime(front, handlers)
		if lt.routed {
			lt.netSelf = selfTime(rt, []span{front})
			lt.routerSelf = front.dur() - covered
		} else {
			lt.netSelf = rt.dur() - covered
		}

		replayStart := time.Now()
		decode := tr.timed("api.decode", 0, func() {
			var wr api.RecommendRequest
			_ = json.Unmarshal(sc.body, &wr)
		}).dur()
		var total float64
		durs := make([]float64, nodes)
		for j, h := range handlers {
			r := rp.replay(tr, sc, h.Node, &tc)
			durs[j], total = h.dur(), total+h.dur()
			lt.decode += decode
			lt.encode += r.encode
			lt.executeRaw += r.execute / float64(nodes)
			lt.respBytes = max(lt.respBytes, r.bytes)
			below := decode + r.encode
			if after[h.Node] == before[h.Node] { // the live handler swept too
				self := max(r.recommend-r.buildQuery-r.execute, 0)
				lt.recommendSelf, lt.buildQuery, lt.execute = lt.recommendSelf+self, lt.buildQuery+r.buildQuery, lt.execute+r.execute
				below += self + r.buildQuery + r.execute
			}
			lt.handlerSelf += max(h.dur()-below, 0)
		}
		tr.add("replay", 0, replayStart, time.Now())
		tc.requests++
		lt.shardMedian = median(durs)
		lt.straggler = slices.Max(durs) - lt.shardMedian
		// overlap < 1 when handlers ran side by side: scale what they
		// spent to the wall time they covered
		overlap := covered / total
		for _, f := range []*float64{&lt.handlerSelf, &lt.decode, &lt.encode, &lt.recommendSelf, &lt.buildQuery, &lt.execute} {
			*f *= overlap
		}
		out = append(out, lt)
	}
	return out, tc
}

// column extracts one field of every budget that passes keep (nil keeps
// all).
func column(lts []layerTimes, keep func(*layerTimes) bool, get func(*layerTimes) float64) []float64 {
	var out []float64
	for i := range lts {
		if keep == nil || keep(&lts[i]) {
			out = append(out, get(&lts[i]))
		}
	}
	return out
}

// reportLayers reduces the traced pass to the per-layer metrics. Each is
// a median over the requests the layer took part in; the budget check
// sums the layers' medians over all requests (a cache hit spends nothing
// in the sweep layers) and compares the sum with the round-trip median.
func reportLayers(lts []layerTimes, tc traceCounts, res *result) {
	var budget float64
	med := func(name string, inBudget bool, keep func(*layerTimes) bool, get func(*layerTimes) float64) {
		xs := column(lts, keep, get)
		res.set(name, median(xs), "us", len(xs))
		if inBudget {
			budget += median(column(lts, nil, get))
		}
	}
	routed := func(lt *layerTimes) bool { return lt.routed }
	swept := func(lt *layerTimes) bool { return lt.execute > 0 }
	med("client.roundtrip_us", false, nil, func(lt *layerTimes) float64 { return lt.roundtrip })
	med("net.roundtrip_self_us", true, nil, func(lt *layerTimes) float64 { return lt.netSelf })
	med("router.self_us", true, routed, func(lt *layerTimes) float64 { return lt.routerSelf })
	med("router.shard_handler_us", false, routed, func(lt *layerTimes) float64 { return lt.shardMedian })
	med("router.shard_straggler_us", false, routed, func(lt *layerTimes) float64 { return lt.straggler })
	med("serve.handler_self_us", true, nil, func(lt *layerTimes) float64 { return lt.handlerSelf })
	med("api.decode_us", true, nil, func(lt *layerTimes) float64 { return lt.decode })
	med("api.encode_us", true, nil, func(lt *layerTimes) float64 { return lt.encode })
	med("serve.recommend_self_us", true, swept, func(lt *layerTimes) float64 { return lt.recommendSelf })
	med("model.build_query_us", true, swept, func(lt *layerTimes) float64 { return lt.buildQuery })
	for _, kind := range planKinds {
		med("infer.execute_us."+kind, false, func(lt *layerTimes) bool { return lt.kind == kind },
			func(lt *layerTimes) float64 { return lt.executeRaw })
	}
	budget += median(column(lts, nil, func(lt *layerTimes) float64 { return lt.execute }))
	res.set("api.resp_bytes", median(column(lts, nil, func(lt *layerTimes) float64 { return float64(lt.respBytes) })), "bytes", len(lts))
	cover := 0.0
	if rt := res.Metrics["client.roundtrip_us"].Value; rt > 0 {
		cover = budget / rt
	}
	res.set("trace.budget_cover_ratio", cover, "ratio", len(lts))

	n := float64(max(tc.requests, 1))
	res.set("infer.escalations_per_kreq", 1000*float64(tc.escalations)/n, "1/kreq", tc.requests)
	res.set("infer.eligible_ratio", tc.eligibleShare/n, "ratio", tc.requests)
	skipped, fallback := 0.0, 0.0
	if tc.prunedExecs > 0 {
		skipped = float64(tc.prunedItems) / float64(max(tc.prunedScope, 1))
		fallback = float64(tc.fallbacks) / float64(tc.prunedExecs)
	}
	res.set("infer.prune_items_skipped_ratio", skipped, "ratio", tc.prunedExecs)
	res.set("infer.prune_fallback_ratio", fallback, "ratio", tc.prunedExecs)
}

// timeMedian runs fn reps times and returns the median duration.
func timeMedian(reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		start := time.Now()
		fn()
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(median(ds))
}

// kernelLayers times the raw vecmath kernels over the workload's item
// slab, and the executor overheads defined against them.
func kernelLayers(c *model.Composed, pool *infer.Pool, res *result) {
	ix, n, k := c.Index, c.NumItems(), c.K()
	rng := vecmath.NewRNG(99)
	q := make([]float64, k)
	q32 := make([]float32, k)
	u := make([]int8, k)
	for i := range q {
		q[i] = 0.1 * rng.NormFloat64()
		q32[i] = float32(q[i])
	}
	qscale, sumQ, _ := vecmath.QuantizeQuery(u, q)
	dst, dst32 := make([]float64, n), make([]float32, n)
	perItem := func(d time.Duration) float64 { return float64(d) / float64(n) }
	const reps = 9
	f32 := timeMedian(reps, func() { ix.ItemScoresRange32Into(q32, 0, n, dst32) })
	res.set("vecmath.sweep_f32_ns_item", perItem(f32), "ns/item", reps)
	res.set("vecmath.sweep_i8_ns_item", perItem(timeMedian(reps, func() { ix.ItemScoresRangeI8Into(u, qscale, sumQ, 0, n, dst) })), "ns/item", reps)
	res.set("vecmath.sweep_f64_ns_item", perItem(timeMedian(reps, func() { ix.ItemScoresRangeInto(q, 0, n, dst) })), "ns/item", reps)
	// computed from K, not measured: K f32 factors plus the f32 bias
	res.set("vecmath.sweep_f32_bytes_item", float64(4*k+4), "bytes/item", 0)
	st := vecmath.NewTopKStream(pageK)
	push := timeMedian(reps, func() {
		st.Reset(pageK)
		for i, s := range dst {
			st.Push(i, s)
		}
	})
	res.set("vecmath.topk_push_ns", perItem(push), "ns", reps)

	// what the executor adds to one raw sweep: heap, threshold, exact
	// rescore, escalations — the number a fused sweep must lower
	ctx := context.Background()
	serial := timeMedian(reps, func() { _, _ = infer.Execute(ctx, c, q, infer.Plan{K: pageK, MaxWorkers: 1}) })
	res.set("infer.dense_overhead_x", float64(serial)/float64(f32), "x", reps)
	// coalescing cannot engage end to end (at most nproc requests are in
	// flight), so the shared multi-query sweep is tracked here only
	const batch = 8
	qs := make([][]float64, batch)
	pls := make([]infer.Plan, batch)
	for i := range qs {
		qs[i] = make([]float64, k)
		for j := range qs[i] {
			qs[i][j] = 0.1 * rng.NormFloat64()
		}
		pls[i] = infer.Plan{K: pageK}
	}
	sweep := timeMedian(5, func() { _, _ = pool.ExecuteBatch(ctx, c, qs, pls) })
	res.set("infer.batch_sweep_us_per_query", float64(sweep)/1e3/batch, "us", 5)
}

// serveLayers measures what can be read off the serve layer from
// outside: a reload, and allocations per uncached request.
func serveLayers(wl *workload, o options, s *stack, rp *replayer, res *result) error {
	var err error
	reload := timeMedian(3, func() {
		if e := s.dep.nodes[0].h.Reload(); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	res.set("serve.reload_ms", float64(reload)/1e6, "ms", 3)

	c := s.view.Composed
	g := newStream(o.seed+2, wl.mix, c.Tree, c.User.Rows(), 0)
	const reqs = 200
	scs := make([]serve.Request, reqs)
	for i := range scs {
		scs[i] = g.next().serveRequest(c, rp.ranges[0][1] > rp.ranges[0][0])
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for _, req := range scs {
		_, _ = rp.bare[0].RecommendContext(context.Background(), req)
	}
	runtime.ReadMemStats(&ms)
	res.set("serve.allocs_per_req", float64(ms.Mallocs-before)/reqs, "allocs", reqs)
	return nil
}

// overheadPct compares single-client round trips through the wrapped
// deployment and an unwrapped twin of it: what tracing itself costs.
func overheadPct(wl *workload, o options, s *stack, res *result) error {
	raw, err := deploy(s.deployConfig(wl, o, nil))
	if err != nil {
		return err
	}
	defer raw.close()
	c := s.view.Composed
	g := newStream(o.seed+3, wl.mix, c.Tree, c.User.Rows(), 0)
	snd := []*sender{newSenders(1, s.dep.url, o.seed)[0], newSenders(1, raw.url, o.seed)[0]}
	defer closeIdle(snd)
	lat := make([][]float64, 2) // 0 wrapped, 1 unwrapped
	for i := 0; i < 300; i++ {
		sc := g.next()
		for _, side := range []int{i % 2, 1 - i%2} { // alternate who goes first
			start := time.Now()
			_, read, _ := snd[side].roundtrip(sc)
			lat[side] = append(lat[side], float64(read.Sub(start)))
		}
	}
	res.set("trace.overhead_pct", 100*(median(lat[0])/median(lat[1])-1), "%", len(lat[0]))
	return nil
}

// trainLayers reports the training half's per-layer numbers and records
// its epochs as spans: the parallel run's epoch series plus one extra
// epoch at Workers=1 through the locked machinery (Fig. 8b's baseline).
func trainLayers(wl *workload, o options, s *stack, out *trainOutcome, tr *tracer, res *result) error {
	ts := wl.train
	if o.quick {
		ts = ts.quick()
	}
	tr.on.Store(true)
	defer tr.on.Store(false)
	tr.begin(-1)
	var epochs []float64
	at := time.Now()
	for _, d := range out.stats.EpochTime {
		epochs = append(epochs, d.Seconds())
		tr.add("train.epoch", 0, at, at.Add(d))
		at = at.Add(d)
	}
	m, err := s.tw.newModel(ts, o.seed)
	if err != nil {
		return err
	}
	cfg := trainConfig(1, 1, o.seed)
	cfg.ForceLocked = true
	start := time.Now()
	one, err := train.Train(m, s.tw.history, cfg)
	if err != nil {
		return err
	}
	tr.add("train.epoch_serial", 0, start, start.Add(one.EpochTime[0]))
	epoch := median(epochs)
	res.set("train.epoch_s", epoch, "s", len(epochs))
	res.set("train.step_ns", 1e9/out.samplesPerSecond(), "ns", int(out.stats.Samples))
	res.set("train.scaling_x", one.EpochTime[0].Seconds()/epoch, "x", 1)
	res.set("train.final_loglik", out.stats.AvgLogLik[len(out.stats.AvgLogLik)-1], "nat", 0)
	res.set("eval.users_per_s", float64(out.res.Users)/out.evalTime.Seconds(), "1/s", out.res.Users)
	res.set("synth.generate_s", s.tw.genTime.Seconds(), "s", 0)
	return nil
}

// runTraced is the traced pass of one workload. It reports the
// per-layer metrics; end-to-end numbers always come from the untraced
// pass, and the difference between the two is the tracing overhead.
func runTraced(wl *workload, o options) (*result, error) {
	res := newResult(wl, o)
	tr := newTracer(wl.shards > 1)
	t := time.Now()
	s, err := setUp(wl, o, tr)
	if err != nil {
		return nil, err
	}
	defer func() { s.close() }()
	res.mark("set-up", t)

	var out *trainOutcome
	if wl.servesTrained() {
		if out, err = trainingPhase(wl, o, s, res); err != nil {
			return nil, err
		}
		if err := s.serveModel(wl, o, out.m, tr); err != nil {
			return nil, err
		}
		res.set("model.compose_ms", float64(out.compose)/1e6, "ms", 1)
	} else {
		res.set("model.compose_ms", float64(timeMedian(1, func() { s.w.model.Compose() }))/1e6, "ms", 1)
		s.w.model = nil
	}
	res.set("model.save_ms", float64(s.saveTime)/1e6, "ms", 1)
	res.set("model.load_ms", float64(s.loadTime)/1e6, "ms", 1)
	res.set("model.file_mib", float64(s.fileBytes)/(1<<20), "MiB", 0)
	settle()
	rp, err := newReplayer(s, o)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	before, err := s.dep.counters()
	if err != nil {
		return nil, err
	}

	t = time.Now()
	lts, tc := tracedPass(wl, o, s, tr, rp, res)
	res.mark("traced pass", t)
	reportLayers(lts, tc, res)

	t = time.Now()
	kernelLayers(s.view.Composed, rp.pool, res)
	if err := serveLayers(wl, o, s, rp, res); err != nil {
		return nil, err
	}
	if err := overheadPct(wl, o, s, res); err != nil {
		return nil, err
	}
	res.mark("layer probes", t)

	// short open loops through the wrapped handlers: the latency
	// quantiles too noisy to gate, how late the generator runs, and
	// whether the system keeps up at the high rate
	c := s.view.Composed
	ss := newSenders(o.nproc, s.dep.url, o.seed)
	dur := share(o.seconds, 0.15)
	// the traced pass's stream again (the same hot users), but starting
	// half a permutation on so no key of the traced pass recurs
	g := newStream(o.seed, wl.mix, c.Tree, c.User.Rows(), wl.zipf)
	g.cursor = len(g.users) / 2
	runClosed(ss, g, dur/6) // the probes reloaded the snapshot; let the cache refill
	open, err := openLoops(wl, o, s, ss, g, dur, res)
	closeIdle(ss)
	if err != nil {
		return nil, err
	}
	res.count(open)
	after, err := s.dep.counters()
	if err != nil {
		return nil, err
	}
	reportCounters(after.minus(before), wl, false, res)
	fan := 0
	if s.dep.front != nil {
		fan = len(s.dep.nodes)
	}
	res.set("router.fanout", float64(fan), "count", 0)

	if out == nil {
		if out, err = trainingPhase(wl, o, s, res); err != nil {
			return nil, err
		}
	}
	if err := trainLayers(wl, o, s, out, tr, res); err != nil {
		return nil, err
	}
	if err := tr.writeJSONL(filepath.Join(o.outDir, "trace-"+wl.name+".jsonl")); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return res, nil
}

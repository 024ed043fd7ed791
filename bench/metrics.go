package main

// metricDef declares one metric of the benchmark: BENCHMARK.json lists
// exactly these, and every run reports every one of its pass.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare fails it; per-layer metrics carry
	// none.
	bound float64
}

// endToEnd are the gated metrics a user of the system would see; the
// untraced pass reports them. Bounds were set from the run-to-run
// spreads recorded in README.md: on the reference sandbox the host
// itself moves anything timed by 15-20% between runs, so every timed
// metric carries the widest bound the benchmark contract allows.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "req/s", "higher", 0.25},
	{"slo_ok_hi_pct", "%", "higher", 0.10},
	{"peak_rss_mib", "MiB", "lower", 0.20},
	{"train_samples_per_s", "samples/s", "higher", 0.25},
	{"heldout_auc", "AUC", "higher", 0.03},
}

// perLayer are the metrics of single layers (layer = repo module, the
// name's prefix); the traced pass reports them. A metric that does not
// apply to a workload — router.* on one node, an execute kind its mix
// never sends — reads 0 there.
var perLayer = []metricDef{
	// The open-loop latency quantiles are end-to-end numbers, but their
	// run-to-run spread on the reference sandbox (25-50%, README.md) is
	// wider than any bound the contract allows, so they are reported
	// here, ungated; slo_ok_hi_pct is the tail's gate.
	{"p50_lo_ms", "ms", "lower", 0},
	{"p99_lo_ms", "ms", "lower", 0},
	{"p99_hi_ms", "ms", "lower", 0},
	{"api.decode_us", "us", "lower", 0},
	{"api.encode_us", "us", "lower", 0},
	{"api.resp_bytes", "bytes", "lower", 0},
	{"serve.handler_self_us", "us", "lower", 0},
	{"serve.recommend_self_us", "us", "lower", 0},
	{"serve.cache_hit_ratio", "ratio", "higher", 0},
	{"serve.cache_evictions", "count", "lower", 0},
	{"serve.cache_stale", "count", "lower", 0},
	{"serve.allocs_per_req", "allocs", "lower", 0},
	{"serve.reload_ms", "ms", "lower", 0},
	{"serve.shed_count", "count", "lower", 0},
	{"serve.deadline_count", "count", "lower", 0},
	{"model.build_query_us", "us", "lower", 0},
	{"model.compose_ms", "ms", "lower", 0},
	{"model.save_ms", "ms", "lower", 0},
	{"model.load_ms", "ms", "lower", 0},
	{"model.file_mib", "MiB", "lower", 0},
	{"infer.execute_us.dense_f32", "us", "lower", 0},
	{"infer.execute_us.dense_i8", "us", "lower", 0},
	{"infer.execute_us.dense_f64", "us", "lower", 0},
	{"infer.execute_us.paged", "us", "lower", 0},
	{"infer.execute_us.session", "us", "lower", 0},
	{"infer.execute_us.pruned", "us", "lower", 0},
	{"infer.execute_us.filtered", "us", "lower", 0},
	{"infer.execute_us.cascade", "us", "lower", 0},
	{"infer.execute_us.diversified", "us", "lower", 0},
	{"infer.dense_overhead_x", "x", "lower", 0},
	{"infer.escalations_per_kreq", "1/kreq", "lower", 0},
	{"infer.batch_sweep_us_per_query", "us", "lower", 0},
	{"infer.prune_items_skipped_ratio", "ratio", "higher", 0},
	{"infer.prune_fallback_ratio", "ratio", "lower", 0},
	{"infer.eligible_ratio", "ratio", "lower", 0},
	{"vecmath.sweep_f32_ns_item", "ns/item", "lower", 0},
	{"vecmath.sweep_i8_ns_item", "ns/item", "lower", 0},
	{"vecmath.sweep_f64_ns_item", "ns/item", "lower", 0},
	{"vecmath.sweep_f32_bytes_item", "bytes/item", "lower", 0},
	{"vecmath.topk_push_ns", "ns", "lower", 0},
	{"router.self_us", "us", "lower", 0},
	{"router.shard_handler_us", "us", "lower", 0},
	{"router.shard_straggler_us", "us", "lower", 0},
	{"router.fanout", "count", "lower", 0},
	{"router.errors", "count", "lower", 0},
	{"router.hedges", "count", "lower", 0},
	{"train.epoch_s", "s", "lower", 0},
	{"train.step_ns", "ns", "lower", 0},
	{"train.scaling_x", "x", "higher", 0},
	{"train.final_loglik", "nat", "higher", 0},
	{"eval.users_per_s", "1/s", "higher", 0},
	{"synth.generate_s", "s", "lower", 0},
	{"net.roundtrip_self_us", "us", "lower", 0},
	{"client.roundtrip_us", "us", "lower", 0},
	{"load.late_p99_ms", "ms", "lower", 0},
	{"load.achieved_rate_ratio", "ratio", "higher", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.budget_cover_ratio", "ratio", "higher", 0},
}

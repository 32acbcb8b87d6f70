package main

// metricDef names one reported metric. The two lists below are the single
// source of truth for what a run prints: BENCHMARK.json repeats them and a
// test holds the two in step.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd is what a user of the system sees, reported by every workload
// from the untraced run. A gated metric may never read 0, so failures are
// gated as the share of operations that did not fail, success_pct (the
// failure ratio itself is client.fail_ratio below and the result's
// attempted/failed counts), and any failure exits non-zero.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"p50_ms", "ms"},
	{"p95_ms", "ms"},
	{"cpu_ms_per_query", "ms"},
	{"alloc_kb_per_query", "KiB"},
	{"store_bytes_per_row", "B"},
	{"shard_balance_pct", "%"},
	{"success_pct", "%"},
}

// perLayer is reported by every workload from the traced run. A metric of
// a layer the workload does not pass through (router.* off scatter-2x,
// server.* on batch-*, the open-loop steps off serve-miss) reads 0.
var perLayer = []metricDef{
	// internal/slm: stats deltas over the window, then the shard-file probe.
	{"slm.ion_hits_per_query", "count"},
	{"slm.candidates_per_query", "count"},
	{"slm.pruned_per_query", "count"},
	{"slm.scored_per_query", "count"},
	{"slm.prune_ratio", "ratio"},
	{"slm.score_yield", "ratio"},
	{"slm.search_us_p50", "us"},
	{"slm.search_us_p95", "us"},
	{"slm.ns_per_posting", "ns"},
	{"slm.cpu_share_pct", "%"},
	{"slm.index_mb", "MiB"},
	{"slm.build_s", "s"},
	{"slm.write_s", "s"},
	{"slm.open_mapped_ms", "ms"},
	{"slm.load_heap_ms", "ms"},
	{"slm.verify_ms", "ms"},

	// internal/spectrum, internal/sched, internal/engine.
	{"spectrum.preprocess_us", "us"},
	{"sched.chunks_per_batch", "count"},
	{"sched.chunk_size", "count"},
	{"sched.steals_per_batch", "count"},
	{"sched.stolen_share", "ratio"},
	{"sched.worker_imbalance_pct", "%"},
	{"sched.worker_busy_share", "ratio"},
	{"engine.search_ms_p50", "ms"},
	{"engine.search_ms_p95", "ms"},
	{"engine.self_share", "ratio"},
	{"engine.shard_imbalance_pct", "%"},
	{"engine.wasted_cpu_pct", "%"},
	{"engine.new_session_s", "s"},
	{"engine.save_s", "s"},
	{"engine.save_partitioned_s", "s"},
	{"engine.open_mmap_ms", "ms"},
	{"engine.open_heap_ms", "ms"},
	{"engine.first_batch_ms", "ms"},
	{"core.group_s", "s"},
	{"core.partition_s", "s"},

	// internal/api and internal/server.
	{"api.decode_us", "us"},
	{"api.encode_us", "us"},
	{"api.merge_us", "us"},
	{"api.request_bytes", "B"},
	{"api.response_bytes", "B"},
	{"server.handler_ms_p50", "ms"},
	{"server.handler_ms_p95", "ms"},
	{"server.self_ms_p50", "ms"},
	{"server.queries_per_batch", "count"},
	{"server.rejected_429", "count"},

	// internal/qcache.
	{"qcache.key_us", "us"},
	{"qcache.hit_us", "us"},
	{"qcache.hit_ratio", "ratio"},
	{"qcache.collapsed", "count"},
	{"qcache.evictions", "count"},
	{"qcache.resident_mb", "MiB"},

	// internal/router.
	{"router.handler_ms_p50", "ms"},
	{"router.handler_ms_p95", "ms"},
	{"router.self_ms_p50", "ms"},
	{"router.holder_skew_ms_p50", "ms"},
	{"router.failovers", "count"},
	{"router.rejected_set_down", "count"},

	// The load generator's own view: diagnostics, not program layers.
	{"client.transport_ms_p50", "ms"},
	{"client.p99_ms", "ms"},
	{"client.fail_ratio", "ratio"},
	{"client.open_p95_ms_r150", "ms"},
	{"client.open_p95_ms_r300", "ms"},
	{"client.open_p95_ms_r450", "ms"},
	{"client.slo_rate_rps", "1/s"},
	{"client.sched_lag_ms_p95", "ms"},

	// Context for setup_s and alloc_kb_per_query.
	{"gen.corpus_s", "s"},
	{"proc.peak_rss_mb", "MiB"},
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// metricValue is one reported number in the result line's wire form.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect renders defs from vals; a metric the run did not set reads 0.
func collect(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

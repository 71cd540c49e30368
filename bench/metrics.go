package main

// metricDef is one reported metric: its name and unit exactly as listed in
// BENCHMARK.json (a test keeps the two in step).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the operator sees, printed by every
// untraced run of every workload. The p99 latencies are per-layer: on a
// shared host their run-to-run spread is several times any bound a
// regression gate could use.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"mem_mb", "MiB"},
	{"eps2", "ratio"},
	{"compress_s", "s"},
	{"cold_start_ms", "ms"},
	{"matvec_p50_ms", "ms"},
	{"matmat16_p50_ms", "ms"},
	{"solve_s", "s"},
	{"serve_p50_ms", "ms"},
	{"goodput_rps", "1/s"},
}

// perLayer are the single-layer metrics, printed by every traced run.
var perLayer = []metricDef{
	// set-up cycles → compress_s, eps2, cold_start_ms
	{"ann.search_s", "s"},
	{"ann.oracle_entries", "count"},
	{"ann.recall", "ratio"},
	{"tree.build_s", "s"},
	{"core.lists_s", "s"},
	{"core.skel_s", "s"},
	{"core.cache_s", "s"},
	{"core.oracle_entries", "count"},
	{"core.avg_rank", "count"},
	{"core.direct_frac", "ratio"},
	{"sched.busy_frac", "ratio"},
	{"plan.compile_ms", "ms"},
	{"store.bytes", "bytes"},
	{"store.save_ms", "ms"},
	{"store.open_ms", "ms"},
	{"store.load_ms", "ms"},
	{"store.first_matvec_ms", "ms"},
	// replay phase → matvec_p50_ms, matmat16_p50_ms, solve_s
	{"matvec_p99_ms", "ms"},
	{"plan.replay_r1_ms", "ms"},
	{"plan.replay_r16_ms", "ms"},
	{"plan.ops", "count"},
	{"plan.stages", "count"},
	{"plan.flops_per_col", "flop"},
	{"plan.gflops_r16", "GFLOP/s"},
	{"plan.gemm_fraction_r16", "ratio"},
	{"plan.gbps_r1", "GB/s"},
	{"linalg.gemv_gflops", "GFLOP/s"},
	{"linalg.gemm_gflops_w16", "GFLOP/s"},
	{"core.interp_r1_ms", "ms"},
	{"core.interp_r16_ms", "ms"},
	{"plan.x_interp_r16", "ratio"},
	{"replay.allocs_per_op", "count"},
	{"workspace.hit_ratio", "ratio"},
	{"krylov.cg_iters", "count"},
	{"krylov.cg_residual", "ratio"},
	// serving phase → serve_p50_ms, goodput_rps, failures
	{"serve_p99_ms", "ms"},
	{"serve.direct_p50_ms", "ms"},
	{"batch.p50_ms", "ms"},
	{"batch.cols_per_flush", "count"},
	{"plan.replay_r2_ms", "ms"},
	{"linalg.gemm_gflops_w2", "GFLOP/s"},
	{"serve.swap_ms", "ms"},
	{"serve.status_429", "count"},
	{"serve.status_503", "count"},
	{"serve.status_other", "count"},
	{"gen.sent", "count"},
	{"gen.late_p99_ms", "ms"},
	{"fail_frac", "ratio"},
	// self time of each layer's spans, minus their traced children
	{"linalg.self_s", "s"},
	{"ann.self_s", "s"},
	{"tree.self_s", "s"},
	{"core.self_s", "s"},
	{"plan.self_s", "s"},
	{"store.self_s", "s"},
	{"serve.self_s", "s"},
	{"krylov.self_s", "s"},
}

// layersWithSpans are the layers whose self time is reported.
var layersWithSpans = []string{"linalg", "ann", "tree", "core", "plan", "store", "serve", "krylov"}

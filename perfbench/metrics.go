package main

// metricDef is one metric of the catalog; BENCHMARK.json lists the same
// names and units.
type metricDef struct{ name, unit string }

// endToEnd are reported by every untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"solve_s", "s"},
	{"latency_ms_p50", "ms"},
	{"cost_ratio", "ratio"},
	{"max_rss_mb", "MB"},
}

// perLayer are reported by every traced run; the workload that exercises
// each one is given in README.md, the others read 0.
var perLayer = []metricDef{
	{"bb.expanded", "count"},
	{"bb.ns_per_expansion", "ns"},
	{"bb.prune_ratio", "frac"},
	{"bb.pruned_ultrametric", "count"},
	{"bb.pruned_dominance", "count"},
	{"bb.expand_ns", "ns"},
	{"bb.propagate_ns", "ns"},
	{"bb.setup_us", "us"},
	{"par_solve_s", "s"},
	{"pbb.steals", "count"},
	{"pbb.parks", "count"},
	{"pbb.donates", "count"},
	{"pbb.work_excess", "ratio"},
	{"pbb.speedup", "x"},
	{"compact.hierarchy_ms", "ms"},
	{"compact.reduce_ms", "ms"},
	{"compact.subproblems", "count"},
	{"compact.max_group", "count"},
	{"upgma.upgmm_us", "us"},
	{"core.self_ms", "ms"},
	{"matrix.parse_us", "us"},
	{"matrix.fingerprint_us", "us"},
	{"latency_ms_p99", "ms"},
	{"capacity_rps", "1/s"},
	{"web.hit_rate", "frac"},
	{"web.miss_ms_p99", "ms"},
	{"web.overhead_ms", "ms"},
	{"web.server_ms", "ms"},
	{"web.coalesced", "count"},
	{"web.shed", "count"},
	{"web.late_ms_p99", "ms"},
	{"dist.units", "count"},
	{"dist.dispatches", "count"},
	{"dist.requeues", "count"},
	{"dist.stale", "count"},
	{"dist.work_excess", "ratio"},
	{"dist.pruned_ultrametric", "count"},
	{"failed_frac", "frac"},
	{"trace_overhead_frac", "frac"},
}

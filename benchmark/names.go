package main

// metric declares one reported number: its name (an API — issues cite it
// verbatim), unit, which direction is better, and for end-to-end metrics
// the share of the parent's median by which it may get worse.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// nominalSeconds is the timed window BENCHMARK.json fixes (run_seconds);
// window_scale is measured against it.
const nominalSeconds = 10

// gatedMetrics are the end-to-end metrics every workload reports and
// BENCHMARK.json declares with their bounds.
//
// The bounds are what the machine allows, not what one would wish for. On
// the 2-CPU shared runner the benchmark was sized on, the same code run ten
// times in a row reads 3 to 19% apart (interquartile range over median) on
// every timing, depending on the minute; baseline/README.md has the
// measurements. A bound below the noise would reject unchanged code.
var gatedMetrics = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"setup_heap_mb", "MiB", "lower", 0.15},
	{"decisions_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_decision", "ms", "lower", 0.25},
	{"allocs_per_decision", "1", "lower", 0.10},
	{"bytes_per_decision", "B", "lower", 0.25},
}

// tailMetrics are end-to-end metrics only some workloads have a sample
// for (null elsewhere), and failed_share, whose bound is absolute: any rise
// is worse. They are printed, stamped and compared like the gated ones but
// cannot be declared in BENCHMARK.json, whose metrics must be non-zero
// numbers on every workload.
var tailMetrics = []metric{
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"failed_share", "ratio", "lower", 0},
}

// endToEndMetrics is every end-to-end metric, gated first.
func endToEndMetrics() []metric {
	return append(append([]metric(nil), gatedMetrics...), tailMetrics...)
}

// layerMetrics are the per-layer metrics of the traced pass, named
// layer.metric. A layer is a module of the repository; "server" and
// "bench" numbers come from the driver's own traced run, the rest from
// that layer's probe process.
var layerMetrics = []metric{
	{Name: "graph.analysis_us", Unit: "us", Better: "lower"},
	{Name: "graph.check_us", Unit: "us", Better: "lower"},
	{Name: "graph.shortest_excl_us", Unit: "us", Better: "lower"},
	{Name: "graph.disjoint_paths_us", Unit: "us", Better: "lower"},
	{Name: "graph.arena_extend_ns", Unit: "ns", Better: "lower"},
	{Name: "graph.maskedview_event_us", Unit: "us", Better: "lower"},

	{Name: "flood.plan_compile_ms", Unit: "ms", Better: "lower"},
	{Name: "flood.plan_receipts", Unit: "count", Better: "lower"},
	{Name: "flood.masked_compile_ms", Unit: "ms", Better: "lower"},
	{Name: "flood.delta_compile_ms", Unit: "ms", Better: "lower"},
	{Name: "flood.replay_phase_us", Unit: "us", Better: "lower"},
	{Name: "flood.dynamic_phase_us", Unit: "us", Better: "lower"},
	{Name: "flood.delta_phase_us", Unit: "us", Better: "lower"},
	{Name: "flood.query_us", Unit: "us", Better: "lower"},
	{Name: "flood.plan_compiles", Unit: "1/kdecision", Better: "lower"},
	{Name: "flood.masked_compiles", Unit: "1/kdecision", Better: "lower"},
	{Name: "flood.replay_sessions", Unit: "1/kdecision", Better: "higher"},
	{Name: "flood.delta_replays", Unit: "1/kdecision", Better: "higher"},
	{Name: "flood.dynamic_sessions", Unit: "1/kdecision", Better: "lower"},
	{Name: "flood.replay_hit_rate", Unit: "ratio", Better: "higher"},

	{Name: "core.honest_step_us", Unit: "us", Better: "lower"},
	{Name: "core.phase_end_us", Unit: "us", Better: "lower"},
	{Name: "core.vector_step_us_per_lane", Unit: "us", Better: "lower"},
	{Name: "core.algo2_step_us", Unit: "us", Better: "lower"},
	{Name: "core.rounds_per_decision", Unit: "count", Better: "lower"},
	{Name: "core.phases_per_decision", Unit: "count", Better: "lower"},

	{Name: "sim.route_us", Unit: "us", Better: "lower"},
	{Name: "sim.batch_mux_us", Unit: "us", Better: "lower"},
	{Name: "sim.transmissions_per_decision", Unit: "count", Better: "lower"},
	{Name: "sim.deliveries_per_decision", Unit: "count", Better: "lower"},

	{Name: "adversary.tamper_step_us", Unit: "us", Better: "lower"},
	{Name: "adversary.equivocate_step_us", Unit: "us", Better: "lower"},
	{Name: "adversary.forge_step_us", Unit: "us", Better: "lower"},
	{Name: "adversary.acquire_release_ns", Unit: "ns", Better: "lower"},
	{Name: "adversary.reuses_per_ktrial", Unit: "1/ktrial", Better: "higher"},

	{Name: "faultinject.generate_us", Unit: "us", Better: "lower"},
	{Name: "faultinject.apply_us", Unit: "us", Better: "lower"},
	{Name: "faultinject.events_per_trial", Unit: "count", Better: "lower"},
	{Name: "faultinject.invalidations_per_trial", Unit: "count", Better: "lower"},

	{Name: "eval.session_overhead_us", Unit: "us", Better: "lower"},
	{Name: "eval.session_new_us", Unit: "us", Better: "lower"},
	{Name: "eval.batch_us_per_instance", Unit: "us", Better: "lower"},
	{Name: "eval.mc_trial_us", Unit: "us", Better: "lower"},
	{Name: "eval.run_pool_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "eval.trial_pool_hit_rate", Unit: "ratio", Better: "higher"},

	{Name: "server.wait_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.wait_us_p99", Unit: "us", Better: "lower"},
	{Name: "server.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "server.solo_overhead_us", Unit: "us", Better: "lower"},
	{Name: "server.reject_400_us", Unit: "us", Better: "lower"},
	{Name: "server.rejected_share", Unit: "ratio", Better: "lower"},
	{Name: "server.decisions_total_delta", Unit: "count", Better: "higher"},

	{Name: "bench.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.window_scale", Unit: "ratio", Better: "higher"},
	{Name: "bench.probe_errors", Unit: "count", Better: "lower"},
}

// probeLayers are the layers measured by a child process built from
// probes/<layer>; the other layers' metrics come from the driver.
var probeLayers = []string{"graph", "flood", "core", "sim", "adversary", "faultinject", "eval", "server"}

// pinnedDigests are the result digests of seed 1: a SHA-256 over the
// verdicts of the first operation cycle in index order. Results are a
// function of graph, spec and seed only, so a change that moves a digest
// changed behaviour.
var pinnedDigests = map[string]string{
	"serve_benign":  "e8cac642422482a323d62fd69aa8fc586e181cdc7ca555b8aced6ff76c89ab3f",
	"serve_mixed":   "0cb06a72bf087e80b1dc71056b0809018cadfecb0b64214c93f82238c3174edb",
	"mc_benign":     "f4f4c180c5e3cf36ceb96c7e41e415a0efb4919f4359d896a995792b768ff719",
	"mc_faulty":     "08dee84cd62100b09ec3374be48ec31535847d654cafaf0a48ef152c1b53fb0a",
	"mc_churn":      "35b06e80588463d03b711f6e7198f98bec2062a90e563166b5dd6c2f39f08088",
	"algo2_session": "f75cb86d0a14e06e942092ca5d066d7286f8dd333833408fc66cd6812828353e",
	"cold_start":    "826ae483fffb3f6811da6a22658d2c39e096c27a4420bab98c4eef163b740c89",
}

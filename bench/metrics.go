package main

// The metric catalogue. BENCHMARK.json at the root of the repository
// repeats the end-to-end and per-layer lists (catalogue_test.go keeps
// the two from drifting); README.md says what each one means.

// Workload names. They are final: result files, BENCHMARK.json and the
// README refer to them.
const (
	wlSolveCold = "solve-cold"
	wlChurn     = "churn"
	wlTMEcho    = "tm-echo"
	wlFaultLoop = "fault-loop"
)

var workloadNames = []string{wlSolveCold, wlChurn, wlTMEcho, wlFaultLoop}

// workloadWhy is the one-line reason each workload exists.
var workloadWhy = map[string]string{
	wlSolveCold: "Algorithm 1 with every cache cold: core greedy growth, netsim resolve misses and bgp.Propagate do all the work; tm, tenant and obs do none",
	wlChurn:     "the same core/netsim/bgp layers run warm (delta propagation, repair vs full re-solve) under two contending tenants, plus the catchment/history/alert tier",
	wlTMEcho:    "per-packet and per-byte cost of the tunnel datapath (tm edge/pop, netio, tmproto) on loopback; the orchestrator does nothing, so a control-plane change must leave it flat",
	wlFaultLoop: "the only workload where control and data plane meet: PoP fault to detect, re-solve, BGP install, destination push and edge failover, over emulated 20-28 ms paths",
}

type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change is a regression (per-layer
	// metrics have none).
	Bound float64
}

// endToEnd are the metrics the driver bounds. Every workload measures
// every one of them; what each slot holds on each workload is in
// slotMeaning below. A slot has one bound for all four workloads, so it
// is set by the noisiest; the timing slots sit at the driver's cap
// because this two-core box itself drifts by 15 % within the hour
// (README.md, "Steadiness").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"control_ms", "ms", "lower", 0.25},
	{"quality_frac", "ratio", "higher", 0.01},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// slotMeaning documents what each end-to-end slot holds per workload,
// as the named metric it is printed under.
var slotMeaning = map[string]map[string]string{
	"setup_s": {
		wlSolveCold: "setup_s: median of the per-rep world builds (topology, cloud, netsim, usergroups, SimInputs)",
		wlChurn:     "setup_s: Apply + Reconcile of both tenants (world builds and initial solves)",
		wlTMEcho:    "setup_s: median of five PoP+edge bring-ups to first selection",
		wlFaultLoop: "setup_s: world, controller, route-server session, PoPs, links, edge resolve, first selection, 10,000 pinned flows",
	},
	"op_p50_ms": {
		wlSolveCold: "solve_s x 1000: median wall of core.New + Solve",
		wlChurn:     "tick_p50_ms: median Manager.Step",
		wlTMEcho:    "echo_rtt_p50_us / 1000: median open-loop round trip from due time",
		wlFaultLoop: "failover_ms: median t0 to first verified echo on a surviving PoP",
	},
	"op_tail_ms": {
		wlSolveCold: "solve_max_s x 1000: slowest rep (too few samples for a percentile)",
		wlChurn:     "tick_p99_ms",
		wlTMEcho:    "echo_rtt_p75_us / 1000 (across ten seeds p90 spread over 9-42 % of its median and p99 over 29-42 %: neither can carry a bound)",
		wlFaultLoop: "failover_tail_ms: highest percentile with ten trials beyond it (p75 of 40)",
	},
	"ops_per_s": {
		wlSolveCold: "solves_per_s: reps over the wall of their builds and solves",
		wlChurn:     "churn_events_per_s: fleet events applied over the wall of the tick phase",
		wlTMEcho:    "echo_rt_per_s: verified 16 B round trips per second, closed loop",
		wlFaultLoop: "trials_per_s: full fail/repair/recover/switch-back cycles per second",
	},
	"control_ms": {
		wlSolveCold: "first_config_ms: core.New to the first configuration handed to the executor",
		wlChurn:     "sync_dirty_ms: median Step on ticks whose events forced a repair or full solve",
		wlTMEcho:    "pin_flows_ms: one closed-loop pass of first packets over all 65,536 flows (edge slow path, PoP Known Flows insert)",
		wlFaultLoop: "loop_ms: median t0 to repaired config installed everywhere",
	},
	"quality_frac": {
		wlSolveCold: "benefit_frac of the final config",
		wlChurn:     "benefit_frac, mean over tenants, on the twin worlds",
		wlTMEcho:    "delivered_frac: verified echoes over sends, all phases",
		wlFaultLoop: "benefit_frac of the config in force after the last recovery",
	},
	"peak_rss_mb": {
		wlSolveCold: "peak_rss_mb", wlChurn: "peak_rss_mb", wlTMEcho: "peak_rss_mb", wlFaultLoop: "peak_rss_mb",
	},
}

// namedDef is one of the workload-specific metric names the report
// prints (the fourteen the benchmark was specified with, plus the few
// that fill a slot on a workload the fourteen do not cover).
type namedDef struct {
	Name, Unit, Better string
}

var named = []namedDef{
	{"setup_s", "s", "lower"},
	{"solve_s", "s", "lower"},
	{"solve_max_s", "s", "lower"},
	{"solves_per_s", "1/s", "higher"},
	{"first_config_ms", "ms", "lower"},
	{"benefit_frac", "ratio", "higher"},
	{"churn_events_per_s", "1/s", "higher"},
	{"tick_p50_ms", "ms", "lower"},
	{"tick_p99_ms", "ms", "lower"},
	{"sync_dirty_ms", "ms", "lower"},
	{"echo_rt_per_s", "1/s", "higher"},
	{"echo_goodput_mbps", "Mbit/s", "higher"},
	{"echo_rtt_p50_us", "us", "lower"},
	{"echo_rtt_p75_us", "us", "lower"},
	{"echo_rtt_p90_us", "us", "lower"},
	{"echo_rtt_p99_us", "us", "lower"},
	{"pin_flows_ms", "ms", "lower"},
	{"resolve_ms", "ms", "lower"},
	{"delivered_frac", "ratio", "higher"},
	{"failover_ms", "ms", "lower"},
	{"failover_tail_ms", "ms", "lower"},
	{"failover_rtts", "x", "lower"},
	{"loop_ms", "ms", "lower"},
	{"trials_per_s", "1/s", "higher"},
	{"false_failovers", "count", "lower"},
	{"failed_share", "ratio", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced-pass metrics, named after this repository's
// modules. A layer a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	// world set-up
	{Name: "topology.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "cloud.build_ms", Unit: "ms", Better: "lower"},
	{Name: "usergroup.build_ms", Unit: "ms", Better: "lower"},
	{Name: "netsim.new_ms", Unit: "ms", Better: "lower"},
	{Name: "core.siminputs_ms", Unit: "ms", Better: "lower"},
	{Name: "tenant.reconcile_ms", Unit: "ms", Better: "lower"},
	// core, solver
	{Name: "core.new_ms", Unit: "ms", Better: "lower"},
	{Name: "core.execute_ms", Unit: "ms", Better: "lower"},
	{Name: "core.compute_ms", Unit: "ms", Better: "lower"},
	{Name: "core.iterations", Unit: "count", Better: "lower"},
	{Name: "core.prefixes", Unit: "count", Better: "lower"},
	{Name: "core.advertisements", Unit: "count", Better: "lower"},
	{Name: "core.facts_learned", Unit: "count", Better: "higher"},
	{Name: "core.solve_mallocs", Unit: "count", Better: "lower"},
	{Name: "core.solve_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "core.solve_w1_s", Unit: "s", Better: "lower"},
	{Name: "core.parallel_x", Unit: "x", Better: "higher"},
	// core, controller
	{Name: "core.sync_noop_ms", Unit: "ms", Better: "lower"},
	{Name: "core.sync_repair_ms", Unit: "ms", Better: "lower"},
	{Name: "core.sync_full_ms", Unit: "ms", Better: "lower"},
	{Name: "core.full_solve_share", Unit: "ratio", Better: "lower"},
	{Name: "core.repair_share", Unit: "ratio", Better: "higher"},
	{Name: "core.dirty_frac_mean", Unit: "ratio", Better: "lower"},
	{Name: "core.anycast_changed_mean", Unit: "count", Better: "lower"},
	// netsim
	{Name: "netsim.resolve_cold_us", Unit: "us", Better: "lower"},
	{Name: "netsim.resolve_warm_us", Unit: "us", Better: "lower"},
	{Name: "netsim.resolve_hits", Unit: "count", Better: "higher"},
	{Name: "netsim.resolve_misses", Unit: "count", Better: "lower"},
	{Name: "netsim.resolve_full_runs", Unit: "count", Better: "lower"},
	{Name: "netsim.resolve_delta_runs", Unit: "count", Better: "higher"},
	{Name: "netsim.prefscore_misses", Unit: "count", Better: "lower"},
	{Name: "netsim.resolve_invalidations", Unit: "count", Better: "lower"},
	{Name: "netsim.apply_event_us", Unit: "us", Better: "lower"},
	{Name: "netsim.catchment_update_ms", Unit: "ms", Better: "lower"},
	// bgp
	{Name: "bgp.propagate_us", Unit: "us", Better: "lower"},
	{Name: "bgp.propagate_allocs", Unit: "count", Better: "lower"},
	{Name: "bgp.delta_us", Unit: "us", Better: "lower"},
	{Name: "bgp.delta_changed_mean", Unit: "count", Better: "lower"},
	// tenant and the analysis tier
	{Name: "tenant.step_ms", Unit: "ms", Better: "lower"},
	{Name: "tenant.analysis_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.history_sample_us", Unit: "us", Better: "lower"},
	{Name: "obs.history_series", Unit: "count", Better: "lower"},
	{Name: "tenant.solo_step_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "tenant.contention_x", Unit: "x", Better: "lower"},
	// tm, edge
	{Name: "tm.edge_send_ns", Unit: "ns", Better: "lower"},
	{Name: "tm.allocs_per_rt", Unit: "count", Better: "lower"},
	{Name: "tm.cpu_us_per_rt", Unit: "us", Better: "lower"},
	{Name: "tm.edge_send_errors", Unit: "count", Better: "lower"},
	{Name: "tm.probes_sent", Unit: "count", Better: "lower"},
	{Name: "tm.probe_reply_share", Unit: "ratio", Better: "higher"},
	{Name: "tm.false_failovers", Unit: "count", Better: "lower"},
	{Name: "tm.goodput_mbps", Unit: "Mbit/s", Better: "higher"},
	{Name: "tm.gen_late_p99_us", Unit: "us", Better: "lower"},
	{Name: "tm.resolve_us", Unit: "us", Better: "lower"},
	{Name: "tm.rtt_p90_us", Unit: "us", Better: "lower"},
	{Name: "tm.rtt_p99_us", Unit: "us", Better: "lower"},
	// tm pop, netio, tmproto
	{Name: "tm.pop_rt_per_s", Unit: "1/s", Better: "higher"},
	{Name: "tm.pop_overload_waits_per_m", Unit: "count", Better: "lower"},
	{Name: "tm.pop_dropped_replies", Unit: "count", Better: "lower"},
	{Name: "tm.pop_active_flows", Unit: "count", Better: "lower"},
	{Name: "netio.batched", Unit: "count", Better: "higher"},
	{Name: "tmproto.append_data_ns", Unit: "ns", Better: "lower"},
	{Name: "tmproto.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "tmproto.append_gre_ns", Unit: "ns", Better: "lower"},
	// fault-loop stages
	{Name: "tm.detect_ms", Unit: "ms", Better: "lower"},
	{Name: "tm.switch_ms", Unit: "ms", Better: "lower"},
	{Name: "tm.repin_us", Unit: "us", Better: "lower"},
	{Name: "tm.first_echo_ms", Unit: "ms", Better: "lower"},
	{Name: "loop.apply_event_us", Unit: "us", Better: "lower"},
	{Name: "loop.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "loop.bgp_install_ms", Unit: "ms", Better: "lower"},
	{Name: "loop.push_ms", Unit: "ms", Better: "lower"},
	{Name: "loop.resolve_ms", Unit: "ms", Better: "lower"},
	{Name: "loop.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "loop.updates_sent", Unit: "count", Better: "lower"},
	{Name: "loop.withdraws_sent", Unit: "count", Better: "lower"},
	{Name: "loop.full_solve_share", Unit: "ratio", Better: "lower"},
	// process
	{Name: "proc.cpu_util", Unit: "ratio", Better: "higher"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.heap_inuse_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.trace_overhead_pct", Unit: "%", Better: "lower"},
}

package main

// metricDef names one reported metric. The lists below are the
// benchmark's contract and must match BENCHMARK.json (a test checks).
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are measured with tracing off on every workload.
// Times are process CPU time: on a shared virtual machine wall time
// moves with other tenants' load far more than the code's cost does
// (see README.md).
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"xfers_per_cpu_s", "1/s", "higher"},
	{"alloc_mb", "MB", "lower"},
}

// cpuModules are the buckets sampled CPU time is attributed to: this
// repository's modules, the benchmark itself ("bench"), repository
// packages without a bucket of their own ("unlisted"), and the Go
// runtime split by what it was doing.
var cpuModules = []string{
	"sim", "netsim", "topology", "workload", "polyraptor", "tcpsim", "chaos",
	"harness", "metrics", "sweep", "store", "raptorq", "gf256", "wire", "rqudp",
	"stats", "telemetry", "bench", "unlisted",
	"runtime_gc", "runtime_malloc", "runtime_sched", "syscall", "other",
}

// allocModules are the buckets sampled heap allocation is attributed
// to.
var allocModules = []string{
	"sim", "netsim", "topology", "workload", "polyraptor", "tcpsim", "chaos",
	"harness", "metrics", "sweep", "store", "raptorq", "gf256", "wire", "rqudp",
	"stats", "telemetry", "bench", "unlisted", "other",
}

// perLayerMetrics are measured in the traced run. A workload reports 0
// for a layer it never reaches.
var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"sim_fct_p50_ms", "ms", "lower"},
		{"sim_fct_p90_ms", "ms", "lower"},
		{"sim_goodput_p50_gbps", "Gb/s", "higher"},
		{"sim.events", "count", "lower"},
		{"sim.ns_per_event", "ns", "lower"},
		{"sim.pending_peak", "count", "lower"},
		{"sim.pending_mean", "count", "lower"},
		{"netsim.frame_hops", "count", "lower"},
		{"netsim.events_per_hop", "ratio", "lower"},
		{"netsim.dropped", "count", "lower"},
		{"netsim.trimmed", "count", "lower"},
		{"netsim.marked", "count", "lower"},
		{"netsim.route_drops", "count", "lower"},
		{"netsim.link_drops", "count", "lower"},
		{"netsim.trim_frac", "ratio", "lower"},
		{"netsim.queue_depth_p99", "pkts", "lower"},
		{"topology.build_s", "s", "lower"},
		{"workload.generate_s", "s", "lower"},
		{"polyraptor.symbols", "count", "lower"},
		{"polyraptor.trims", "count", "lower"},
		{"polyraptor.symbol_overhead", "ratio", "lower"},
		{"polyraptor.detached", "count", "lower"},
		{"polyraptor.open_sessions_end", "count", "lower"},
		{"tcpsim.retransmits", "count", "lower"},
		{"tcpsim.timeouts", "count", "lower"},
		{"tcpsim.fct_p90_ms", "ms", "lower"},
		{"tcpsim.open_flows_end", "count", "lower"},
		{"chaos.stall_rate_rq", "ratio", "lower"},
		{"chaos.stall_rate_tcp", "ratio", "lower"},
		{"chaos.stall_rate_dctcp", "ratio", "lower"},
		{"metrics.samples", "count", "higher"},
		{"slo_attainment", "ratio", "higher"},
		{"sweep.runs", "count", "higher"},
		{"sweep.run_s_p50", "s", "lower"},
		{"sweep.worker_util", "ratio", "higher"},
		{"store.gets", "count", "higher"},
		{"store.puts", "count", "higher"},
		{"store.repairs", "count", "higher"},
		{"store.get_fct_p90_ms", "ms", "lower"},
		{"store.put_fct_p90_ms", "ms", "lower"},
		{"store.interference", "ratio", "lower"},
		{"raptorq.encode_s", "s", "lower"},
		{"rqudp.symbols", "count", "lower"},
		{"rqudp.duplicates", "count", "lower"},
		{"rqudp.retries", "count", "lower"},
		{"rqudp.useful_frac", "ratio", "higher"},
		{"rqudp.allocs_per_symbol", "count", "lower"},
		{"rqudp.fetch_p50_ms", "ms", "lower"},
		{"rqudp.fetch_p90_ms", "ms", "lower"},
		{"runtime.gc_cycles", "count", "lower"},
		{"trace.overhead_frac", "ratio", "lower"},
		{"trace.cpu_samples", "count", "higher"},
		{"trace.cpu_share_sum", "ratio", "higher"},
		{"check.failed_frac", "ratio", "lower"},
	}
	for _, m := range cpuModules {
		defs = append(defs, metricDef{"cpu." + m, "share", "lower"})
	}
	for _, m := range allocModules {
		defs = append(defs, metricDef{"alloc." + m, "share", "lower"})
	}
	return defs
}()

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

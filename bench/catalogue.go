package main

// The metric catalogue: every name the benchmark reports, with its unit,
// which way is better and — for end-to-end metrics — the share of the
// baseline median by which it may worsen before -compare calls it a
// regression. BENCHMARK.json at the repository root lists the same names;
// a test keeps the two in step.

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only
}

// contractEndToEnd are the end-to-end metrics every workload produces;
// the one-line result of a -trace 0 run carries exactly these.
var contractEndToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"tile_cycles_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// scopedEndToEnd are end-to-end metrics only some workloads have: the
// result files and -compare carry them, the one-line result cannot (it
// must hold the same never-zero metrics for every workload).
var scopedEndToEnd = []metricDef{
	{"instr_per_s", "1/s", "higher", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"job_cold_ms_p50", "ms", "lower", 0.25},
	{"job_cold_ms_p95", "ms", "lower", 0.25},
	{"job_hit_ms_p50", "ms", "lower", 0.25},
	{"job_hit_ms_p95", "ms", "lower", 0.25},
	{"failed_share", "share", "lower", 0},
}

// perLayer are the metrics of the traced run, module name first. A
// workload that does not exercise a layer's measurement reports 0 for it.
var perLayer = []metricDef{
	{Name: "core.build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.allocs_per_tile_cycle", Unit: "count", Better: "lower"},
	{Name: "core.alloc_bytes_per_tile_cycle", Unit: "B", Better: "lower"},
	{Name: "core.gc_cpu_share", Unit: "share", Better: "lower"},
	{Name: "core.heap_mb_end", Unit: "MB", Better: "lower"},
	{Name: "sim.barrier_wait_share", Unit: "share", Better: "lower"},
	{Name: "sim.partition_imbalance", Unit: "share", Better: "lower"},
	{Name: "sim.sync_ns_per_cycle.w1", Unit: "ns", Better: "lower"},
	{Name: "sim.sync_ns_per_cycle.w2", Unit: "ns", Better: "lower"},
	{Name: "sim.engine_overhead_share", Unit: "share", Better: "lower"},
	{Name: "noc.transfer_ns_per_tile_cycle", Unit: "ns", Better: "lower"},
	{Name: "noc.commit_ns_per_tile_cycle", Unit: "ns", Better: "lower"},
	{Name: "noc.idle_ns_per_tile_cycle", Unit: "ns", Better: "lower"},
	{Name: "noc.host_ns_per_link_transit", Unit: "ns", Better: "lower"},
	{Name: "noc.flits_delivered", Unit: "count", Better: "higher"},
	{Name: "noc.avg_packet_latency_cycles", Unit: "cycles", Better: "lower"},
	{Name: "noc.buf_reads", Unit: "count", Better: "lower"},
	{Name: "noc.arb_events", Unit: "count", Better: "lower"},
	{Name: "noc.link_transits", Unit: "count", Better: "lower"},
	{Name: "routing.lookup_ns_warm", Unit: "ns", Better: "lower"},
	{Name: "routing.lookup_ns_cold", Unit: "ns", Better: "lower"},
	{Name: "mips.instr_per_s", Unit: "1/s", Better: "higher"},
	{Name: "mips.instr_per_s_isolated", Unit: "1/s", Better: "higher"},
	{Name: "mips.instret", Unit: "count", Better: "higher"},
	{Name: "mips.stall_cycles", Unit: "count", Better: "lower"},
	{Name: "mips.ipc", Unit: "1/cycle", Better: "higher"},
	{Name: "mem.l1_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.miss_txn_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.l1_hit_ratio", Unit: "share", Better: "higher"},
	{Name: "snapshot.encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "snapshot.restore_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "snapshot.bytes", Unit: "B", Better: "lower"},
	{Name: "scenario.compile_us", Unit: "us", Better: "lower"},
	{Name: "service.dryrun_us", Unit: "us", Better: "lower"},
	{Name: "journal.append_us", Unit: "us", Better: "lower"},
	{Name: "sweep.dispatch_us_per_item", Unit: "us", Better: "lower"},
	{Name: "service.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "service.queue_ms", Unit: "ms", Better: "lower"},
	{Name: "service.run_ms", Unit: "ms", Better: "lower"},
	{Name: "service.fetch_ms", Unit: "ms", Better: "lower"},
	{Name: "service.execute_ms", Unit: "ms", Better: "lower"},
	{Name: "service.overhead_share", Unit: "share", Better: "lower"},
	{Name: "service.cache_hit_ratio", Unit: "share", Better: "higher"},
	{Name: "service.checkpoints_written", Unit: "count", Better: "higher"},
	{Name: "service.jobs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "service.job_cold_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.job_cold_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "service.job_hit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.job_hit_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "trace.rate_ratio", Unit: "ratio", Better: "higher"},
}

// exactLayer are the per-layer metrics that are simulated counts read at
// the end of the fixed work: a change that only speeds the simulator up
// must leave every one of them — and the digests — identical.
var exactLayer = []string{
	"noc.flits_delivered", "noc.avg_packet_latency_cycles", "noc.buf_reads",
	"noc.arb_events", "noc.link_transits",
	"mips.instret", "mips.stall_cycles", "mips.ipc", "mem.l1_hit_ratio",
}

// workloads, in running order, with why each exists.
var workloadList = []struct{ Name, Why string }{
	{"mesh8-serial", "8x8 mesh, uniform 0.05, 1 engine worker: noc, routing and traffic do nearly all the work, so a router hot-path or allocation change must show here"},
	{"mesh32-par", "32x32 mesh, shuffle 0.02, 2 engine workers: state far larger than host caches, cross-partition buffer locking and two barriers per cycle; the 1000-core point and the RSS workload"},
	{"mips-msi", "4x4 mesh, 16 MIPS cores on a generated ring-stencil kernel over MSI caches: mips and mem do most of the work and routers are mostly idle, so a router hot-path change should barely move it"},
	{"serve-mix", "durable daemon behind HTTP, 2 closed-loop clients, half new small scenarios and half cache hits: scenario, service, sweep, journal and snapshot are a measurable share and the simulator does little"},
}

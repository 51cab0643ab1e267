package main

// metric is one reported metric. BENCHMARK.json lists the same names,
// units and directions, and a test holds the two lists equal.
type metric struct {
	Name, Unit, Better string
}

// endToEnd are the metrics of a plain (-trace 0) run: what a user of the
// simulator pays to replay a workload. Host times are divided by the
// reference kernel's (unit "ref"), so they read in kernel-runs and
// cancel the host's speed drift.
var endToEnd = []metric{
	{"wall_ref", "ref", "lower"},   // iteration wall time ÷ kernel time
	{"cpu_ref", "ref", "lower"},    // iteration user+sys CPU ÷ kernel time
	{"allocs_m", "Mobj", "lower"},  // heap objects allocated per iteration
	{"alloc_mb", "MiB", "lower"},   // heap bytes allocated per iteration
	{"max_rss_mb", "MiB", "lower"}, // the measuring process's peak RSS
	{"setup_s", "s", "lower"},      // exec of a child to its "ready"
}

// replayMetrics are the layer replays' metrics (replay.go).
var replayMetrics = []metric{
	{"xenstore.txn_churn_ns", "ns", "lower"},
	{"xenstore.txn_churn_allocs", "count", "lower"},
	{"xenstore.rm_churn_ns", "ns", "lower"},
	{"xenstore.read_ns", "ns", "lower"},
	{"xenstore.directory_ns", "ns", "lower"},
	{"xenstore.watch_fire_ns", "ns", "lower"},
	{"xenstore.serialize_ns", "ns", "lower"},
	{"xenstore.deserialize_ns", "ns", "lower"},
	{"xenstore.graft_ns", "ns", "lower"},
	{"xenstore.snapshot_allocs", "count", "lower"},
	{"mm.alloc_pages_ns", "ns", "lower"},
	{"mm.alloc_pages_allocs", "count", "lower"},
	{"mm.free_owner_ns", "ns", "lower"},
	{"hv.create_domain_ns", "ns", "lower"},
	{"hv.destroy_domain_ns", "ns", "lower"},
	{"hv.domain_allocs", "count", "lower"},
	{"hv.evtchn_ns", "ns", "lower"},
	{"sim.clock_event_ns", "ns", "lower"},
	{"sim.engine_event_ns", "ns", "lower"},
	{"sim.engine_msg_ns", "ns", "lower"},
	{"sim.events_per_s", "1/s", "higher"},
	{"toolstack.xl_create_ns", "ns", "lower"},
	{"toolstack.xl_destroy_ns", "ns", "lower"},
	{"toolstack.lightvm_create_ns", "ns", "lower"},
	{"toolstack.lightvm_destroy_ns", "ns", "lower"},
	{"toolstack.noxs_create_ns", "ns", "lower"},
	{"toolstack.noxs_destroy_ns", "ns", "lower"},
	{"toolstack.lifecycle_allocs", "count", "lower"},
	{"toolstack.fsck_ns", "ns", "lower"},
	{"toolstack.scrub_ns", "ns", "lower"},
	{"migrate.save_ns", "ns", "lower"},
	{"migrate.restore_ns", "ns", "lower"},
	{"traffic.serve_ns_per_req", "ns", "lower"},
	{"traffic.serve_allocs_per_req", "count", "lower"},
	{"traffic.arrival_next_ns", "ns", "lower"},
	{"metrics.hist_observe_ns", "ns", "lower"},
	{"metrics.hist_quantile_ns", "ns", "lower"},
	{"cluster.churn_ns_per_domain", "ns", "lower"},
	{"cluster.place_ns", "ns", "lower"},
	{"cluster.failover_ns", "ns", "lower"},
}

// perLayer returns the metrics of a -trace 1 run, in report order: the
// traced run's CPU shares, the timed child's raw and runtime numbers,
// then the layer replays.
func perLayer() []metric {
	var out []metric
	for _, l := range layers {
		out = append(out, metric{l + ".cpu_share", "%", "lower"})
	}
	out = append(out,
		metric{"other.cpu_share", "%", "lower"},
		metric{"runtime.bg_cpu_share", "%", "lower"},
		metric{"trace.overhead_frac", "frac", "lower"},
		metric{"runtime.gc_cpu_frac", "frac", "lower"},
		metric{"bench.wall_s", "s", "lower"},
		metric{"bench.cpu_s", "s", "lower"},
		metric{"bench.ref_s", "s", "lower"},
		metric{"bench.warmup_s", "s", "lower"},
	)
	return append(out, replayMetrics...)
}

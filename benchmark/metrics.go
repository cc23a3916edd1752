package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds; a test keeps the two in step.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	// Better is "lower" or "higher".
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change is rejected; 0 for per-layer
	// metrics, which are not gated.
	Bound float64 `json:"bound,omitempty"`
}

// endToEnd is what a client of the cluster sees, on every workload.
// txn_per_s_norm is the committed transactions per second of the timed
// run, scaled by refNominal ÷ the reference load's rate in the same
// seconds (ref.go): the throughput on a host that is as fast as the
// nominal one. With two closed-loop sessions and no think time it is
// also the mean latency, 2 ÷ throughput. setup_s is normalised the same
// way by a reference of its own kind, refAlloc.
var endToEnd = []metricDef{
	{Name: "txn_per_s_norm", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer is everything else: the per-class client numbers the timed
// run also yields, and the layer table of the README.
var perLayer = []metricDef{
	// Timed run, as the wall clock has it: committed transactions per
	// second (median of the windows), the reference load's rate that
	// txn_per_s_norm divides by, the set-up time (median of the set-ups)
	// and the allocation reference setup_s divides by (mean of its runs),
	// the median and the tail latency over all
	// committed transactions (the tail at the workload's fixed
	// percentile), and process CPU per committed transaction.
	// Client-visible but not gated: they follow the host, and over ten
	// runs of the same code their spreads reach 0.2 to 0.4 of the median,
	// beyond the largest bound allowed.
	{Name: "txn_per_s", Unit: "1/s", Better: "higher"},
	{Name: "host.ref_rtt_per_s", Unit: "1/s", Better: "higher"},
	{Name: "setup_wall_s", Unit: "s", Better: "lower"},
	{Name: "host.ref_alloc_ms", Unit: "ms", Better: "lower"},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "lat_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu_us_per_txn", Unit: "us", Better: "lower"},

	// Timed run, per class; 0 where the workload has no such class.
	{Name: "read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "read_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "update_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "update_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "visible_all_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "visible_all_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "failed_frac", Unit: "frac", Better: "lower"},

	// Traced run: the benchmark's client spans.
	{Name: "cluster.begin_us_p50", Unit: "us", Better: "lower"},
	{Name: "cluster.begin_us_p99", Unit: "us", Better: "lower"},
	{Name: "cluster.exec_us_p50", Unit: "us", Better: "lower"},
	{Name: "cluster.commit_us_p50", Unit: "us", Better: "lower"},
	{Name: "cluster.commit_us_p99", Unit: "us", Better: "lower"},

	// Traced run: counting dialer.
	{Name: "wire.client_msgs_per_txn", Unit: "count", Better: "lower"},
	{Name: "wire.client_bytes_per_txn", Unit: "bytes", Better: "lower"},
	{Name: "wire.cert_msgs_per_commit", Unit: "count", Better: "lower"},
	{Name: "wire.cert_bytes_per_commit", Unit: "bytes", Better: "lower"},
	{Name: "wire.replica_bytes_per_txn", Unit: "bytes", Better: "lower"},

	// Layer replay.
	{Name: "wire.rpc_rtt_us", Unit: "us", Better: "lower"},
	{Name: "wire.stream_refresh_per_s", Unit: "1/s", Better: "higher"},
	{Name: "lb.dispatch_us", Unit: "us", Better: "lower"},
	{Name: "sql.parse_us", Unit: "us", Better: "lower"},
	{Name: "sql.exec_read_us", Unit: "us", Better: "lower"},
	{Name: "sql.exec_update_us", Unit: "us", Better: "lower"},
	{Name: "storage.commit_local_us", Unit: "us", Better: "lower"},
	{Name: "storage.apply_batch_us_per_ws", Unit: "us", Better: "lower"},
	{Name: "storage.install_us_per_ws", Unit: "us", Better: "lower"},
	{Name: "storage.read_us_hot_row", Unit: "us", Better: "lower"},
	{Name: "writeset.graph_build_us_per_ws", Unit: "us", Better: "lower"},
	{Name: "certifier.certify_us", Unit: "us", Better: "lower"},
	{Name: "certifier.certify_per_s", Unit: "1/s", Better: "higher"},
	{Name: "certifier.certify_forced_us_c1", Unit: "us", Better: "lower"},
	{Name: "certifier.certify_forced_us_c2", Unit: "us", Better: "lower"},
	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.append_forced_us", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_record", Unit: "bytes", Better: "lower"},
	{Name: "replica.txn_us", Unit: "us", Better: "lower"},
	{Name: "replica.apply_refresh_per_s", Unit: "1/s", Better: "higher"},
	{Name: "replica.apply_headroom", Unit: "ratio", Better: "higher"},
	{Name: "pstore.log_applied_us_per_ws", Unit: "us", Better: "lower"},
	{Name: "pstore.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "pstore.wal_bytes_per_commit", Unit: "bytes", Better: "lower"},

	// Traced run: the cluster's own registry.
	{Name: "certifier.abort_frac", Unit: "frac", Better: "lower"},
	{Name: "replica.apply_batch_mean", Unit: "count", Better: "higher"},
	{Name: "replica.reorder_wait_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "replica.serial_fallback_frac", Unit: "frac", Better: "lower"},
	{Name: "replica.early_abort_frac", Unit: "frac", Better: "lower"},

	// Traced run: mean self time per transaction of the cluster's
	// existing dtrace spans.
	{Name: "lb.route_self_us", Unit: "us", Better: "lower"},
	{Name: "replica.exec_self_us", Unit: "us", Better: "lower"},
	{Name: "certifier.certify_self_us", Unit: "us", Better: "lower"},
	{Name: "certifier.log_append_self_us", Unit: "us", Better: "lower"},
	{Name: "replica.version_wait_us", Unit: "us", Better: "lower"},
	{Name: "replica.sync_wait_us", Unit: "us", Better: "lower"},
	{Name: "replica.commit_us", Unit: "us", Better: "lower"},
	{Name: "replica.global_wait_us", Unit: "us", Better: "lower"},
	{Name: "replica.refresh_apply_us", Unit: "us", Better: "lower"},

	// Timed run of a durable workload.
	{Name: "pstore.checkpoints", Unit: "count", Better: "lower"},
	{Name: "pstore.restart_ms", Unit: "ms", Better: "lower"},

	// Timed run: the Go runtime.
	{Name: "process.alloc_kb_per_txn", Unit: "kb", Better: "lower"},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "process.retained_kb_per_commit", Unit: "kb", Better: "lower"},
	{Name: "process.trace_overhead_frac", Unit: "frac", Better: "lower"},
}

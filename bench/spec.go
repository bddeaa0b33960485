package main

// This file is the benchmark's frozen vocabulary: workload names, metric
// names, units, directions and bounds. BENCHMARK.json at the repository
// root states the same facts for the driver; TestSpecMatchesBenchmarkJSON
// fails when the two disagree.

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the baseline median a metric may worsen by; 0 for per-layer metrics
}

var workloadNames = []string{"edit_chain_wire", "analytic_redraw", "firehose_reactive", "mixed_readwrite"}

// endToEnd are the six metrics every workload reports in the untraced pass.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"interaction_ms_p50", "ms", "lower", 0.25},
	{"interaction_ms_p90", "ms", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.05},
	{"live_heap_mb", "MB", "lower", 0.05},
}

// perLayer are the metrics of the traced pass. A workload that does not
// exercise a layer reports 0 for that layer's metrics (README.md says
// which workload is the home of each).
var perLayer = []metricSpec{
	// client / wire / server
	{Name: "client.exec_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "client.query_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "wire.exec_codec_us_p50", Unit: "us", Better: "lower"},
	{Name: "wire.encode_result_us_p50", Unit: "us", Better: "lower"},
	{Name: "wire.decode_result_us_p50", Unit: "us", Better: "lower"},
	{Name: "net.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "net.writes_per_op", Unit: "count", Better: "lower"},
	{Name: "server.requests_per_op", Unit: "count", Better: "lower"},
	{Name: "server.txn_wait_ms_total", Unit: "ms", Better: "lower"},
	{Name: "server.wire_overhead_ms_p50", Unit: "ms", Better: "lower"},
	// sqltext
	{Name: "sqltext.parse_us_p50", Unit: "us", Better: "lower"},
	{Name: "sqltext.parse_alloc_kb", Unit: "KB", Better: "lower"},
	// engine / vm
	{Name: "engine.scan_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.agg_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.group_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.join_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.topk_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.point_us_p50", Unit: "us", Better: "lower"},
	{Name: "engine.scan_alloc_kb", Unit: "KB", Better: "lower"},
	{Name: "engine.agg_alloc_kb", Unit: "KB", Better: "lower"},
	{Name: "engine.group_alloc_kb", Unit: "KB", Better: "lower"},
	{Name: "engine.join_alloc_kb", Unit: "KB", Better: "lower"},
	{Name: "engine.topk_alloc_kb", Unit: "KB", Better: "lower"},
	{Name: "engine.insert_batch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.update_point_us_p50", Unit: "us", Better: "lower"},
	{Name: "engine.rows_scanned_per_row_returned", Unit: "ratio", Better: "lower"},
	{Name: "engine.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "vm.rows_per_query", Unit: "count", Better: "lower"},
	{Name: "vm.fallback_per_kstmt", Unit: "count", Better: "lower"},
	{Name: "vm.compile_per_kstmt", Unit: "count", Better: "lower"},
	{Name: "vm.parallel_query_share", Unit: "ratio", Better: "higher"},
	{Name: "vm.morsels_per_query", Unit: "count", Better: "higher"},
	// types
	{Name: "types.bytes_per_cell", Unit: "B", Better: "lower"},
	// storage
	{Name: "storage.commit_us_p50", Unit: "us", Better: "lower"},
	{Name: "storage.wal_bytes_per_commit", Unit: "B", Better: "lower"},
	{Name: "storage.fsyncs_per_commit", Unit: "ratio", Better: "lower"},
	{Name: "storage.group_commit_size_avg", Unit: "count", Better: "higher"},
	{Name: "storage.vacuumed_per_checkpoint", Unit: "count", Better: "lower"},
	{Name: "storage.mvcc_versions_end", Unit: "count", Better: "lower"},
	{Name: "storage.checkpoint_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "storage.checkpoint_stall_ms_max", Unit: "ms", Better: "lower"},
	{Name: "storage.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.wal_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "storage.snapshot_bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "fs.write_calls_per_commit", Unit: "count", Better: "lower"},
	{Name: "fs.sync_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fs.write_ms_total", Unit: "ms", Better: "lower"},
	// ivm
	{Name: "ivm.delta_us_per_row", Unit: "us", Better: "lower"},
	{Name: "ivm.join_delta_us_per_row", Unit: "us", Better: "lower"},
	{Name: "ivm.init_ms", Unit: "ms", Better: "lower"},
	{Name: "ivm.cancelled_rows_share", Unit: "ratio", Better: "higher"},
	// wf/react, enact, module
	{Name: "react.deliver_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "react.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "react.deltas_per_batch", Unit: "ratio", Better: "lower"},
	{Name: "react.coalesced_share", Unit: "ratio", Better: "lower"},
	{Name: "react.blocked_per_kbatch", Unit: "count", Better: "lower"},
	{Name: "react.shed", Unit: "count", Better: "lower"},
	{Name: "react.policy_escalations", Unit: "count", Better: "lower"},
	{Name: "enact.deploy_ms", Unit: "ms", Better: "lower"},
	{Name: "enact.start_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "module.handler_us_p50", Unit: "us", Better: "lower"},
	// notify
	{Name: "notify.doorbell_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "notify.purge_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "notify.lines_per_op", Unit: "ratio", Better: "lower"},
	{Name: "notify.coalesced_share", Unit: "ratio", Better: "higher"},
	{Name: "notify.dropped_lines", Unit: "count", Better: "lower"},
	{Name: "notify.table_rows_end", Unit: "count", Better: "lower"},
	// tablesync
	{Name: "tablesync.refresh_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "tablesync.refresh_alloc_kb", Unit: "KB", Better: "lower"},
	{Name: "tablesync.initial_load_ms", Unit: "ms", Better: "lower"},
	{Name: "tablesync.rows_fetched_per_refresh", Unit: "count", Better: "lower"},
	{Name: "tablesync.notifications_per_refresh", Unit: "count", Better: "lower"},
	// vis
	{Name: "vis.insert_attrs_us_p50", Unit: "us", Better: "lower"},
	{Name: "vis.attributes_read_ms_p50", Unit: "ms", Better: "lower"},
	// metrics
	{Name: "metrics.snapshot_us_p50", Unit: "us", Better: "lower"},
	{Name: "metrics.overhead_frac", Unit: "ratio", Better: "lower"},
	// process / generator / tracer
	{Name: "proc.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "proc.gc_cycles_per_kop", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "proc.goroutines_end", Unit: "count", Better: "lower"},
	{Name: "gen.lag_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}

func specByName(specs []metricSpec) map[string]metricSpec {
	out := make(map[string]metricSpec, len(specs))
	for _, s := range specs {
		out[s.Name] = s
	}
	return out
}

package main

import "regexp"

// metricDef declares one reported metric. The lists below and
// BENCHMARK.json at the repository root must agree; a test checks it.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end metrics only
}

// validName is the rule for metric and workload names.
var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// workloadNames lists every workload the program runs.
var workloadNames = []string{"office", "bulkread", "ingest"}

// benchWorkloads lists the workloads BENCHMARK.json gives, in its order.
// bulkread is left out: it keeps both cores of a 2-vCPU host busy, so the
// host's speed swings move its figures beyond the bounds even in the
// longest runs the time limit for all runs allows. office and ingest
// together still exercise every layer; bulkread runs by hand.
var benchWorkloads = []string{"office", "ingest"}

// opRoles names, per workload, the operation kinds behind the generic
// op1/op2/op3 end-to-end latencies: every run must report every
// end-to-end metric, so each workload maps its own three operations onto
// them.
var opRoles = map[string][3]string{
	"office":   {"get", "save", "view_page"},
	"bulkread": {"view_page", "search", "scan_page"},
	"ingest":   {"save", "batch", "replica_lag"},
}

// e2eLatencies names the p50 latency metric of each role.
var e2eLatencies = [3]string{"op1_p50_ms", "op2_p50_ms", "op3_p50_ms"}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"heap_peak_mb", "MB", "lower", 0.2},
	{"op1_p50_ms", "ms", "lower", 0.25},
	{"op2_p50_ms", "ms", "lower", 0.25},
	{"op3_p50_ms", "ms", "lower", 0.25},
}

var perLayer = []metricDef{
	{name: "wire.bytes_per_op", unit: "B/op", better: "lower"},
	{name: "wire.writes_per_op", unit: "count", better: "lower"},
	{name: "wire.self_us.get", unit: "us", better: "lower"},
	{name: "wire.self_us.save", unit: "us", better: "lower"},
	{name: "server.dispatched_per_op", unit: "count", better: "lower"},
	{name: "server.sheds", unit: "count", better: "lower"},
	{name: "server.deadline_sheds", unit: "count", better: "lower"},
	{name: "server.queued_max", unit: "count", better: "lower"},
	{name: "server.dispatch_ewma_us", unit: "us", better: "lower"},
	{name: "server.cluster_dropped", unit: "count", better: "lower"},
	{name: "core.self_us.get", unit: "us", better: "lower"},
	{name: "core.self_us.save", unit: "us", better: "lower"},
	{name: "core.rows_page_ms", unit: "ms", better: "lower"},
	{name: "core.search_joined_ms", unit: "ms", better: "lower"},
	{name: "core.scan_page_ms", unit: "ms", better: "lower"},
	{name: "store.get_us", unit: "us", better: "lower"},
	{name: "store.note_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "store.records_per_flush", unit: "count", better: "higher"},
	{name: "store.flushes_per_s", unit: "1/s", better: "lower"},
	{name: "store.wal_bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "store.file_bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "store.dirty_pages_max", unit: "count", better: "lower"},
	{name: "store.scan_notes_per_s", unit: "1/s", better: "higher"},
	{name: "nsf.decode_us_per_note", unit: "us", better: "lower"},
	{name: "nsf.decode_allocs_per_note", unit: "count", better: "lower"},
	{name: "nsf.encode_us_per_note", unit: "us", better: "lower"},
	{name: "changefeed.refresh_ms", unit: "ms", better: "lower"},
	{name: "changefeed.max_lag", unit: "count", better: "lower"},
	{name: "changefeed.resyncs", unit: "count", better: "lower"},
	{name: "changefeed.applies_per_s.views", unit: "1/s", better: "higher"},
	{name: "changefeed.applies_per_s.fulltext", unit: "1/s", better: "higher"},
	{name: "changefeed.applies_per_s.unread", unit: "1/s", better: "higher"},
	{name: "view.rows_range_ms", unit: "ms", better: "lower"},
	{name: "view.update_us", unit: "us", better: "lower"},
	{name: "view.rebuild_ms", unit: "ms", better: "lower"},
	{name: "ft.search_ms", unit: "ms", better: "lower"},
	{name: "ft.hits_per_returned", unit: "ratio", better: "lower"},
	{name: "ft.update_us", unit: "us", better: "lower"},
	{name: "ft.enable_ms", unit: "ms", better: "lower"},
	{name: "formula.selects_us_per_note", unit: "us", better: "lower"},
	{name: "repl.catchup_notes", unit: "count", better: "lower"},
	{name: "repl.catchup_ms", unit: "ms", better: "lower"},
	{name: "runtime.cpu_busy_ratio", unit: "ratio", better: "lower"},
	{name: "runtime.alloc_bytes_per_op", unit: "B/op", better: "lower"},
	{name: "runtime.gc_cycles_per_s", unit: "1/s", better: "lower"},
	{name: "runtime.gc_pause_p99_us", unit: "us", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
}

// issueMetric is a workload-specific end-to-end figure printed in the
// report by its own name, with its sample count.
type issueMetric struct {
	name string
	kind string
	pct  float64
	unit string // "us" or "ms"
}

var issueMetrics = map[string][]issueMetric{
	"office": {
		{"get_p50_us", "get", 50, "us"}, {"get_p99_us", "get", 99, "us"},
		{"save_p50_us", "save", 50, "us"}, {"save_p99_us", "save", 99, "us"},
		{"view_page_p50_ms", "view_page", 50, "ms"}, {"view_page_p90_ms", "view_page", 90, "ms"},
	},
	"bulkread": {
		{"view_page_p50_ms", "view_page", 50, "ms"}, {"view_page_p90_ms", "view_page", 90, "ms"},
		{"search_p50_ms", "search", 50, "ms"}, {"scan_page_p50_ms", "scan_page", 50, "ms"},
	},
	"ingest": {
		{"save_p50_us", "save", 50, "us"}, {"save_p99_us", "save", 99, "us"},
		{"index_lag_p99_ms", "index_lag", 99, "ms"},
		{"replica_lag_p50_ms", "replica_lag", 50, "ms"}, {"replica_lag_p99_ms", "replica_lag", 99, "ms"},
	},
}

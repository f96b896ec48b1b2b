package main

// The metric catalog. endToEnd are the client-observed metrics of an
// untraced run (--trace 0); perLayer those of the traced run (--trace 1).
// Each per-layer metric names the end-to-end metric it should move and
// the workload where it should move it. BENCHMARK.json lists the same
// names; the smoke test keeps the two in step.

type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Moves and On tag a per-layer metric with the end-to-end metric it
	// should move and the workloads where it does.
	Moves string
	On    string
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "read_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "rss_mb", Unit: "MB", Better: "lower"},
}

// Pipeline stages: engine span name -> metric name.
var stageMetrics = []struct{ Span, Metric string }{
	{"parse", "sql.parse_us"},
	{"bind", "semant.bind_us"},
	{"phase1", "rewrite.phase1_us"},
	{"phase2", "core.emst_us"},
	{"phase3", "rewrite.phase3_us"},
	{"plan-opt1", "opt.plan_opt1_us"},
	{"plan-opt2", "opt.plan_opt2_us"},
	{"lower", "plan.lower_us"},
}

// Operator kinds reported as exec.op_us.<kind>.
var opKinds = []string{"select", "group-by", "distinct", "fixpoint", "materialize"}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better, moves, on string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better, Moves: moves, On: on})
	}
	for _, s := range stageMetrics {
		add(s.Metric, "us", "lower", "read_p50_ms, ops_per_s", "adhoc")
	}
	add("engine.prepare_us.p50", "us", "lower", "read_p50_ms", "adhoc")
	add("engine.prepare_us.p99", "us", "lower", "read_p99_ms", "ingest")
	add("engine.plan_cache_hit_frac", "frac", "higher", "read_p50_ms", "adhoc, ingest")
	add("engine.open_us", "us", "lower", "read_p50_ms", "dashboard, ingest")
	add("engine.finish_us", "us", "lower", "read_p50_ms", "dashboard, ingest")
	for _, id := range shapeOrder {
		moves := "read_p99_ms, ops_per_s"
		if pointWeights[id] > 0 {
			moves = "read_p50_ms"
		}
		add("exec.exec_us."+id, "us", "lower", moves, "dashboard")
	}
	for _, k := range opKinds {
		add("exec.op_us."+k, "us", "lower", "read_p50_ms, ops_per_s", "dashboard")
	}
	add("exec.fixpoint_ms", "ms", "lower", "read_p99_ms, ops_per_s", "dashboard")
	for _, c := range []string{"base_rows", "index_lookups", "hash_probes", "box_evals", "subquery_evals"} {
		add("exec."+c+"_per_op", "count", "lower", "ops_per_s", "dashboard")
	}
	add("exec.rows_examined_per_row", "count", "lower", "ops_per_s", "dashboard")
	add("core.emst_chosen_frac", "frac", "higher", "read_p99_ms", "dashboard")
	add("opt.max_qerror_p50", "ratio", "lower", "read_p99_ms", "dashboard")
	for _, id := range shapeOrder {
		add("core.emst_over_original."+id, "ratio", "lower", "read_p99_ms", "dashboard")
	}
	for _, id := range shapeOrder {
		if id != "TC" {
			add("core.correlated_over_original."+id, "ratio", "lower", "read_p99_ms", "dashboard")
		}
	}
	for _, id := range shapeOrder {
		add("core.emst_over_original_param."+id, "ratio", "lower", "read_p99_ms", "dashboard")
	}
	for _, op := range []string{"begin", "update", "insert", "commit"} {
		add("engine."+op+"_us", "us", "lower", "write_p50_ms", "ingest")
	}
	add("engine.txn_conflict_frac", "frac", "lower", "failed_frac", "ingest")
	add("storage.vacuum_runs", "count", "lower", "write_p99_ms", "ingest")
	add("storage.vacuum_reclaimed_per_commit", "count", "higher", "write_p99_ms", "ingest")
	add("wal.fsyncs_per_commit", "count", "lower", "write_p50_ms", "ingest")
	add("wal.group_commit_mean", "count", "higher", "write_p50_ms", "ingest")
	add("wal.bytes_per_commit", "bytes", "lower", "write_p50_ms", "ingest")
	add("wal.checkpoints", "count", "lower", "write_p99_ms", "ingest")
	add("wal.checkpoint_ms", "ms", "lower", "write_p99_ms", "ingest")
	add("wal.recovery_ms", "ms", "lower", "setup_s", "ingest")
	add("wire.rtt_us.query", "us", "lower", "read_p50_ms", "adhoc, ingest")
	for _, op := range []string{"begin", "update", "insert", "commit"} {
		add("wire.rtt_us."+op, "us", "lower", "write_p50_ms", "ingest")
	}
	add("wire.overhead_us", "us", "lower", "read_p50_ms, write_p50_ms", "adhoc, ingest")
	add("wire.rows_sent_per_query", "count", "lower", "read_p50_ms", "adhoc, ingest")
	add("wire.errors_sent", "count", "lower", "failed_frac", "adhoc, ingest")
	add("runtime.allocs_per_op", "count", "lower", "read_p50_ms, ops_per_s", "dashboard, adhoc, ingest")
	add("runtime.bytes_per_op", "bytes", "lower", "read_p50_ms, ops_per_s", "dashboard, adhoc, ingest")
	add("runtime.gc_cpu_frac", "frac", "lower", "read_p50_ms, ops_per_s", "dashboard, adhoc, ingest")
	add("trace.overhead_frac", "frac", "lower", "ops_per_s", "dashboard, adhoc, ingest")
	// End-to-end figures that only some workloads have. The benchmark's
	// gated end-to-end metrics must exist, non-zero, on every workload, so
	// these are reported here, from the traced run's untraced window.
	add("write_p50_ms", "ms", "lower", "write_p50_ms", "ingest")
	add("write_p99_ms", "ms", "lower", "write_p99_ms", "ingest")
	add("failed_frac", "frac", "lower", "failed_frac", "dashboard, adhoc, ingest")
	return out
}

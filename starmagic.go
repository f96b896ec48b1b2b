// Package starmagic is an embeddable relational query engine that
// implements the extended magic-sets transformation (EMST) of Mumick and
// Pirahesh, "Implementation of Magic-sets in a Relational Database System"
// (SIGMOD 1994) — the first implementation of magic sets inside a
// relational (SQL) system, originally built in IBM's Starburst.
//
// The engine parses a practical SQL subset (views, subqueries, aggregation,
// set operations, NULLs with full three-valued logic), represents queries
// in the Query Graph Model (QGM), optimizes them with a rule-based rewrite
// system into which EMST is integrated as one rule, chooses join orders
// with a cost-based plan optimizer run twice around the transformation, and
// executes the cheaper of the pre-/post-EMST plans — reproducing the
// paper's architecture end to end, including its guarantee that applying
// magic can never degrade the chosen plan.
//
// Quick start:
//
//	db := starmagic.Open()
//	db.MustExec(`CREATE TABLE employee (empno INT, workdept INT, salary FLOAT, PRIMARY KEY (empno))`)
//	db.MustExec(`INSERT INTO employee VALUES (1, 10, 50000.0)`)
//	res, err := db.QueryContext(ctx, `SELECT workdept, AVG(salary) FROM employee GROUP BY workdept`)
//
// The three execution strategies of the paper's Table 1 are selectable per
// query: StrategyOriginal (views materialized in full), StrategyCorrelated
// (tuple-at-a-time re-evaluation, the technique EMST is benchmarked
// against), and StrategyEMST (the default).
//
// QueryContext honors cancellation and deadlines (polled in the executor's
// hot loops), and per-call options select strategy, tracing, parallelism
// and row budgets:
//
//	res, err := db.QueryContext(ctx, query,
//	    starmagic.WithStrategy(starmagic.StrategyEMST),
//	    starmagic.WithTracer(rec),       // *obs.Recorder or any Tracer
//	    starmagic.WithRowLimit(1e6))
//
// Queries may use `?` placeholders bound per call with WithArgs (or per
// execution via Prepared.Execute args); prepared plans are cached by
// normalized SQL text and strategy, so re-preparing a parameterized query
// skips the optimizer entirely until a data or schema change invalidates
// the entry:
//
//	res, err := db.QueryContext(ctx,
//	    `SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s
//	     WHERE d.deptno = s.workdept AND d.deptname = ?`,
//	    starmagic.WithArgs("Planning"))
package starmagic

import (
	"context"
	"time"

	"starmagic/internal/datum"
	"starmagic/internal/engine"
	"starmagic/internal/exec"
	"starmagic/internal/obs"
	"starmagic/internal/resource"
	"starmagic/internal/semant"
	"starmagic/internal/sql"
	"starmagic/internal/wal"
)

// DB is a starmagic database instance. It is safe for concurrent
// use: storage is a versioned (MVCC) row store, every query executes against
// a consistent snapshot taken when it starts, and writers never block
// readers — an open streaming cursor holds no lock, so INSERT, UPDATE and
// DELETE commit freely underneath it. Explicit transactions (Begin) get
// snapshot isolation with first-updater-wins conflict detection; statements
// outside a transaction autocommit through the same machinery. Only DDL
// serializes against queries, and only for its own duration.
// A DB from Open lives purely in memory; OpenDir adds a write-ahead log and
// checkpointing underneath the same MVCC machinery, with identical
// concurrency semantics.
type DB struct {
	eng *engine.Database
}

// Open creates an empty in-memory database. Nothing survives the process;
// use OpenDir for a durable database backed by a data directory.
func Open() *DB { return &DB{eng: engine.New()} }

// OpenDir opens (or creates) a durable database rooted at dir. All committed
// writes go through a write-ahead log with group commit; periodic
// checkpoints bound recovery time; and opening an existing directory
// recovers exactly the committed state — the last checkpoint image plus a
// replay of every logged commit after it, with any torn final record from a
// crash discarded. See SetDurability for the fsync policy (default: fsync
// before every commit acknowledgment, batched across concurrent committers).
func OpenDir(dir string) (*DB, error) {
	eng, err := engine.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	return &DB{eng: eng}, nil
}

// Durability selects when commits are fsynced (see SetDurability).
type Durability = wal.SyncPolicy

// Durability policies, strongest first. All three write the log record to
// the OS before the commit returns, so acknowledged commits survive a crash
// of the database process under every policy; they differ in what survives
// an operating-system crash or power loss.
const (
	// SyncCommit (the default) fsyncs before acknowledging each commit,
	// batched across concurrent committers (group commit).
	SyncCommit = wal.SyncCommit
	// SyncInterval fsyncs on a short background interval; an OS crash can
	// lose up to one interval of acknowledged commits.
	SyncInterval = wal.SyncInterval
	// SyncNever leaves fsync to checkpoints and Close; an OS crash can lose
	// anything since the last of those.
	SyncNever = wal.SyncNever
)

// SetDurability selects the commit fsync policy of a durable database
// (no-op for in-memory databases).
func (db *DB) SetDurability(p Durability) { db.eng.SetDurability(p) }

// Checkpoint writes a full image of the committed state and retires the log
// it supersedes, bounding recovery time. Checkpoints also run automatically
// when the log outgrows a size threshold (SetCheckpointThreshold); explicit
// calls are for tests and shutdown-sensitive callers. No-op for in-memory
// databases.
func (db *DB) Checkpoint() error { return db.eng.Checkpoint() }

// SetCheckpointThreshold sets the write-ahead-log segment size, in bytes,
// that triggers an automatic background checkpoint (default 16 MiB; zero or
// negative disables automatic checkpoints).
func (db *DB) SetCheckpointThreshold(bytes int64) { db.eng.SetCheckpointThreshold(bytes) }

// RecoveryStats reports what OpenDir replayed: recovery wall time and the
// number of log records applied (both zero for in-memory databases).
func (db *DB) RecoveryStats() (time.Duration, int64) { return db.eng.RecoveryStats() }

// Strategy selects how queries are optimized and executed — the three
// columns of the paper's Table 1.
type Strategy = engine.Strategy

// Execution strategies.
const (
	// StrategyEMST runs the full three-phase magic-sets pipeline and
	// executes the cheaper of the pre-/post-transformation plans. Default.
	StrategyEMST = engine.EMST
	// StrategyOriginal materializes views in full (phase-1 rewrite only).
	StrategyOriginal = engine.Original
	// StrategyCorrelated re-evaluates views per outer row without caching.
	StrategyCorrelated = engine.Correlated
)

// ParseStrategy resolves "emst", "original", or "correlated".
func ParseStrategy(name string) (Strategy, error) { return engine.ParseStrategy(name) }

// Result is a query result: column names, rows, and plan information.
type Result = engine.Result

// PlanInfo describes how a query was optimized and executed.
type PlanInfo = engine.PlanInfo

// Counters aggregate executor work (rows scanned, probes, …).
type Counters = exec.Counters

// Value is one SQL value.
type Value = datum.D

// Row is one result or input row.
type Row = datum.Row

// Value constructors.
var (
	Int    = datum.Int
	Float  = datum.Float
	String = datum.String
	Bool   = datum.Bool
	Null   = datum.Null
)

// Exec runs a semicolon-separated script of DDL and INSERT statements,
// returning the number of rows inserted.
func (db *DB) Exec(script string) (int64, error) { return db.eng.Exec(script) }

// MustExec is Exec that panics on error; convenient in setup code.
func (db *DB) MustExec(script string) int64 {
	n, err := db.eng.Exec(script)
	if err != nil {
		panic(err)
	}
	return n
}

// InsertRows bulk-loads rows into a table through the Go API.
func (db *DB) InsertRows(table string, rows []Row) error {
	return db.eng.InsertRows(table, rows)
}

// Analyze refreshes optimizer statistics. Queries trigger it automatically
// after data changes; call it explicitly after InsertRows-heavy loads if
// you want to control when the work happens.
func (db *DB) Analyze() { db.eng.Analyze() }

// QueryOption configures one QueryContext/PrepareContext/ExplainContext
// call.
type QueryOption = engine.QueryOption

// Tracer receives one span per pipeline phase (parse, bind, the rewrite
// phases, both plan-optimization passes, execute); Span is one timed phase.
// A nil tracer (the default) is a no-op with no allocation on any path.
type Tracer = obs.Tracer

// Span is one timed pipeline phase reported to a Tracer.
type Span = obs.Span

// Recorder is an in-memory Tracer capturing completed spans; pass it via
// WithTracer and read Spans() after the query.
type Recorder = obs.Recorder

// NewRecorder returns an empty span recorder.
func NewRecorder() *Recorder { return obs.NewRecorder() }

// WithStrategy selects the optimization/execution strategy for one call.
func WithStrategy(s Strategy) QueryOption { return engine.WithStrategy(s) }

// WithArgs binds values to the query's `?` placeholders in left-to-right
// order (nil, bool, int/int32/int64, float32/float64, string, or Value).
// Every plan of a parameterized statement is correct for any binding; each
// execution runs the plan variant optimized for its values' selectivity
// class (at most eight per statement, each optimized once).
func WithArgs(args ...any) QueryOption { return engine.WithArgs(args...) }

// WithTracer installs a span tracer for one call.
func WithTracer(t Tracer) QueryOption { return engine.WithTracer(t) }

// WithParallelism overrides the database-wide parallelism for one call.
func WithParallelism(n int) QueryOption { return engine.WithParallelism(n) }

// WithRowLimit bounds the executor's total produced rows for one call;
// exceeding it aborts the query with an error.
func WithRowLimit(n int64) QueryOption { return engine.WithRowLimit(n) }

// WithMemoryLimit caps this call's resident operator state at n bytes,
// overriding the database-wide SetMemoryLimit per-query default (0 removes
// the cap for this call). Under a cap, memory-hungry operators — hash-join
// builds, sorts, DISTINCT and group-by state — spill to temporary files
// instead of failing; a query whose working set cannot spill below the cap
// fails with ErrMemoryExceeded.
func WithMemoryLimit(n int64) QueryOption { return engine.WithMemoryLimit(n) }

// WithAdmission controls whether this execution passes through the
// database's admission queue (default true); WithAdmission(false) exempts
// the call, which is useful for administrative or monitoring queries that
// must not wait behind a saturated queue. It has no effect unless
// SetAdmission has configured a cap.
func WithAdmission(enabled bool) QueryOption { return engine.WithAdmission(enabled) }

// Rows is a streaming result cursor: Columns, then Next/Row (or Scan) until
// Next returns false, then Err and Close. Rows pull from the streaming
// executor batch by batch, so the full result set never materializes and a
// consumer that stops early never pays for the rows it skipped. The deferred
// PlanInfo (counters, timings, memory footprint) is available from Plan()
// after the cursor finalizes — drained, failed, or Closed.
//
// An open cursor holds no lock — it reads a registered MVCC snapshot, so
// concurrent DML commits freely while the cursor streams. It does hold its
// admission slot, memory budget, and snapshot registration (pinning old row
// versions against vacuum) until Close; always Close it (a drained cursor
// finalizes itself, making Close a no-op).
type Rows = engine.Rows

// QueryRows optimizes and executes a SELECT, returning a streaming cursor
// instead of a materialized Result. It accepts the same options as
// QueryContext. This is the preferred query API for large results; Query and
// QueryContext are thin materializing wrappers over the same execution path.
func (db *DB) QueryRows(ctx context.Context, query string, opts ...QueryOption) (*Rows, error) {
	return db.eng.QueryRows(ctx, query, opts...)
}

// Typed query-pipeline errors, re-exported so callers can errors.As against
// them without importing internal packages. The resource-governor sentinels
// (ErrMemoryExceeded, ErrAdmissionRejected, ErrClosed) are further down.
type (
	// ParseError is a positioned lex/parse failure (line and column are
	// 1-based over the query text).
	ParseError = sql.Error
	// NotFoundError is a name-resolution failure: an unknown table, view, or
	// column (Kind says which).
	NotFoundError = semant.NotFoundError
	// ParamCountError reports a mismatch between a query's `?` placeholders
	// and the values bound for an execution.
	ParamCountError = engine.ParamCountError
)

// Txn is an explicit transaction running under MVCC snapshot isolation: it
// sees a consistent snapshot taken at Begin plus its own staged writes, and
// its INSERT/UPDATE/DELETE become visible to others atomically at Commit.
// Write-write conflicts use first-updater-wins: the second transaction to
// touch a row fails immediately with ErrWriteConflict and is rolled back
// (no waiting, so no deadlocks — retry the transaction). A Txn is not safe
// for concurrent use by multiple goroutines.
type Txn = engine.Txn

// Begin starts an explicit transaction. Always resolve it with Commit or
// Rollback; an abandoned transaction pins old row versions against vacuum.
func (db *DB) Begin() *Txn { return db.eng.Begin() }

// Transaction errors, re-exported for errors.Is.
var (
	// ErrWriteConflict marks a transaction that lost a first-updater-wins
	// race and was rolled back; the caller should retry it.
	ErrWriteConflict = engine.ErrWriteConflict
	// ErrTxnDone marks use of a transaction after Commit or Rollback.
	ErrTxnDone = engine.ErrTxnDone
)

// Vacuum synchronously reclaims row versions no longer visible to any live
// snapshot and compacts the string intern table if enough died. The engine
// runs this automatically in the background once enough garbage accumulates;
// call it explicitly to make reclamation deterministic (e.g. in tests or
// after a bulk DELETE). It returns the number of versions reclaimed.
func (db *DB) Vacuum() int { return db.eng.Vacuum() }

// Query optimizes and executes a SELECT with the default EMST strategy.
func (db *DB) Query(query string) (*Result, error) { return db.eng.Query(query) }

// QueryWith optimizes and executes a SELECT with an explicit strategy.
func (db *DB) QueryWith(query string, s Strategy) (*Result, error) {
	return db.eng.QueryWith(query, s)
}

// QueryContext optimizes and executes a SELECT under ctx: cancellation and
// deadlines abort the pipeline between phases and the executor inside its
// scan/join/recursion loops (amortized, so the overhead stays within
// benchmark noise), returning ctx.Err() promptly.
func (db *DB) QueryContext(ctx context.Context, query string, opts ...QueryOption) (*Result, error) {
	return db.eng.QueryContext(ctx, query, opts...)
}

// Prepared is an optimized query plan that can be executed repeatedly, from
// any number of goroutines; each execution uses fresh evaluator state and
// reports its own counters.
type Prepared = engine.Prepared

// Prepare parses, binds and optimizes a query for repeated execution.
func (db *DB) Prepare(query string, s Strategy) (*Prepared, error) {
	return db.eng.Prepare(query, s)
}

// PrepareContext is Prepare with a context and per-call options.
func (db *DB) PrepareContext(ctx context.Context, query string, opts ...QueryOption) (*Prepared, error) {
	return db.eng.PrepareContext(ctx, query, opts...)
}

// ExplainInfo is the structured optimization account: per-phase timings and
// QGM snapshots, rewrite-rule fire counts, the plan-cost comparison and its
// winner, and the executed plan's join orders. String() renders it as text.
type ExplainInfo = engine.ExplainInfo

// Explain returns a textual account of the optimization: the QGM graph
// after each rewrite phase (the paper's Figure 4 panels), plan costs, and
// which plan won the cost comparison.
func (db *DB) Explain(query string, s Strategy) (string, error) {
	return db.eng.Explain(query, s)
}

// ExplainContext returns the structured ExplainInfo for a query without
// executing it.
func (db *DB) ExplainContext(ctx context.Context, query string, opts ...QueryOption) (*ExplainInfo, error) {
	return db.eng.ExplainContext(ctx, query, opts...)
}

// SetPlanCache enables or disables the prepared-plan cache (it starts
// enabled). The cache serves repeated prepares of the same normalized SQL +
// strategy without re-running the optimizer; DDL and Analyze advance a
// catalog epoch that invalidates stale entries automatically. DML does not:
// plans read through MVCC snapshots, so data changes never make a cached
// plan incorrect.
func (db *DB) SetPlanCache(enabled bool) { db.eng.SetPlanCache(enabled) }

// PlanCacheStats is a point-in-time view of the plan cache.
type PlanCacheStats = engine.PlanCacheStats

// PlanCacheStats reports cache size and hit/miss/eviction counters.
func (db *DB) PlanCacheStats() PlanCacheStats { return db.eng.PlanCacheStats() }

// Resource-governor errors, re-exported so callers can errors.Is against
// them without importing internal packages.
var (
	// ErrMemoryExceeded marks a query whose working set could not fit (or
	// spill below) its memory budget.
	ErrMemoryExceeded = resource.ErrMemoryExceeded
	// ErrAdmissionRejected marks an execution bounced because the admission
	// wait queue was full.
	ErrAdmissionRejected = resource.ErrAdmissionRejected
	// ErrClosed marks an execution attempted after Close.
	ErrClosed = resource.ErrClosed
)

// MemInfo is the per-query memory account reported in PlanInfo.Mem: the
// effective budget, the peak bytes the governor reserved for the query
// (never above the budget), and how much operator state spilled to disk.
type MemInfo = engine.MemInfo

// GovernorStats is a point-in-time snapshot of the memory governor and the
// admission queue.
type GovernorStats = resource.GovernorStats

// SetParallelism configures intra-query parallelism for subsequent
// executions: 0 or 1 executes serially (the default); negative means
// GOMAXPROCS workers. Results are identical to serial execution.
func (db *DB) SetParallelism(n int) { db.eng.SetParallelism(n) }

// SetMemoryLimit configures memory governance for every subsequent query:
// perQuery caps each query's resident operator state and total caps the sum
// across concurrent queries (0 disables either cap). Capped queries spill
// oversized operator state to temporary files; WithMemoryLimit overrides
// the per-query default for one call.
func (db *DB) SetMemoryLimit(perQuery, total int64) { db.eng.SetMemoryLimit(perQuery, total) }

// SetAdmission configures admission control: at most maxConcurrent query
// executions run at once and at most maxQueue more wait in FIFO order;
// beyond that executions fail fast with ErrAdmissionRejected. Waiting
// honors context cancellation. maxConcurrent <= 0 disables admission
// control.
func (db *DB) SetAdmission(maxConcurrent, maxQueue int) { db.eng.SetAdmission(maxConcurrent, maxQueue) }

// ResourceStats returns a snapshot of the memory governor and admission
// queue: bytes in use, spill totals, and admitted/waiting/rejected counts.
func (db *DB) ResourceStats() GovernorStats { return db.eng.ResourceStats() }

// Close shuts the database down for new work: queued executions are
// rejected with ErrClosed and Close blocks until running executions and any
// background vacuum or checkpoint pass drain. On a durable database
// (OpenDir) Close then flushes, fsyncs, and closes the write-ahead log, so
// a clean shutdown loses nothing under any durability policy; the returned
// error reports a failure of that final flush (always nil for in-memory
// databases).
func (db *DB) Close() error { return db.eng.Close() }

// Metrics is a snapshot of database-wide activity: plan/query volume, EMST
// cost-comparison outcomes, cumulative executor counters, and rule fires.
type Metrics = obs.Metrics

// Metrics returns the current metrics snapshot.
func (db *DB) Metrics() Metrics { return db.eng.Metrics() }

// ResetMetrics zeroes the accumulated metrics.
func (db *DB) ResetMetrics() { db.eng.ResetMetrics() }

// Engine exposes the underlying engine for advanced integrations
// (extension box kinds, direct catalog access).
func (db *DB) Engine() *engine.Database { return db.eng }

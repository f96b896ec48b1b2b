// Transactions: snapshot-isolated MVCC over the versioned row store. A
// transaction captures a snapshot (the commit timestamp at Begin) and a
// storage view; its writes stage row versions stamped with the transaction
// id, visible only to itself until Commit rewrites them with the next
// commit timestamp under the engine's commit mutex. Conflict detection is
// first-updater-wins: claiming a version another transaction already
// deleted fails the statement immediately with ErrWriteConflict and rolls
// the transaction back — no lock waits, no deadlocks.
//
// DML outside an explicit transaction runs as a single-statement autocommit
// transaction through the same machinery, so autocommit and explicit
// transactions have identical visibility and conflict semantics.
package engine

import (
	"context"
	"fmt"

	"starmagic/internal/core"
	"starmagic/internal/datum"
	"starmagic/internal/exec"
	"starmagic/internal/semant"
	"starmagic/internal/sql"
	"starmagic/internal/storage"
	"starmagic/internal/wal"
)

// vacuumThreshold is the number of reclaimable row versions that triggers a
// background vacuum pass after a commit or rollback.
const vacuumThreshold = 256

// txnWrite is one staged row version: an appended insert or a claimed
// delete, identified by its position in the relation's version arrays
// (stable while the marker is unresolved — vacuum skips such relations).
type txnWrite struct {
	rel    *storage.Relation
	pos    int
	insert bool
}

// Txn is an explicit transaction: a snapshot for reads plus a write set of
// staged versions. It is not safe for concurrent use (one session drives
// one transaction, like a MySQL connection). Reads through QueryRows see
// the snapshot plus the transaction's own writes; writes become visible to
// others atomically at Commit.
type Txn struct {
	db     *Database
	id     uint64
	snap   storage.Snap
	view   *storage.View
	writes []txnWrite
	done   bool
}

// Begin starts a transaction on the current committed state. Every Begin
// must be paired with exactly one Commit or Rollback (Rollback is
// idempotent and safe to defer).
func (db *Database) Begin() *Txn {
	id := storage.TxnIDBit | db.txnSeq.Add(1)
	ts := db.retainSnapshot()
	t := &Txn{db: db, id: id, snap: storage.Snap{TS: ts, Self: id}}
	t.view = db.store.NewView(t.snap)
	db.metrics.RecordTxnBegin()
	return t
}

// Commit publishes the transaction's writes: all staged versions are
// stamped with one fresh commit timestamp under the commit mutex, and the
// global clock advances only after every stamp is in place, so readers
// snapshotting mid-commit see either none of the writes (their snapshot
// predates the new timestamp) or, after the clock advances, all of them.
func (t *Txn) Commit() error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	db := t.db
	defer db.releaseSnapshot(t.snap.TS)
	if len(t.writes) == 0 {
		db.metrics.RecordTxnCommit()
		return nil
	}
	walSeq, deletes, walErr := t.publish()
	db.statsDirty.Store(true)
	db.metrics.RecordTxnCommit()
	if deletes > 0 {
		db.garbage.Add(deletes)
		db.maybeVacuum()
	}
	if db.wal != nil {
		if walErr == nil {
			walErr = db.wal.WaitDurable(walSeq)
		}
		db.maybeCheckpoint()
		if walErr != nil {
			// The commit is visible in memory but its durability is not
			// guaranteed; surface that so the caller can stop trusting acks.
			return fmt.Errorf("commit applied but not durable: %w", walErr)
		}
	}
	return nil
}

// publish stamps every staged version with the next commit timestamp and,
// on a durable database, buffers the commit record, all under the commit
// mutex. The record is built before any stamp: stamping releases the
// relations' in-flight counts, after which a background vacuum may compact
// them and move the positions the write set names. Logging here, in
// commit-timestamp order, only buffers — the fsync wait happens after the
// mutex is released, so the disk is never inside the commit critical
// section and concurrent committers share one group-commit fsync.
func (t *Txn) publish() (walSeq uint64, deletes int64, walErr error) {
	db := t.db
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	ts := db.commitTS.Load() + 1
	var ops []wal.Op
	if db.wal != nil {
		ops = t.walOps(ts)
	}
	for _, w := range t.writes {
		if w.insert {
			w.rel.FinishAppend(w.pos, ts)
		} else {
			w.rel.FinishDelete(w.pos, ts)
			deletes++
		}
	}
	if db.wal != nil {
		walSeq, walErr = db.wal.AppendCommit(ts, ops)
	}
	db.commitTS.Store(ts)
	return walSeq, deletes, walErr
}

// Rollback discards the transaction's writes: staged inserts become
// invisible to every snapshot, claimed deletes are released. Rolling back
// a finished transaction is a no-op, so `defer t.Rollback()` pairs safely
// with a later Commit.
func (t *Txn) Rollback() error {
	if t.done {
		return nil
	}
	t.done = true
	db := t.db
	var aborted int64
	for _, w := range t.writes {
		if w.insert {
			w.rel.AbortAppend(w.pos)
			aborted++
		} else {
			w.rel.AbortDelete(w.pos)
		}
	}
	db.releaseSnapshot(t.snap.TS)
	db.metrics.RecordTxnRollback()
	if aborted > 0 {
		db.garbage.Add(aborted)
		db.maybeVacuum()
	}
	return nil
}

// Done reports whether the transaction has been committed or rolled back.
func (t *Txn) Done() bool { return t.done }

// ExecContext runs a script of DML statements (INSERT, UPDATE, DELETE)
// inside the transaction and returns the number of rows affected. DDL is
// rejected — schema changes are autocommit-only. A write-write conflict
// rolls the whole transaction back (MySQL 1213 semantics) and surfaces
// ErrWriteConflict.
func (t *Txn) ExecContext(ctx context.Context, script string) (int64, error) {
	if t.done {
		return 0, ErrTxnDone
	}
	stmts, err := sql.ParseAll(script)
	if err != nil {
		return 0, err
	}
	var affected int64
	for _, st := range stmts {
		if n := sql.CountParams(st); n > 0 {
			return affected, fmt.Errorf("statement uses %d parameter placeholder(s); parameters (?) are only supported in queries (use WithArgs)", n)
		}
		if err := ctx.Err(); err != nil {
			return affected, err
		}
		n, err := t.db.execDML(t, st)
		affected += n
		if err != nil {
			return affected, err
		}
		// Later statements (and queries) must see this statement's writes:
		// re-capture the view so Self-stamped versions appended after the
		// previous capture are in it.
		t.view.Refresh()
	}
	return affected, nil
}

// Exec is ExecContext with a background context.
func (t *Txn) Exec(script string) (int64, error) {
	return t.ExecContext(context.Background(), script)
}

// QueryRows prepares and executes a query inside the transaction: it reads
// the transaction's snapshot plus its own staged writes. Close the cursor
// before Commit/Rollback.
func (t *Txn) QueryRows(ctx context.Context, query string, opts ...QueryOption) (*Rows, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	p, err := t.db.PrepareContext(ctx, query, opts...)
	if err != nil {
		return nil, err
	}
	return p.executeRowsIn(ctx, t)
}

// QueryContext runs a query inside the transaction and drains it into a
// Result.
func (t *Txn) QueryContext(ctx context.Context, query string, opts ...QueryOption) (*Result, error) {
	r, err := t.QueryRows(ctx, query, opts...)
	if err != nil {
		return nil, err
	}
	var rows []datum.Row
	for r.Next() {
		rows = append(rows, r.Row())
	}
	if err := r.Err(); err != nil {
		_ = r.Close()
		return nil, err
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return &Result{Columns: r.Columns(), Rows: rows, Plan: *r.Plan()}, nil
}

// Query is QueryContext with a background context.
func (t *Txn) Query(query string, opts ...QueryOption) (*Result, error) {
	return t.QueryContext(context.Background(), query, opts...)
}

// execDML dispatches one DML statement into the transaction's write set.
// It holds the database read lock for the statement so the catalog is
// stable against DDL; DML from other transactions proceeds concurrently.
func (db *Database) execDML(t *Txn, st sql.Statement) (int64, error) {
	if t.done {
		return 0, ErrTxnDone
	}
	// INSERT ... SELECT optimizes its source query; freshen stale
	// statistics first, outside the read lock (analyze mutates catalog
	// stats under the write lock).
	if ins, ok := st.(*sql.Insert); ok && ins.Query != nil && db.statsDirty.Load() {
		db.mu.Lock()
		if db.statsDirty.Load() {
			db.analyzeLocked()
		}
		db.mu.Unlock()
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	switch s := st.(type) {
	case *sql.Insert:
		return t.stageInsert(s)
	case *sql.Delete:
		return t.stageDelete(s)
	case *sql.Update:
		return t.stageUpdate(s)
	}
	return 0, fmt.Errorf("only INSERT, UPDATE and DELETE are allowed in a transaction, got %T", st)
}

// stageAppend validates and appends one row version stamped with the
// transaction id, recording it in the write set.
func (t *Txn) stageAppend(rel *storage.Relation, row datum.Row) error {
	pos, err := rel.Append(row, t.id)
	if err != nil {
		return err
	}
	t.writes = append(t.writes, txnWrite{rel: rel, pos: pos, insert: true})
	return nil
}

// conflict converts a storage conflict into the engine's typed error and
// rolls the transaction back (first-updater-wins losers do not linger).
func (t *Txn) conflict(table string) error {
	t.db.metrics.RecordTxnConflict()
	_ = t.Rollback()
	return fmt.Errorf("table %s: %w", table, ErrWriteConflict)
}

func (t *Txn) stageInsert(s *sql.Insert) (int64, error) {
	db := t.db
	rel, ok := db.store.Relation(s.Table)
	if !ok {
		return 0, fmt.Errorf("table %q not found", s.Table)
	}
	if s.Query != nil {
		return t.stageInsertSelect(rel, s)
	}
	var n int64
	for _, rowExprs := range s.Rows {
		row := make(datum.Row, len(rowExprs))
		for i, e := range rowExprs {
			v, err := evalConstExpr(e)
			if err != nil {
				return n, err
			}
			row[i] = v
		}
		if err := t.stageAppend(rel, row); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// stageInsertSelect executes INSERT INTO t SELECT ... — the source query
// runs under the full EMST pipeline against the transaction's view (it
// sees the transaction's earlier statements, and never its own output:
// the scan is captured before any append, so self-insertion cannot loop).
func (t *Txn) stageInsertSelect(rel *storage.Relation, s *sql.Insert) (int64, error) {
	db := t.db
	g, err := semant.NewBuilder(db.cat).Build(s.Query)
	if err != nil {
		return 0, err
	}
	tbl, _ := db.cat.Table(s.Table)
	if got, want := len(g.Top.Output)-g.HiddenCols, len(tbl.Columns); got != want {
		return 0, fmt.Errorf("INSERT INTO %s: query yields %d columns, table has %d", s.Table, got, want)
	}
	res, err := core.Optimize(g, core.Options{})
	if err != nil {
		return 0, err
	}
	ev := exec.New(db.store)
	ev.SetView(t.view)
	rows, err := ev.EvalGraph(res.Graph)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, row := range rows {
		if err := t.stageAppend(rel, row); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

func (t *Txn) stageDelete(s *sql.Delete) (int64, error) {
	db := t.db
	rel, ok := db.store.Relation(s.Table)
	if !ok {
		return 0, fmt.Errorf("table %q not found", s.Table)
	}
	pred, err := t.compileBoolPred(rel, s.Where)
	if err != nil {
		return 0, err
	}
	n, err := rel.DeleteWhere(t.snap, t.id, pred, func(pos int, _ datum.Row) {
		t.writes = append(t.writes, txnWrite{rel: rel, pos: pos})
	})
	if err == storage.ErrConflict {
		return n, t.conflict(s.Table)
	}
	return n, err
}

func (t *Txn) stageUpdate(s *sql.Update) (int64, error) {
	db := t.db
	rel, ok := db.store.Relation(s.Table)
	if !ok {
		return 0, fmt.Errorf("table %q not found", s.Table)
	}
	meta := rel.Meta
	type setter struct {
		ord int
		fn  func(datum.Row) (datum.D, error)
	}
	var setters []setter
	for _, a := range s.Set {
		ord := meta.ColumnIndex(a.Column)
		if ord < 0 {
			return 0, fmt.Errorf("table %s: unknown column %q", s.Table, a.Column)
		}
		fn, err := db.compileRowExpr(meta, a.Expr)
		if err != nil {
			return 0, err
		}
		setters = append(setters, setter{ord: ord, fn: fn})
	}
	pred, err := t.compileBoolPred(rel, s.Where)
	if err != nil {
		return 0, err
	}
	// Phase 1: claim the matching versions for deletion, computing each
	// replacement row from the OLD row as it is matched. The next staged
	// row is built in the predicate (before the claim) and recorded at the
	// claim, keeping the two lists aligned even if a claim conflicts.
	var updated []datum.Row
	var next datum.Row
	wrapped := func(row datum.Row) (bool, error) {
		match, err := pred(row)
		if err != nil || !match {
			return match, err
		}
		next = row.Clone()
		for _, st := range setters {
			v, err := st.fn(row)
			if err != nil {
				return false, err
			}
			next[st.ord] = v
		}
		return true, nil
	}
	n, err := rel.DeleteWhere(t.snap, t.id, wrapped, func(pos int, _ datum.Row) {
		t.writes = append(t.writes, txnWrite{rel: rel, pos: pos})
		updated = append(updated, next)
	})
	if err == storage.ErrConflict {
		return 0, t.conflict(s.Table)
	}
	if err != nil {
		return 0, err
	}
	// Phase 2: append the replacement versions. The claims made in phase 1
	// hold the relation's positions stable (vacuum skips relations with
	// unresolved markers).
	for _, row := range updated {
		if err := t.stageAppend(rel, row); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// compileBoolPred compiles an optional WHERE expression into a boolean
// row predicate (nil WHERE matches every row).
func (t *Txn) compileBoolPred(rel *storage.Relation, where sql.Expr) (func(datum.Row) (bool, error), error) {
	if where == nil {
		return func(datum.Row) (bool, error) { return true, nil }, nil
	}
	fn, err := t.db.compileRowExpr(rel.Meta, where)
	if err != nil {
		return nil, err
	}
	return func(row datum.Row) (bool, error) {
		v, err := fn(row)
		if err != nil {
			return false, err
		}
		return !v.IsNull() && v.T == datum.TBool && v.B, nil
	}, nil
}

// autocommit runs one DML statement as its own transaction.
func (db *Database) autocommit(st sql.Statement) (int64, error) {
	t := db.Begin()
	n, err := db.execDML(t, st)
	if err != nil {
		_ = t.Rollback() // no-op if a conflict already rolled back
		return 0, err
	}
	if err := t.Commit(); err != nil {
		return 0, err
	}
	return n, nil
}

// retainSnapshot registers a reader at the current commit timestamp and
// returns it; vacuum never reclaims versions a registered snapshot can see.
func (db *Database) retainSnapshot() uint64 {
	db.snapMu.Lock()
	defer db.snapMu.Unlock()
	ts := db.commitTS.Load()
	if db.snaps == nil {
		db.snaps = make(map[uint64]int)
	}
	db.snaps[ts]++
	return ts
}

// releaseSnapshot drops one reference to a registered snapshot timestamp.
func (db *Database) releaseSnapshot(ts uint64) {
	db.snapMu.Lock()
	defer db.snapMu.Unlock()
	if n := db.snaps[ts]; n > 1 {
		db.snaps[ts] = n - 1
	} else {
		delete(db.snaps, ts)
	}
}

// oldestSnapshot returns the vacuum horizon: the oldest registered snapshot
// timestamp, or the current commit timestamp when no reader is live.
func (db *Database) oldestSnapshot() uint64 {
	db.snapMu.Lock()
	defer db.snapMu.Unlock()
	min := db.commitTS.Load()
	for ts := range db.snaps {
		if ts < min {
			min = ts
		}
	}
	return min
}

// maybeVacuum starts one background vacuum pass when enough reclaimable
// versions have accumulated. At most one pass runs at a time.
func (db *Database) maybeVacuum() {
	if db.garbage.Load() < vacuumThreshold {
		return
	}
	if !db.vacuumBusy.CompareAndSwap(false, true) {
		return
	}
	db.vacuumWG.Add(1)
	go func() {
		defer db.vacuumWG.Done()
		defer db.vacuumBusy.Store(false)
		db.Vacuum()
	}()
}

// Vacuum synchronously reclaims row versions invisible to every live and
// future snapshot (aborted inserts, and versions whose delete committed at
// or before the oldest live snapshot), then compacts the string intern
// table if most of it became garbage. Relations with in-flight transaction
// markers are skipped and picked up by a later pass. Returns the number of
// versions reclaimed. It runs automatically in the background as garbage
// accumulates; calling it explicitly is useful in tests and maintenance
// windows.
func (db *Database) Vacuum() int {
	horizon := db.oldestSnapshot()
	n := db.store.Vacuum(horizon)
	if n > 0 {
		db.garbage.Add(-int64(n))
	}
	db.store.MaybeCompactIntern()
	db.metrics.RecordVacuum(n)
	return n
}

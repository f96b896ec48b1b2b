// Durability: OpenDir ties a Database to a write-ahead log (internal/wal).
// The MVCC commit path is the natural hook — commit timestamps give log
// records their serialization order, so recovery is a replay of commits in
// timestamp order on top of the last checkpoint image. Aborts emit nothing:
// a transaction that never committed was never in the log.
//
// Checkpoints run alongside vacuum in the background (size-triggered, see
// maybeCheckpoint) and follow vacuum's snapshot protocol: the checkpoint
// timestamp is registered as a live snapshot for the duration of the image
// write, so the versions it streams are never reclaimed underneath it.
package engine

import (
	"encoding/binary"
	"fmt"
	"strings"
	"time"

	"starmagic/internal/catalog"
	"starmagic/internal/datum"
	"starmagic/internal/obs"
	"starmagic/internal/sql"
	"starmagic/internal/storage"
	"starmagic/internal/wal"
)

// defaultCheckpointBytes is the segment size that triggers a background
// checkpoint (see SetCheckpointThreshold).
const defaultCheckpointBytes = 16 << 20

// OpenDir opens (or creates) a durable database rooted at dir. Existing
// state is recovered before the first query can run: the last checkpoint
// image is loaded (rebuilding hash indexes and the string-intern table as
// rows are re-appended), then every log record past it replays in commit
// order, with the final torn record — if a crash left one — truncated.
// The commit clock resumes from the highest recovered timestamp.
//
// All writes made through Exec, transactions, and InsertRows are logged;
// DDL is logged as SQL text. Durability of commits follows SetDurability
// (fsync-per-commit group commit by default). A database opened with New
// has no log and is unchanged by this file's machinery.
func OpenDir(dir string) (*Database, error) {
	db := New()
	start := time.Now()
	rc := &recoverer{db: db, live: make(map[string]map[string][]int)}
	l, err := wal.Open(dir, rc, wal.Options{})
	if err != nil {
		return nil, err
	}
	db.commitTS.Store(rc.maxTS)
	db.statsDirty.Store(true)
	db.garbage.Add(rc.deletes)
	db.wal = l
	db.ckptThreshold.Store(defaultCheckpointBytes)
	db.recoveryNanos = time.Since(start).Nanoseconds()
	db.recoveryRecords = rc.records
	return db, nil
}

// Durable reports whether the database is backed by a write-ahead log.
func (db *Database) Durable() bool { return db.wal != nil }

// SetDurability selects the fsync policy for subsequent commits of a
// durable database (no-op for in-memory databases). The default is
// wal.SyncCommit: group-committed fsync before Commit returns.
func (db *Database) SetDurability(p wal.SyncPolicy) {
	if db.wal != nil {
		db.wal.SetPolicy(p)
	}
}

// SetCheckpointThreshold sets the log-segment size, in bytes, that triggers
// a background checkpoint after a commit (default 16 MiB). Zero or negative
// disables automatic checkpoints; explicit Checkpoint calls still work.
func (db *Database) SetCheckpointThreshold(bytes int64) {
	db.ckptThreshold.Store(bytes)
}

// RecoveryStats reports the work OpenDir did: wall time and the number of
// log records replayed (both zero for in-memory databases).
func (db *Database) RecoveryStats() (time.Duration, int64) {
	return time.Duration(db.recoveryNanos), db.recoveryRecords
}

// walOps captures the write set as the operations of one commit record,
// reading each version while the transaction's unresolved markers still
// pin its position. A deleted version this transaction inserted itself
// carries the transaction id as its begin stamp until commit; it is logged
// with ts, the stamp replay gives the insert.
func (t *Txn) walOps(ts uint64) []wal.Op {
	ops := make([]wal.Op, len(t.writes))
	for i, w := range t.writes {
		row, begin := w.rel.VersionData(w.pos)
		op := wal.Op{Table: w.rel.Meta.Name, Row: row}
		if !w.insert {
			if begin == t.id {
				begin = ts
			}
			op.Delete = true
			op.Begin = begin
		}
		ops[i] = op
	}
	return ops
}

// logDDL makes one schema statement durable before the DDL returns. Called
// under the database write lock after the statement succeeded, so replay
// order equals execution order.
func (db *Database) logDDL(st sql.Statement) error {
	if db.wal == nil {
		return nil
	}
	seq, err := db.wal.AppendDDL(ddlSQL(st))
	if err == nil {
		err = db.wal.WaitDurable(seq)
	}
	if err != nil {
		return fmt.Errorf("ddl applied but not durable: %w", err)
	}
	return nil
}

// ddlSQL renders a schema statement back to SQL text for the log. The
// parser accepts exactly this rendering, so recovery replays through the
// normal DDL path.
func ddlSQL(st sql.Statement) string {
	var b strings.Builder
	switch s := st.(type) {
	case *sql.CreateTable:
		b.WriteString("CREATE TABLE ")
		b.WriteString(s.Name)
		b.WriteString(" (")
		for i, c := range s.Cols {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.Name)
			b.WriteByte(' ')
			b.WriteString(c.Type.String())
		}
		if len(s.PrimaryKey) > 0 {
			b.WriteString(", PRIMARY KEY (")
			b.WriteString(strings.Join(s.PrimaryKey, ", "))
			b.WriteString(")")
		}
		for _, u := range s.Uniques {
			b.WriteString(", UNIQUE (")
			b.WriteString(strings.Join(u, ", "))
			b.WriteString(")")
		}
		b.WriteString(")")
	case *sql.CreateView:
		b.WriteString("CREATE VIEW ")
		b.WriteString(s.Name)
		if len(s.Cols) > 0 {
			b.WriteString(" (")
			b.WriteString(strings.Join(s.Cols, ", "))
			b.WriteString(")")
		}
		b.WriteString(" AS ")
		b.WriteString(s.SQL)
	case *sql.CreateIndex:
		if s.Unique {
			b.WriteString("CREATE UNIQUE INDEX ")
		} else {
			b.WriteString("CREATE INDEX ")
		}
		b.WriteString(s.Name)
		b.WriteString(" ON ")
		b.WriteString(s.Table)
		b.WriteString(" (")
		b.WriteString(strings.Join(s.Cols, ", "))
		b.WriteString(")")
	case *sql.DropView:
		b.WriteString("DROP VIEW ")
		b.WriteString(s.Name)
	case *sql.DropTable:
		b.WriteString("DROP TABLE ")
		b.WriteString(s.Name)
	}
	return b.String()
}

// Checkpoint writes a full image of the committed state and retires the log
// segments it supersedes. The protocol, in lock order:
//
//  1. Under the database read lock (freezing DDL) and the commit mutex
//     (freezing the clock), read the checkpoint timestamp T and rotate the
//     log — every commit stamped after T lands in the new segment.
//  2. Still under the commit mutex, register T as a live snapshot so
//     vacuum's horizon cannot pass it: the versions visible at T survive
//     until the image is on disk.
//  3. Release the commit mutex (commits flow again), capture the catalog
//     and each relation's backing arrays, release the read lock.
//  4. Stream every version visible at T — with its original begin stamp —
//     to a temp file, commit it (fsync, rename, manifest update), and
//     release the snapshot.
//
// Deletes that commit after T stay visible at T and are stored live; their
// commit records sit in the new segment and re-delete them at replay.
// Checkpoints serialize among themselves and run concurrently with readers
// and writers. On an in-memory database Checkpoint is a no-op.
func (db *Database) Checkpoint() error {
	if db.wal == nil {
		return nil
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()

	db.mu.RLock()
	db.commitMu.Lock()
	ts := db.commitTS.Load()
	gen, err := db.wal.Rotate()
	if err == nil {
		db.retainSnapshotAt(ts)
	}
	db.commitMu.Unlock()
	if err != nil {
		db.mu.RUnlock()
		return err
	}
	// Catalog capture under the same read lock that covered the rotation:
	// DDL needs the write lock, so every schema statement is either fully
	// before the rotation (its effect is in this image, its record in the
	// retired segments) or fully after this capture (its record replays
	// from the new segment).
	tables := db.cat.Tables()
	metas := make([]wal.TableMeta, 0, len(tables))
	rels := make([]*storage.Relation, 0, len(tables))
	for _, t := range tables {
		rel, ok := db.store.Relation(t.Name)
		if !ok {
			continue
		}
		m := wal.TableMeta{Name: t.Name, Keys: copyOrdSets(t.Keys), Indexes: copyOrdSets(t.Indexes)}
		for _, c := range t.Columns {
			m.Columns = append(m.Columns, wal.ColumnMeta{Name: c.Name, Type: c.Type})
		}
		metas = append(metas, m)
		rels = append(rels, rel)
	}
	var views []wal.ViewMeta
	for _, v := range db.cat.Views() {
		views = append(views, wal.ViewMeta{
			Name: v.Name, Columns: append([]string(nil), v.Columns...), SQL: v.SQL,
		})
	}
	db.mu.RUnlock()
	defer db.releaseSnapshot(ts)

	cw, err := db.wal.BeginCheckpoint(gen, ts)
	if err != nil {
		return err
	}
	snap := storage.Snap{TS: ts}
	for i, m := range metas {
		if err := cw.Table(m); err != nil {
			cw.Abort()
			return err
		}
		if err := rels[i].DumpVisible(snap, cw.Row); err != nil {
			cw.Abort()
			return err
		}
	}
	for _, v := range views {
		if err := cw.View(v); err != nil {
			cw.Abort()
			return err
		}
	}
	return cw.Commit()
}

// maybeCheckpoint starts one background checkpoint when the current log
// segment has outgrown the threshold — the WAL sibling of maybeVacuum, and
// scheduled the same way (busy flag, waitgroup drained by Close).
func (db *Database) maybeCheckpoint() {
	if db.wal == nil {
		return
	}
	thr := db.ckptThreshold.Load()
	if thr <= 0 || db.wal.SegmentBytes() < thr {
		return
	}
	if !db.ckptBusy.CompareAndSwap(false, true) {
		return
	}
	db.ckptWG.Add(1)
	go func() {
		defer db.ckptWG.Done()
		defer db.ckptBusy.Store(false)
		_ = db.Checkpoint()
	}()
}

// retainSnapshotAt registers a reader at an explicit timestamp (the
// checkpoint protocol reads the clock under commitMu itself).
func (db *Database) retainSnapshotAt(ts uint64) {
	db.snapMu.Lock()
	if db.snaps == nil {
		db.snaps = make(map[uint64]int)
	}
	db.snaps[ts]++
	db.snapMu.Unlock()
}

func copyOrdSets(sets [][]int) [][]int {
	if sets == nil {
		return nil
	}
	out := make([][]int, len(sets))
	for i, s := range sets {
		out[i] = append([]int(nil), s...)
	}
	return out
}

// walStats fills the Metrics WAL section for durable databases.
func (db *Database) walStats() obs.WALStats {
	if db.wal == nil {
		return obs.WALStats{}
	}
	s := db.wal.Stats()
	ws := obs.WALStats{
		Appends:         s.Appends,
		AppendedBytes:   s.AppendedBytes,
		Fsyncs:          s.Fsyncs,
		Synced:          s.Synced,
		Rotations:       s.Rotations,
		Checkpoints:     s.Checkpoints,
		CheckpointBytes: s.CheckpointBytes,
		CheckpointNanos: s.CheckpointNanos,
		SegmentBytes:    s.SegmentBytes,
		RecoveryNanos:   db.recoveryNanos,
		RecoveryRecords: db.recoveryRecords,
	}
	if s.Fsyncs > 0 {
		ws.GroupCommitMean = float64(s.Synced) / float64(s.Fsyncs)
	}
	return ws
}

// recoverer rebuilds engine state from the wal.Handler callbacks during
// OpenDir. It runs single-threaded before the database is published.
type recoverer struct {
	db *Database
	// cur is the relation the current checkpoint table section loads into.
	cur *storage.Relation
	// maxTS tracks the highest commit timestamp seen; the clock resumes
	// there.
	maxTS   uint64
	records int64
	deletes int64
	// live resolves logged deletes: per table, (begin stamp ‖ encoded row)
	// → positions of live versions with that identity. Built lazily per
	// table on its first delete, then maintained by replayed inserts.
	live   map[string]map[string][]int
	keyBuf []byte
}

func (rc *recoverer) CheckpointTable(m wal.TableMeta) error {
	t := &catalog.Table{Name: m.Name, Keys: m.Keys, Indexes: m.Indexes}
	for _, c := range m.Columns {
		t.Columns = append(t.Columns, catalog.Column{Name: c.Name, Type: c.Type})
	}
	if err := rc.db.cat.AddTable(t); err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	rc.cur = rc.db.store.Create(t)
	return nil
}

func (rc *recoverer) CheckpointRow(row datum.Row, begin uint64) error {
	if rc.cur == nil {
		return fmt.Errorf("recovery: checkpoint row outside a table section")
	}
	// Append re-validates, re-interns strings, and re-indexes: the hash
	// indexes and intern table are rebuilt as a side effect of loading.
	_, err := rc.cur.Append(row, begin)
	return err
}

func (rc *recoverer) CheckpointView(v wal.ViewMeta) error {
	if err := rc.db.cat.AddView(&catalog.View{Name: v.Name, Columns: v.Columns, SQL: v.SQL}); err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	return nil
}

func (rc *recoverer) CheckpointDone(ts uint64) error {
	if ts > rc.maxTS {
		rc.maxTS = ts
	}
	rc.cur = nil
	return nil
}

func (rc *recoverer) ReplayCommit(ts uint64, ops []wal.Op) error {
	rc.records++
	if ts > rc.maxTS {
		rc.maxTS = ts
	}
	for _, op := range ops {
		rel, ok := rc.db.store.Relation(op.Table)
		if !ok {
			return fmt.Errorf("recovery: commit %d references unknown table %q", ts, op.Table)
		}
		if op.Delete {
			pos, ok := rc.takeLive(op.Table, rel, op.Begin, op.Row)
			if !ok {
				return fmt.Errorf("recovery: table %s: logged delete matches no live version", op.Table)
			}
			rel.RecoverSetEnd(pos, ts)
			rc.deletes++
		} else {
			pos, err := rel.Append(op.Row, ts)
			if err != nil {
				return fmt.Errorf("recovery: %w", err)
			}
			rc.addLive(op.Table, ts, op.Row, pos)
		}
	}
	return nil
}

func (rc *recoverer) ReplayDDL(text string) error {
	rc.records++
	st, err := sql.Parse(text)
	if err != nil {
		return fmt.Errorf("recovery: ddl %q: %w", text, err)
	}
	db := rc.db
	// Replay is tolerant of statements whose effect is already present (or
	// already gone) — a defensive property; the checkpoint protocol's
	// locking means a record and the image normally never overlap.
	switch s := st.(type) {
	case *sql.CreateTable:
		if _, ok := db.cat.Table(s.Name); ok {
			return nil
		}
	case *sql.CreateView:
		if _, ok := db.cat.View(s.Name); ok {
			return nil
		}
	case *sql.CreateIndex:
		if _, ok := db.cat.Table(s.Table); !ok {
			return nil
		}
	case *sql.DropView:
		if _, ok := db.cat.View(s.Name); !ok {
			return nil
		}
	case *sql.DropTable:
		if _, ok := db.cat.Table(s.Name); !ok {
			return nil
		}
		delete(rc.live, strings.ToLower(s.Name))
	}
	if _, err := db.execDDL(st); err != nil {
		return fmt.Errorf("recovery: ddl %q: %w", text, err)
	}
	return nil
}

// verKey is the delete-resolution identity: begin stamp plus the lossless
// row encoding. The commit path logs stored (type-widened) rows, so replayed
// and checkpoint-loaded versions encode byte-identically.
func (rc *recoverer) verKey(begin uint64, row datum.Row) string {
	rc.keyBuf = binary.AppendUvarint(rc.keyBuf[:0], begin)
	rc.keyBuf = datum.AppendEncodedRow(rc.keyBuf, row)
	return string(rc.keyBuf)
}

func (rc *recoverer) tableLive(name string, rel *storage.Relation) map[string][]int {
	key := strings.ToLower(name)
	if m, ok := rc.live[key]; ok {
		return m
	}
	m := make(map[string][]int)
	rel.RecoverVersions(func(pos int, row datum.Row, begin, end uint64) {
		if end == storage.Live {
			k := rc.verKey(begin, row)
			m[k] = append(m[k], pos)
		}
	})
	rc.live[key] = m
	return m
}

func (rc *recoverer) addLive(name string, begin uint64, row datum.Row, pos int) {
	m, ok := rc.live[strings.ToLower(name)]
	if !ok {
		return // map not built yet; a later build scans the relation anyway
	}
	k := rc.verKey(begin, row)
	m[k] = append(m[k], pos)
}

func (rc *recoverer) takeLive(name string, rel *storage.Relation, begin uint64, row datum.Row) (int, bool) {
	m := rc.tableLive(name, rel)
	k := rc.verKey(begin, row)
	positions := m[k]
	if len(positions) == 0 {
		return 0, false
	}
	pos := positions[len(positions)-1]
	if len(positions) == 1 {
		delete(m, k)
	} else {
		m[k] = positions[:len(positions)-1]
	}
	return pos, true
}

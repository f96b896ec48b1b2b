package engine

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"starmagic/internal/datum"
	"starmagic/internal/wal"
)

// tableImage reads a table's committed rows as a sorted multiset of encoded
// rows — the canonical form the crash tests compare.
func tableImage(t *testing.T, db *Database, table string) []string {
	t.Helper()
	res, err := db.Query("SELECT * FROM " + table)
	if err != nil {
		t.Fatalf("read %s: %v", table, err)
	}
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = string(datum.AppendEncodedRow(nil, r))
	}
	sort.Strings(out)
	return out
}

func openDir(t *testing.T, dir string) *Database {
	t.Helper()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir(%s): %v", dir, err)
	}
	return db
}

func closeDB(t *testing.T, db *Database) {
	t.Helper()
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// copyDir copies every regular file of src into a fresh temp dir, MANIFEST
// first (the order a crash image is reconstructed in: the manifest names the
// checkpoint the segments extend).
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	copyOne := func(name string) {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if e.Name() == "MANIFEST" {
			copyOne("MANIFEST")
			continue
		}
		names = append(names, e.Name())
	}
	for _, n := range names {
		copyOne(n)
	}
	return dst
}

func TestOpenDirPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db := openDir(t, dir)
	mustExecT(t, db, `
		CREATE TABLE emp (id INT, name VARCHAR, salary FLOAT, PRIMARY KEY (id));
		CREATE INDEX emp_name ON emp (name);
		CREATE VIEW cheap (id) AS SELECT id FROM emp WHERE salary < 50;
		INSERT INTO emp VALUES (1, 'alice', 100.5), (2, 'bob', 20), (3, 'carol', 30);
		DELETE FROM emp WHERE id = 2;
		UPDATE emp SET salary = 10 WHERE id = 3;`)
	want := tableImage(t, db, "emp")
	closeDB(t, db)

	db2 := openDir(t, dir)
	defer closeDB(t, db2)
	if got := tableImage(t, db2, "emp"); !equalStrings(got, want) {
		t.Fatalf("recovered image differs:\n got %q\nwant %q", got, want)
	}
	// The view came back and the recovered UPDATE is visible through it.
	res, err := db2.Query("SELECT id FROM cheap")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 3 {
		t.Fatalf("view over recovered data: %v", res.Rows)
	}
	// Writes keep flowing after recovery and survive another cycle.
	mustExecT(t, db2, "INSERT INTO emp VALUES (4, 'dave', 5)")
	want2 := tableImage(t, db2, "emp")
	closeDB(t, db2)
	db3 := openDir(t, dir)
	defer closeDB(t, db3)
	if got := tableImage(t, db3, "emp"); !equalStrings(got, want2) {
		t.Fatalf("second recovery differs:\n got %q\nwant %q", got, want2)
	}
	d, n := db3.RecoveryStats()
	if d <= 0 || n == 0 {
		t.Fatalf("recovery stats not reported: %v, %d", d, n)
	}
}

func TestCheckpointThenRecover(t *testing.T) {
	dir := t.TempDir()
	db := openDir(t, dir)
	mustExecT(t, db, "CREATE TABLE kv (k INT, v VARCHAR, PRIMARY KEY (k))")
	for i := 0; i < 100; i++ {
		mustExecT(t, db, fmt.Sprintf("INSERT INTO kv VALUES (%d, 'v%d')", i, i))
	}
	mustExecT(t, db, "DELETE FROM kv WHERE k < 20")
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Post-checkpoint traffic, including deletes of checkpointed rows.
	mustExecT(t, db, "DELETE FROM kv WHERE k >= 90")
	mustExecT(t, db, "INSERT INTO kv VALUES (200, 'late')")
	want := tableImage(t, db, "kv")
	m := db.Metrics()
	if m.WAL.Checkpoints != 1 || m.WAL.CheckpointBytes == 0 {
		t.Fatalf("checkpoint metrics: %+v", m.WAL)
	}
	closeDB(t, db)

	db2 := openDir(t, dir)
	defer closeDB(t, db2)
	if got := tableImage(t, db2, "kv"); !equalStrings(got, want) {
		t.Fatalf("post-checkpoint recovery differs:\n got %d rows\nwant %d rows", len(got), len(want))
	}
	// A second checkpoint over recovered state also works.
	if err := db2.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after recovery: %v", err)
	}
}

// logOracle replays decoded WAL records into an in-memory multiset image —
// the independent model the crash-injection tests compare recovery against.
type logOracle struct {
	tables map[string]map[string]int // table -> encoded row -> live count
}

func newLogOracle() *logOracle { return &logOracle{tables: map[string]map[string]int{}} }

func (o *logOracle) apply(t *testing.T, rec wal.Record) {
	switch rec.Kind {
	case wal.RecDDL:
		up := strings.ToUpper(rec.SQL)
		fields := strings.Fields(rec.SQL)
		switch {
		case strings.HasPrefix(up, "CREATE TABLE "):
			o.tables[strings.ToLower(fields[2])] = map[string]int{}
		case strings.HasPrefix(up, "DROP TABLE "):
			delete(o.tables, strings.ToLower(fields[2]))
		}
	case wal.RecCommit:
		for _, op := range rec.Ops {
			m := o.tables[strings.ToLower(op.Table)]
			if m == nil {
				t.Fatalf("oracle: op on unknown table %q", op.Table)
			}
			k := string(datum.AppendEncodedRow(nil, op.Row))
			if op.Delete {
				if m[k] == 0 {
					t.Fatalf("oracle: delete of absent row in %s", op.Table)
				}
				m[k]--
				if m[k] == 0 {
					delete(m, k)
				}
			} else {
				m[k]++
			}
		}
	}
}

func (o *logOracle) image(table string) []string {
	var out []string
	for k, n := range o.tables[strings.ToLower(table)] {
		for i := 0; i < n; i++ {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// TestKillAtRandomOffsetReplayOracle is the replay oracle: a workload's WAL
// is truncated at random byte offsets — simulating a kill -9 mid-write — and
// each truncated image must recover to exactly the committed prefix the
// oracle computes from the surviving records. Record boundaries are included
// so whole-record cuts are always exercised too.
func TestKillAtRandomOffsetReplayOracle(t *testing.T) {
	dir := t.TempDir()
	db := openDir(t, dir)
	mustExecT(t, db, "CREATE TABLE t (a INT, b VARCHAR)")
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		switch rng.Intn(4) {
		case 0, 1:
			mustExecT(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, 'r%d')", i%10, i))
		case 2:
			mustExecT(t, db, fmt.Sprintf("DELETE FROM t WHERE a = %d", rng.Intn(10)))
		case 3:
			mustExecT(t, db, fmt.Sprintf("UPDATE t SET b = 'u%d' WHERE a = %d", i, rng.Intn(10)))
		}
	}
	closeDB(t, db)

	seg := filepath.Join(dir, "wal-1.log")
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	cuts := map[int]bool{0: true, len(full): true}
	// Every record boundary plus random cuts.
	for i := 0; i < 40; i++ {
		cuts[rng.Intn(len(full)+1)] = true
	}
	for _, b := range walBoundaries(full) {
		cuts[b] = true
	}

	for cut := range cuts {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			crash := copyDir(t, dir)
			cseg := filepath.Join(crash, "wal-1.log")
			if err := os.WriteFile(cseg, full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			// Oracle: the committed prefix of the truncated segment.
			oracle := newLogOracle()
			hasTable := false
			if _, err := wal.ScanSegment(cseg, func(rec wal.Record) error {
				oracle.apply(t, rec)
				if rec.Kind == wal.RecDDL {
					hasTable = true
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			rdb := openDir(t, crash)
			defer closeDB(t, rdb)
			if !hasTable {
				// The cut fell before even CREATE TABLE became durable: the
				// database must come back empty.
				if _, err := rdb.Query("SELECT * FROM t"); err == nil {
					t.Fatal("table exists before its DDL was durable")
				}
				return
			}
			got := tableImage(t, rdb, "t")
			if !equalStrings(got, oracle.image("t")) {
				t.Fatalf("cut %d: recovered %d rows, oracle %d rows", cut, len(got), len(oracle.image("t")))
			}
			// The recovered database accepts new writes.
			mustExecT(t, rdb, "INSERT INTO t VALUES (99, 'post')")
		})
	}
}

// walBoundaries walks the documented record framing — 4-byte little-endian
// payload length, 4-byte CRC, payload — and returns the end offset of every
// whole record.
func walBoundaries(data []byte) []int {
	var out []int
	off := 0
	for len(data)-off >= 8 {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n == 0 || len(data)-off-8 < n {
			break
		}
		off += 8 + n
		out = append(out, off)
	}
	return out
}

// TestCrashImageDuringConcurrentWrites snapshots the data directory while
// concurrent committers are running — a live kill -9 image, torn tail and
// all — and checks two invariants of the recovered state: it contains every
// transaction acknowledged before the snapshot started, and it equals
// exactly the committed prefix the oracle reads from the snapshotted log.
func TestCrashImageDuringConcurrentWrites(t *testing.T) {
	dir := t.TempDir()
	db := openDir(t, dir)
	mustExecT(t, db, "CREATE TABLE w (writer INT, seq INT)")

	const writers = 4
	var (
		ackMu sync.Mutex
		acked = map[int64]bool{}
		stop  = make(chan struct{})
		wg    sync.WaitGroup
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := 0; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				id := int64(w*1_000_000 + seq)
				if _, err := db.Exec(fmt.Sprintf("INSERT INTO w VALUES (%d, %d)", w, seq)); err != nil {
					t.Error(err)
					return
				}
				ackMu.Lock()
				acked[id] = true
				ackMu.Unlock()
			}
		}(w)
	}

	// Let the workload run, then freeze the acked set and snapshot the dir
	// while commits are still in flight.
	for {
		ackMu.Lock()
		n := len(acked)
		ackMu.Unlock()
		if n >= 200 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ackMu.Lock()
	ackedBefore := make(map[int64]bool, len(acked))
	for id := range acked {
		ackedBefore[id] = true
	}
	ackMu.Unlock()
	crash := copyDir(t, dir)
	close(stop)
	wg.Wait()
	closeDB(t, db)

	oracle := newLogOracle()
	if _, err := wal.ScanSegment(filepath.Join(crash, "wal-1.log"), func(rec wal.Record) error {
		oracle.apply(t, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	rdb := openDir(t, crash)
	defer closeDB(t, rdb)
	got := tableImage(t, rdb, "w")
	if !equalStrings(got, oracle.image("w")) {
		t.Fatalf("recovered %d rows, oracle says %d", len(got), len(oracle.image("w")))
	}
	// Every commit acknowledged before the snapshot is in the image: under
	// SyncCommit an ack means the record was fsynced, so the snapshot's log
	// must contain it.
	have := map[int64]bool{}
	res, err := rdb.Query("SELECT writer, seq FROM w")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		have[r[0].I*1_000_000+r[1].I] = true
	}
	for id := range ackedBefore {
		if !have[id] {
			t.Fatalf("acknowledged commit %d lost by the crash image", id)
		}
	}
}

// TestCheckpointConcurrentWithWriters races explicit checkpoints against
// committing writers and verifies no committed row is lost or duplicated
// across the resulting recovery.
func TestCheckpointConcurrentWithWriters(t *testing.T) {
	dir := t.TempDir()
	db := openDir(t, dir)
	mustExecT(t, db, "CREATE TABLE c (writer INT, seq INT)")
	// Keep fsync latency out of the loop so the race window stays hot.
	db.SetDurability(wal.SyncNever)

	const writers, perWriter = 4, 150
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := 0; seq < perWriter; seq++ {
				if _, err := db.Exec(fmt.Sprintf("INSERT INTO c VALUES (%d, %d)", w, seq)); err != nil {
					t.Error(err)
					return
				}
				if seq%3 == 0 {
					if _, err := db.Exec(fmt.Sprintf("DELETE FROM c WHERE writer = %d AND seq = %d", w, seq)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	ckpts := 0
	for {
		select {
		case <-done:
			goto drained
		default:
			if err := db.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				goto drained
			}
			ckpts++
		}
	}
drained:
	if ckpts == 0 {
		t.Fatal("no checkpoint ran during the workload")
	}
	want := tableImage(t, db, "c")
	closeDB(t, db)

	rdb := openDir(t, dir)
	defer closeDB(t, rdb)
	if got := tableImage(t, rdb, "c"); !equalStrings(got, want) {
		t.Fatalf("after %d concurrent checkpoints: recovered %d rows, want %d", ckpts, len(got), len(want))
	}
}

func TestDurabilityPolicies(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy wal.SyncPolicy
	}{
		{"SyncCommit", wal.SyncCommit},
		{"SyncInterval", wal.SyncInterval},
		{"SyncNever", wal.SyncNever},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db := openDir(t, dir)
			db.SetDurability(tc.policy)
			mustExecT(t, db, "CREATE TABLE p (x INT); INSERT INTO p VALUES (1), (2), (3)")

			// A kill -9 image taken after the acks must already hold the
			// records under every policy: writes reach the OS before the
			// ack, only the fsync timing differs.
			crash := copyDir(t, dir)
			rdb := openDir(t, crash)
			if got := len(tableImage(t, rdb, "p")); got != 3 {
				t.Fatalf("%s: crash image recovered %d rows, want 3", tc.name, got)
			}
			closeDB(t, rdb)

			m := db.Metrics()
			if tc.policy == wal.SyncCommit && m.WAL.Fsyncs == 0 {
				t.Fatal("SyncCommit made no fsyncs")
			}
			closeDB(t, db)
			db2 := openDir(t, dir)
			defer closeDB(t, db2)
			if got := len(tableImage(t, db2, "p")); got != 3 {
				t.Fatalf("%s: clean close lost rows: %d", tc.name, got)
			}
		})
	}
}

func TestDDLReplayAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db := openDir(t, dir)
	mustExecT(t, db, `
		CREATE TABLE a (x INT, PRIMARY KEY (x));
		CREATE TABLE b (y INT, label VARCHAR, UNIQUE (label));
		CREATE VIEW vb (label) AS SELECT label FROM b;
		INSERT INTO a VALUES (1);
		INSERT INTO b VALUES (10, 'ten');
		DROP VIEW vb;
		DROP TABLE a;
		CREATE TABLE a (x VARCHAR);
		INSERT INTO a VALUES ('new-shape');
		CREATE INDEX b_y ON b (y);`)
	want := tableImage(t, db, "a")
	closeDB(t, db)

	db2 := openDir(t, dir)
	defer closeDB(t, db2)
	if got := tableImage(t, db2, "a"); !equalStrings(got, want) {
		t.Fatalf("recreated table differs: %q vs %q", got, want)
	}
	if _, err := db2.Query("SELECT label FROM vb"); err == nil {
		t.Fatal("dropped view survived recovery")
	}
	// The recreated index works against recovered data.
	res, err := db2.Query("SELECT label FROM b WHERE y = 10")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != "ten" {
		t.Fatalf("index query after recovery: %v, %v", res, err)
	}
}

func TestWALMetricsAndGroupCommit(t *testing.T) {
	dir := t.TempDir()
	db := openDir(t, dir)
	mustExecT(t, db, "CREATE TABLE g (x INT)")
	const writers, perWriter = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := db.Exec(fmt.Sprintf("INSERT INTO g VALUES (%d)", w*perWriter+i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	m := db.Metrics()
	if m.WAL.Appends < writers*perWriter {
		t.Fatalf("appends = %d, want >= %d", m.WAL.Appends, writers*perWriter)
	}
	if m.WAL.Fsyncs == 0 || m.WAL.Synced < m.WAL.Appends {
		t.Fatalf("durability counters: %+v", m.WAL)
	}
	if m.WAL.GroupCommitMean <= 0 {
		t.Fatalf("group commit mean not computed: %+v", m.WAL)
	}
	closeDB(t, db)
	db2 := openDir(t, dir)
	defer closeDB(t, db2)
	m2 := db2.Metrics()
	if m2.WAL.RecoveryNanos <= 0 || m2.WAL.RecoveryRecords == 0 {
		t.Fatalf("recovery metrics: %+v", m2.WAL)
	}
}

// TestSizeTriggeredCheckpoint drives enough volume through a tiny threshold
// to arm the background checkpoint and waits for it via Close.
func TestSizeTriggeredCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db := openDir(t, dir)
	db.SetDurability(wal.SyncNever)
	db.SetCheckpointThreshold(4 << 10)
	mustExecT(t, db, "CREATE TABLE s (x INT, pad VARCHAR)")
	for i := 0; i < 300; i++ {
		mustExecT(t, db, fmt.Sprintf("INSERT INTO s VALUES (%d, 'padding-padding-padding-%d')", i, i))
	}
	want := tableImage(t, db, "s")
	closeDB(t, db)
	// Close drained ckptWG, so counters are settled; verify one fired.
	db2 := openDir(t, dir)
	defer closeDB(t, db2)
	if got := tableImage(t, db2, "s"); !equalStrings(got, want) {
		t.Fatalf("recovery after auto-checkpoint differs: %d vs %d rows", len(got), len(want))
	}
	if _, err := os.Stat(filepath.Join(dir, "wal-1.log")); !os.IsNotExist(err) {
		t.Fatal("background checkpoint never rotated the first segment")
	}
}

func mustExecT(t *testing.T, db *Database, script string) {
	t.Helper()
	if _, err := db.Exec(script); err != nil {
		t.Fatalf("exec %q: %v", script, err)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTxnCommitConcurrentVacuum commits single-row UPDATEs on a durable
// database while another goroutine vacuums in a loop. Stamping a write
// releases its relation's in-flight count, so a vacuum may compact the
// relation before the commit record is built; the record must therefore be
// captured first. Otherwise the log names the wrong version or the commit
// panics while holding the commit mutex. Recovery must reproduce the final
// image exactly.
func TestTxnCommitConcurrentVacuum(t *testing.T) {
	dir := t.TempDir()
	db := openDir(t, dir)
	db.SetDurability(wal.SyncNever)
	mustExecT(t, db, "CREATE TABLE acct (id INT, bal INT, PRIMARY KEY (id))")
	for i := 0; i < 50; i++ {
		mustExecT(t, db, fmt.Sprintf("INSERT INTO acct VALUES (%d, 0)", i))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				db.Vacuum()
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		tx := db.Begin()
		if _, err := tx.Exec(fmt.Sprintf("UPDATE acct SET bal = %d WHERE id = %d", i, i%50)); err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	// A transaction that deletes a version it inserted itself logs the
	// delete against the commit stamp replay gives that insert.
	tx := db.Begin()
	if _, err := tx.Exec("UPDATE acct SET bal = -1 WHERE id = 1; UPDATE acct SET bal = -2 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want := tableImage(t, db, "acct")
	closeDB(t, db)
	db2 := openDir(t, dir)
	defer closeDB(t, db2)
	if got := tableImage(t, db2, "acct"); !equalStrings(got, want) {
		t.Fatalf("recovered image differs:\n got %q\nwant %q", got, want)
	}
}

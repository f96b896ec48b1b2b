package main

// The ingest workload: MySQL text protocol over a durable database opened
// with OpenDir, under the default SyncCommit policy. Each client loops one
// write transaction (BEGIN, an UPDATE of an employee row only that client
// owns, an INSERT of a new sales row, COMMIT), then readsPerWrite point
// reads with literals from the 150-department domain. Every commit dirties
// the optimizer statistics, so the next read pays a full ANALYZE.
//
// ingest is not among BENCHMARK.json's workloads, because a few runs in
// two hundred hang on an engine defect. Txn.Commit lowers each written
// relation's in-flight count (FinishAppend, FinishDelete) and only then
// logs the write set, reading each version by its position
// (logCommitLocked -> Relation.VersionData). Relation.Vacuum compacts any
// relation whose in-flight count is zero, so the background vacuum that
// the UPDATEs' dead versions start can move the positions in between. The
// read then names another version, which logs a wrong row, or lies past
// the end and panics while Commit holds the commit mutex. The wire server
// recovers the panic, the mutex stays locked, and every later COMMIT
// waits forever. One committing goroutine beside a loop calling
// DB.Vacuum reproduces the panic within seconds. Declare ingest again
// once the engine logs the write set before it releases the positions.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"starmagic"
	"starmagic/internal/wire"
)

const (
	// readsPerWrite point reads follow each write transaction.
	readsPerWrite = 6
	// ingestCheckpointBytes is the log size that triggers a checkpoint, so
	// that checkpoints run during a window (the default is 16 MiB).
	ingestCheckpointBytes = 128 << 10
	// saleBase is the first sales id the workload inserts.
	saleBase = 100_000_000
	// errWriteConflict is the MySQL error code of a write-write conflict.
	errWriteConflict = 1213
)

type saleRow struct {
	id     int64
	dept   int
	amount string
	yr     int
}

// ingestOp is one operation: a write transaction or a point read.
type ingestOp struct {
	write  bool
	empno  int64
	salary string
	sale   saleRow
	id     string
	args   []any
	text   string
}

func (op ingestOp) updateSQL() string {
	return fmt.Sprintf("UPDATE employee SET salary = %s WHERE empno = %d", op.salary, op.empno)
}

func (op ingestOp) insertSQL() string {
	return fmt.Sprintf("INSERT INTO sales VALUES (%d, %d, %s, %d)", op.sale.id, op.sale.dept, op.sale.amount, op.sale.yr)
}

// ingestClient is one client's request generator and its record of
// acknowledged writes. Only its own goroutine touches it.
type ingestClient struct {
	gen      *requestGen
	depts    []int
	pos      int
	nextSale int64
	salary   map[int64]string
	sales    []saleRow
	conflict int64
}

func newIngestClient(c int) *ingestClient {
	ic := &ingestClient{salary: map[int64]string{}, nextSale: saleBase + int64(c)*10_000_000}
	for d := 1; d <= ingestSize.Depts; d++ {
		if d%clients == c {
			ic.depts = append(ic.depts, d)
		}
	}
	return ic
}

func (ic *ingestClient) next(all map[string]*shape) ingestOp {
	rng := ic.gen.rng
	pos := ic.pos
	ic.pos = (ic.pos + 1) % (1 + readsPerWrite)
	if pos == 0 {
		d := ic.depts[rng.Intn(len(ic.depts))]
		op := ingestOp{
			write:  true,
			empno:  int64(d*1000 + 1 + rng.Intn(ingestSize.EmpsPerDept)),
			salary: strconv.FormatFloat(20000+rng.Float64()*80000, 'f', 2, 64),
			sale: saleRow{
				id: ic.nextSale, dept: ic.depts[rng.Intn(len(ic.depts))],
				amount: strconv.FormatFloat(float64(rng.Intn(10000))/10, 'f', 1, 64), yr: 1990 + rng.Intn(5),
			},
		}
		ic.nextSale++
		return op
	}
	id := ic.gen.shape()
	args := all[id].Domain[rng.Intn(len(all[id].Domain))]
	return ingestOp{id: id, args: args, text: inline(all[id].Param, args)}
}

func (ic *ingestClient) ack(op ingestOp) {
	ic.salary[op.empno] = op.salary
	ic.sales = append(ic.sales, op.sale)
}

// checkPoint verifies a point read's result: one row whose first column is
// the department name or region it was bound to.
func checkPoint(op ingestOp, got [][]string) error {
	want := fmt.Sprint(op.args[0])
	if op.id == "F" {
		want = deptName(op.args[0].(int))
	}
	if len(got) != 1 || len(got[0]) == 0 || got[0][0] != want {
		return fmt.Errorf("%q: wrong result %v, want one row starting %q", op.text, got, want)
	}
	return nil
}

type ingestInst struct {
	wireInst
	dir      string
	recovery time.Duration
}

func openIngest(cfg config, i int) (*ingestInst, error) {
	dir := filepath.Join(cfg.WorkDir, fmt.Sprintf("ingest-%d-%d", os.Getpid(), i))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	db, err := starmagic.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	// The bulk load writes through the log without an fsync per statement
	// (Close fsyncs it), so that set-up time is not a sum of a few dozen
	// fsync latencies; the workload runs under the default SyncCommit.
	db.SetDurability(starmagic.SyncNever)
	if err := loadTableOne(db, ingestSize, cfg.Seed); err != nil {
		_ = db.Close()
		return nil, err
	}
	if err := db.Close(); err != nil {
		return nil, err
	}
	if db, err = starmagic.OpenDir(dir); err != nil {
		return nil, err
	}
	db.SetDurability(starmagic.SyncCommit)
	db.SetCheckpointThreshold(ingestCheckpointBytes)
	rec, _ := db.RecoveryStats()
	db.Analyze()
	srv, err := startServer(db)
	if err != nil {
		_ = db.Close()
		return nil, err
	}
	return &ingestInst{wireInst: wireInst{db: db, srv: srv}, dir: dir, recovery: rec}, nil
}

func (in *ingestInst) remove() {
	in.close()
	_ = os.RemoveAll(in.dir)
}

func runIngest(cfg config, res *result) error {
	all := shapes(ingestSize)
	in, setupS, err := timedSetups(cfg.Setups, func(i int) (*ingestInst, error) { return openIngest(cfg, i) }, (*ingestInst).remove)
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(in.dir) }()
	closed := false
	defer func() {
		if !closed {
			in.close()
		}
	}()
	res.set("setup_s", setupS)
	res.set("wal.recovery_ms", float64(in.recovery)/1e6)

	ids := []string{"A", "F", "G", "H"}
	// Fill the plan cache with every read text, as a long-running server's
	// would be; the windows then measure the steady state.
	for _, id := range ids {
		for _, args := range all[id].Domain {
			if _, err := in.db.PrepareContext(bg, inline(all[id].Param, args)); err != nil {
				return fmt.Errorf("warm %s%v: %w", id, args, err)
			}
		}
	}
	fpStart, err := literalFingerprints(in.db, all, ids)
	if err != nil {
		return err
	}
	m0 := in.db.Metrics()
	ics := make([]*ingestClient, clients)
	for c := range ics {
		ics[c] = newIngestClient(c)
	}
	hashes := make([][]uint64, clients)
	reset := func() {
		for c, ic := range ics {
			ic.gen, ic.pos = newRequestGen(cfg.Seed, c, pointWeights), 0
			hashes[c] = hashes[c][:0]
		}
	}
	var cls []*wire.Client
	var tr *recorder
	step := func(c int) (sample, error) {
		ic := ics[c]
		op := ic.next(all)
		if op.write {
			start := time.Now()
			err := wireWrite(cls[c], op, tr)
			dur := time.Since(start)
			if err != nil {
				var ce *wire.ClientError
				if errors.As(err, &ce) && ce.Code == errWriteConflict {
					ic.conflict++
				}
				return sample{}, err
			}
			ic.ack(op)
			return sample{Kind: opWrite, Shape: "write", Dur: dur}, nil
		}
		hashes[c] = append(hashes[c], textHash(op.text))
		start := time.Now()
		rs, err := cls[c].Query(op.text)
		dur := time.Since(start)
		if tr != nil {
			tr.add("wire.query", 0, tr.newReq(), start, start.Add(dur))
		}
		if err != nil {
			return sample{}, fmt.Errorf("%q: %w", op.text, err)
		}
		return sample{Kind: opRead, Shape: op.id, Dur: dur}, checkPoint(op, wireCells(rs))
	}
	window := func(d time.Duration) (loopStats, error) { return in.window(d, &cls, step, res) }

	reset()
	if _, err := window(cfg.Warmup); err != nil {
		return err
	}
	reset()
	c0, w0, r0, e0 := in.db.PlanCacheStats(), in.srv.srv.Metrics(), rtSample(), in.db.Metrics()
	rss := sampleRSS()
	ls, err := window(cfg.window())
	res.set("rss_mb", rss())
	if err != nil {
		return err
	}
	c1, w1, r1, e1 := in.db.PlanCacheStats(), in.srv.srv.Metrics(), rtSample(), in.db.Metrics()
	endToEndMetrics(res, ls)
	res.report["repeated_text_share"] = repeatedShare(hashes)
	res.report["mix_weights"] = map[string]any{"reads": pointWeights, "reads_per_write": readsPerWrite}
	res.report["data"] = map[string]any{"size": ingestSize, "checkpoint_bytes": ingestCheckpointBytes}

	if cfg.Trace {
		rtMetrics(res, r0, r1, len(ls.Samples))
		txnMetrics(res, e0, e1)
		res.set("engine.plan_cache_hit_frac", ratio(float64(c1.Hits-c0.Hits), float64(c1.Hits-c0.Hits+c1.Misses-c0.Misses)))
		res.set("wire.rows_sent_per_query", ratio(float64(w1.RowsSent-w0.RowsSent), float64(w1.Queries-w0.Queries)))
		res.set("wire.errors_sent", float64(w1.ErrorsSent-w0.ErrorsSent))
		tr = newRecorder()
		reset()
		lt, err := window(cfg.window())
		if err != nil {
			return err
		}
		tr2 := tr
		tr = nil
		// The database grows with every insert, so the traced window is
		// compared with the mean of an untraced window before and one after.
		reset()
		la, err := window(cfg.window())
		if err != nil {
			return err
		}
		res.set("trace.overhead_frac", 1-2*lt.opsPerSec()/(ls.opsPerSec()+la.opsPerSec()))

		// Embedded replay of the traced window's first operations.
		reset()
		rp := newReplay()
		mA := in.db.Metrics()
		res.count(closedLoopN(replayCounts(lt, cfg.ReplayCap), func(c int) (sample, error) {
			ic := ics[c]
			op := ic.next(all)
			if op.write {
				start := time.Now()
				if err := embeddedWrite(in.db, op, tr2); err != nil {
					if errors.Is(err, starmagic.ErrWriteConflict) {
						ic.conflict++
					}
					return sample{}, fmt.Errorf("replay write: %w", err)
				}
				ic.ack(op)
				return sample{Kind: opWrite, Shape: "write", Dur: time.Since(start)}, nil
			}
			rows, dur, err := replayRead(in.db, op.id, op.text, tr2, rp.accts[c])
			if err != nil {
				return sample{}, fmt.Errorf("replay %q: %w", op.text, err)
			}
			rp.emb[c] = append(rp.emb[c], float64(dur)/1e3)
			return sample{Kind: opRead, Shape: op.id, Dur: dur}, checkPoint(op, cells(rows))
		}, res))
		if err := rp.finish(cfg, res, tr2, mA, in.db.Metrics()); err != nil {
			return err
		}
	}

	fpEnd, err := literalFingerprints(in.db, all, ids)
	if err != nil {
		return err
	}
	mEnd := in.db.Metrics()
	res.report["plans"] = fingerprintReport(fpStart, fpEnd, mEnd.FeedbackReopts-m0.FeedbackReopts)
	closed = true
	in.close()
	if cfg.Corrupt {
		// An acknowledgment for a sale that was never written: the
		// durability check must report it lost.
		ics[0].sales = append(ics[0].sales, saleRow{id: saleBase - 1, dept: 1, amount: "1.0", yr: 1990})
	}
	return verifyDurable(in.dir, ics, mEnd.TxnConflicts-m0.TxnConflicts, res)
}

// wireWrite runs one write transaction over the wire, with spans around
// each statement when tr is set.
func wireWrite(cl *wire.Client, op ingestOp, tr *recorder) error {
	var req, parent int64
	if tr != nil {
		req = tr.newReq()
		root := tr.open("request.write", 0, req)
		parent = root.id()
		defer root.done()
	}
	call := func(name, q string, want int64) error {
		start := time.Now()
		n, err := cl.Exec(q)
		if tr != nil {
			tr.add("wire."+name, parent, req, start, time.Now())
		}
		if err == nil && want >= 0 && int64(n) != want {
			err = fmt.Errorf("%s affected %d rows, want %d", name, n, want)
		}
		return err
	}
	if err := call("begin", "BEGIN", -1); err != nil {
		return err
	}
	err := call("update", op.updateSQL(), 1)
	if err == nil {
		err = call("insert", op.insertSQL(), 1)
	}
	if err != nil {
		_, _ = cl.Exec("ROLLBACK")
		return err
	}
	return call("commit", "COMMIT", -1)
}

// embeddedWrite runs the same transaction through the embedded API, with
// spans around Begin, each Txn.Exec and Commit.
func embeddedWrite(db *starmagic.DB, op ingestOp, tr *recorder) error {
	req := tr.newReq()
	root := tr.open("request.write", 0, req)
	defer root.done()
	start := time.Now()
	tx := db.Begin()
	tr.add("engine.begin", root.id(), req, start, time.Now())
	exec := func(name, q string) error {
		start := time.Now()
		n, err := tx.Exec(q)
		tr.add("engine."+name, root.id(), req, start, time.Now())
		if err == nil && n != 1 {
			err = fmt.Errorf("%s affected %d rows, want 1", name, n)
		}
		return err
	}
	err := exec("update", op.updateSQL())
	if err == nil {
		err = exec("insert", op.insertSQL())
	}
	if err != nil {
		_ = tx.Rollback()
		return err
	}
	start = time.Now()
	err = tx.Commit()
	tr.add("engine.commit", root.id(), req, start, time.Now())
	return err
}

// txnMetrics sets the transaction, vacuum and log metrics of a window from
// the growth of the engine's counters.
func txnMetrics(res *result, a, b starmagic.Metrics) {
	commits := float64(b.TxnCommits - a.TxnCommits)
	res.set("engine.txn_conflict_frac", ratio(float64(b.TxnConflicts-a.TxnConflicts), float64(b.TxnBegins-a.TxnBegins)))
	res.set("storage.vacuum_runs", float64(b.VacuumRuns-a.VacuumRuns))
	res.set("storage.vacuum_reclaimed_per_commit", ratio(float64(b.VacuumReclaimed-a.VacuumReclaimed), commits))
	fsyncs := float64(b.WAL.Fsyncs - a.WAL.Fsyncs)
	res.set("wal.fsyncs_per_commit", ratio(fsyncs, commits))
	res.set("wal.group_commit_mean", ratio(float64(b.WAL.Synced-a.WAL.Synced), fsyncs))
	res.set("wal.bytes_per_commit", ratio(float64(b.WAL.AppendedBytes-a.WAL.AppendedBytes), commits))
	res.set("wal.checkpoints", float64(b.WAL.Checkpoints-a.WAL.Checkpoints))
	res.set("wal.checkpoint_ms", float64(b.WAL.CheckpointNanos)/1e6)
}

// verifyDurable reopens the closed data directory and checks that every
// acknowledged update and insert survived, and that no transaction hit a
// write conflict although the clients' keys are disjoint.
func verifyDurable(dir string, ics []*ingestClient, engineConflicts int64, res *result) error {
	db, err := starmagic.OpenDir(dir)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer db.Close()
	emp, err := db.QueryContext(bg, "SELECT empno, salary FROM employee")
	if err != nil {
		return err
	}
	salary := map[int64]float64{}
	for _, r := range emp.Rows {
		salary[r[0].I] = r[1].AsFloat()
	}
	sal, err := db.QueryContext(bg, fmt.Sprintf("SELECT saleid, deptno, amount, yr FROM sales WHERE saleid >= %d", saleBase))
	if err != nil {
		return err
	}
	sales := map[int64][]string{}
	for _, r := range sal.Rows {
		sales[r[0].I] = []string{r[1].Format(), r[2].Format(), r[3].Format()}
	}
	var updates, inserts, lost, conflicts int64
	for _, ic := range ics {
		conflicts += ic.conflict
		for empno, s := range ic.salary {
			updates++
			want, _ := strconv.ParseFloat(s, 64)
			if got, ok := salary[empno]; !ok || got != want {
				lost++
				res.fail(1, fmt.Sprintf("acknowledged update of employee %d to %s lost after reopen (found %v)", empno, s, got))
			}
		}
		for _, s := range ic.sales {
			inserts++
			want := []string{strconv.Itoa(s.dept), s.amount, strconv.Itoa(s.yr)}
			if err := compareRows([][]string{sales[s.id]}, [][]string{want}); sales[s.id] == nil || err != nil {
				lost++
				res.fail(1, fmt.Sprintf("acknowledged insert of sale %d lost after reopen", s.id))
			}
		}
	}
	if conflicts+engineConflicts > 0 {
		res.fail(1, fmt.Sprintf("%d client-observed and %d engine write conflicts on disjoint keys", conflicts, engineConflicts))
	}
	res.mu.Lock()
	res.attempted += updates + inserts + 1
	res.mu.Unlock()
	res.report["durability"] = map[string]any{
		"acknowledged_updates": updates, "acknowledged_inserts": inserts, "lost": lost,
		"conflicts": conflicts + engineConflicts, "sales_rows_found": len(sales),
	}
	return nil
}

package main

// Embedded execution of one read, shared by the dashboard workload and the
// embedded replay of the wire workloads, with the per-request accounting
// the traced run turns into per-layer metrics.

import (
	"strconv"
	"time"

	"starmagic"
)

// acct accumulates what traced executions report through PlanInfo. One
// client owns one acct; they are merged after the window.
type acct struct {
	counters starmagic.Counters
	execs    int64
	rows     int64
	qerr     []float64
	fixMs    []float64
	execUs   map[string][]float64
}

func newAccts() []*acct {
	out := make([]*acct, clients)
	for c := range out {
		out[c] = &acct{execUs: map[string][]float64{}}
	}
	return out
}

// merged sums the clients' accounts.
func merged(as []*acct) *acct {
	t := &acct{execUs: map[string][]float64{}}
	for _, a := range as {
		t.counters.Add(a.counters)
		t.execs += a.execs
		t.rows += a.rows
		t.qerr = append(t.qerr, a.qerr...)
		t.fixMs = append(t.fixMs, a.fixMs...)
		for k, v := range a.execUs {
			t.execUs[k] = append(t.execUs[k], v...)
		}
	}
	return t
}

// replay is the embedded replay of a traced wire window: per client, the
// PlanInfo account and the embedded time, in microseconds, of each read.
type replay struct {
	accts []*acct
	emb   [][]float64
}

func newReplay() *replay {
	return &replay{accts: newAccts(), emb: make([][]float64, clients)}
}

// finish sets the per-layer metrics of the replay, whose engine counters
// read before and after, and writes out the spans.
func (rp *replay) finish(cfg config, res *result, tr *recorder, before, after starmagic.Metrics) error {
	total := merged(rp.accts)
	acctMetrics(res, total)
	opMetrics(res, before, after, total.execs)
	emstChosenFrac(res, before, after)
	spanMetrics(res, tr)
	wireOverhead(res, tr, rp.emb)
	return dumpSpans(cfg, tr, res)
}

// execRead executes p with args and drains the cursor. It returns the rows
// and the time from the ExecuteRows call to the end of the stream. With tr
// set it records spans under parent around ExecuteRows, the Next calls
// that return rows, and the final Next, and accounts the execution in a.
func execRead(p *starmagic.Prepared, args []any, shapeID string, tr *recorder, parent, req int64, a *acct) ([]starmagic.Row, time.Duration, error) {
	start := time.Now()
	rows, err := p.ExecuteRows(bg, args...)
	if tr != nil {
		tr.add("engine.ExecuteRows", parent, req, start, time.Now())
	}
	if err != nil {
		return nil, time.Since(start), err
	}
	var out []starmagic.Row
	var drainStart, drainEnd time.Time
	for {
		var t time.Time
		if tr != nil {
			t = time.Now()
		}
		if !rows.Next() {
			if tr != nil {
				tr.add("engine.Rows.Next.eof", parent, req, t, time.Now())
			}
			break
		}
		out = append(out, rows.Row())
		if tr != nil {
			if drainStart.IsZero() {
				drainStart = t
			}
			drainEnd = time.Now()
		}
	}
	dur := time.Since(start)
	if err := rows.Err(); err != nil {
		return nil, dur, err
	}
	if tr != nil && !drainStart.IsZero() {
		tr.add("engine.Rows.Next", parent, req, drainStart, drainEnd)
	}
	if a != nil {
		info := rows.Plan()
		a.execs++
		a.rows += int64(len(out))
		a.execUs[shapeID] = append(a.execUs[shapeID], float64(dur)/1e3)
		if info != nil {
			a.counters.Add(info.Counters)
			if info.MaxQError > 0 {
				a.qerr = append(a.qerr, info.MaxQError)
			}
			for _, op := range info.Operators {
				if op.Kind == "fixpoint" {
					a.fixMs = append(a.fixMs, float64(op.Nanos)/1e6)
				}
			}
		}
	}
	return out, dur, nil
}

// planFingerprint executes p once with args and returns a timing-free
// fingerprint of the executed plan: operator kinds and tree shape (depth
// per operator, depth-first), plus whether the magic plan ran.
func planFingerprint(p *starmagic.Prepared, args []any) (string, error) {
	rows, err := p.ExecuteRows(bg, args...)
	if err != nil {
		return "", err
	}
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		return "", err
	}
	info := rows.Plan()
	fp := "original"
	if info.UsedEMST {
		fp = "emst"
	}
	for _, op := range info.Operators {
		fp += "|" + strconv.Itoa(op.Depth) + ":" + op.Kind
	}
	return fp, nil
}

// fingerprintReport compares the fingerprints taken at the start and at
// the end of a run.
func fingerprintReport(start, end map[string]string, reopts int64) map[string]any {
	same := true
	for k, v := range start {
		if end[k] != v {
			same = false
		}
	}
	return map[string]any{"start": start, "end": end, "same": same, "feedback_reopts_delta": reopts}
}

// opMetrics sets exec.op_us.<kind> from the growth of the engine's
// per-operator-kind time over n executions.
func opMetrics(res *result, before, after starmagic.Metrics, n int64) {
	if n == 0 {
		return
	}
	for _, k := range opKinds {
		if d := after.OpNanos[k] - before.OpNanos[k]; d > 0 {
			res.set("exec.op_us."+k, float64(d)/1e3/float64(n))
		}
	}
}

// acctMetrics sets the per-layer metrics the traced executions' PlanInfo
// gives: execution time per shape, work counts, q-error and fixpoint time.
func acctMetrics(res *result, a *acct) {
	for id, xs := range a.execUs {
		res.setPct("exec.exec_us."+id, percentile(xs, 0.5))
	}
	if a.execs == 0 {
		return
	}
	n := float64(a.execs)
	c := a.counters
	res.set("exec.base_rows_per_op", float64(c.BaseRows)/n)
	res.set("exec.index_lookups_per_op", float64(c.IndexLookups)/n)
	res.set("exec.hash_probes_per_op", float64(c.HashProbes)/n)
	res.set("exec.box_evals_per_op", float64(c.BoxEvals)/n)
	res.set("exec.subquery_evals_per_op", float64(c.SubqueryEvals)/n)
	res.set("exec.rows_examined_per_row", ratio(float64(c.BaseRows), float64(a.rows)))
	if len(a.qerr) > 0 {
		res.setPct("opt.max_qerror_p50", percentile(a.qerr, 0.5))
	}
	if len(a.fixMs) > 0 {
		res.setPct("exec.fixpoint_ms", percentile(a.fixMs, 0.5))
	}
}

// spanMetrics sets the per-layer metrics that come from span self times:
// the pipeline stages of traced prepares and the engine calls.
func spanMetrics(res *result, tr *recorder) {
	self := tr.selfTimes()
	for _, s := range stageMetrics {
		if xs := self[s.Span]; len(xs) > 0 {
			res.setPct(s.Metric, percentile(xs, 0.5))
		}
	}
	if xs := self["engine.ExecuteRows"]; len(xs) > 0 {
		res.setPct("engine.open_us", percentile(xs, 0.5))
	}
	if xs := self["engine.Rows.Next.eof"]; len(xs) > 0 {
		res.setPct("engine.finish_us", percentile(xs, 0.5))
	}
	dur := tr.durations()
	if xs := dur["engine.PrepareContext"]; len(xs) > 0 {
		res.setPct("engine.prepare_us.p50", percentile(xs, 0.5))
		res.setPct("engine.prepare_us.p99", percentile(xs, 0.99))
	}
	for _, op := range []string{"begin", "update", "insert", "commit"} {
		if xs := dur["engine."+op]; len(xs) > 0 {
			res.setPct("engine."+op+"_us", percentile(xs, 0.5))
		}
	}
	for _, op := range []string{"query", "begin", "update", "insert", "commit"} {
		if xs := dur["wire."+op]; len(xs) > 0 {
			res.setPct("wire.rtt_us."+op, percentile(xs, 0.5))
		}
	}
}

package main

// The adhoc workload: point shapes sent as MySQL text-protocol queries to
// an in-process wire server on loopback. Each SQL text carries its binding
// plus one extra conjunct whose literal comes from a continuous domain, so
// the plan cache misses on nearly every request and parsing, binding,
// rewriting and planning dominate.

import (
	"fmt"
	"strconv"
	"time"

	"starmagic/internal/wire"
)

// adhocReq is one adhoc request.
type adhocReq struct {
	id   string
	args []any
	x    float64
	text string
}

func nextAdhoc(g *requestGen, all map[string]*shape) adhocReq {
	id := g.shape()
	s := all[id]
	args := s.Domain[g.rng.Intn(len(s.Domain))]
	x := s.ConjRange[0] + g.rng.Float64()*(s.ConjRange[1]-s.ConjRange[0])
	xs := strconv.FormatFloat(x, 'f', 3, 64)
	xv, _ := strconv.ParseFloat(xs, 64)
	return adhocReq{id: id, args: args, x: xv, text: inline(s.Param, args) + " AND " + s.ConjSQL + " > " + xs}
}

func runAdhoc(cfg config, res *result) error {
	all := shapes(tableOneSize)
	ids := []string{"A", "F", "G", "H"}
	in, setupS, err := timedSetups(cfg.Setups, func(int) (*wireInst, error) {
		db, err := openTableOne(cfg.Seed, false)
		if err != nil {
			return nil, err
		}
		srv, err := startServer(db)
		if err != nil {
			db.Close()
			return nil, err
		}
		return &wireInst{db: db, srv: srv}, nil
	}, (*wireInst).close)
	if err != nil {
		return err
	}
	defer in.close()
	res.set("setup_s", setupS)

	refs, err := computeReferences(in.db, all, ids)
	if err != nil {
		return err
	}
	if cfg.Corrupt {
		corruptRefs(refs, all["F"])
	}
	fpStart, err := literalFingerprints(in.db, all, ids)
	if err != nil {
		return err
	}
	m0 := in.db.Metrics()

	gens := make([]*requestGen, clients)
	hashes := make([][]uint64, clients)
	reset := func() {
		for c := range gens {
			gens[c] = newRequestGen(cfg.Seed, c, pointWeights)
			hashes[c] = hashes[c][:0]
		}
	}
	check := func(r adhocReq, got [][]string) error {
		want := cells(filterAbove(refs[refKey(r.id, r.args)], all[r.id].ConjCol, r.x))
		if err := compareRows(got, want); err != nil {
			return fmt.Errorf("%q: wrong result: %v", r.text, err)
		}
		return nil
	}
	var cls []*wire.Client
	var tr *recorder
	step := func(c int) (sample, error) {
		r := nextAdhoc(gens[c], all)
		hashes[c] = append(hashes[c], textHash(r.text))
		start := time.Now()
		rs, err := cls[c].Query(r.text)
		dur := time.Since(start)
		if tr != nil {
			tr.add("wire.query", 0, tr.newReq(), start, start.Add(dur))
		}
		if err != nil {
			return sample{}, fmt.Errorf("%q: %w", r.text, err)
		}
		return sample{Kind: opRead, Shape: r.id, Dur: dur}, check(r, wireCells(rs))
	}
	window := func(d time.Duration) (loopStats, error) { return in.window(d, &cls, step, res) }

	reset()
	if _, err := window(cfg.Warmup); err != nil {
		return err
	}
	reset()
	c0, w0, r0 := in.db.PlanCacheStats(), in.srv.srv.Metrics(), rtSample()
	rss := sampleRSS()
	ls, err := window(cfg.window())
	res.set("rss_mb", rss())
	if err != nil {
		return err
	}
	c1, w1, r1 := in.db.PlanCacheStats(), in.srv.srv.Metrics(), rtSample()
	endToEndMetrics(res, ls)
	res.report["repeated_text_share"] = repeatedShare(hashes)
	res.report["mix_weights"] = pointWeights
	res.report["data"] = map[string]any{"size": tableOneSize}

	if cfg.Trace {
		rtMetrics(res, r0, r1, len(ls.Samples))
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
		res.set("trace.overhead_frac", 1-lt.opsPerSec()/ls.opsPerSec())

		// Embedded replay of the traced window's first requests. A short
		// window may leave their texts in the plan cache; clear it, so that
		// the replay's prepares are cold like the workload's.
		in.db.SetPlanCache(false)
		in.db.SetPlanCache(true)
		reset()
		rp := newReplay()
		mA := in.db.Metrics()
		res.count(closedLoopN(replayCounts(lt, cfg.ReplayCap), func(c int) (sample, error) {
			r := nextAdhoc(gens[c], all)
			rows, dur, err := replayRead(in.db, r.id, r.text, tr2, rp.accts[c])
			if err != nil {
				return sample{}, fmt.Errorf("replay %q: %w", r.text, err)
			}
			rp.emb[c] = append(rp.emb[c], float64(dur)/1e3)
			return sample{Kind: opRead, Shape: r.id, Dur: dur}, check(r, cells(rows))
		}, res))
		if err := rp.finish(cfg, res, tr2, mA, in.db.Metrics()); err != nil {
			return err
		}
	}

	fpEnd, err := literalFingerprints(in.db, all, ids)
	if err != nil {
		return err
	}
	res.report["plans"] = fingerprintReport(fpStart, fpEnd, in.db.Metrics().FeedbackReopts-m0.FeedbackReopts)
	return nil
}

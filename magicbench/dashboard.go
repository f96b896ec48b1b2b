package main

// The dashboard workload: every shape is prepared once with `?`
// placeholders, and each request executes one of them embedded with seeded
// bindings and drains the cursor. The optimizer, the plan cache and the
// wire layer are off the request path, so the executor does nearly all the
// work.

import (
	"fmt"
	"path/filepath"
	"time"

	"starmagic"
)

type dashboardInst struct {
	db   *starmagic.DB
	prep map[string]*starmagic.Prepared
}

// openTableOne builds the in-memory Table-1 database, with the graph when
// withGraph is set, and runs ANALYZE.
func openTableOne(seed int64, withGraph bool) (*starmagic.DB, error) {
	db := starmagic.Open()
	err := loadTableOne(db, tableOneSize, seed)
	if err == nil && withGraph {
		err = loadGraph(db, seed)
	}
	if err != nil {
		db.Close()
		return nil, err
	}
	db.Analyze()
	return db, nil
}

func runDashboard(cfg config, res *result) error {
	all := shapes(tableOneSize)
	in, setupS, err := timedSetups(cfg.Setups, func(int) (*dashboardInst, error) {
		db, err := openTableOne(cfg.Seed, true)
		if err != nil {
			return nil, err
		}
		in := &dashboardInst{db: db, prep: map[string]*starmagic.Prepared{}}
		for _, id := range shapeOrder {
			p, err := db.PrepareContext(bg, all[id].Param)
			if err != nil {
				db.Close()
				return nil, fmt.Errorf("prepare %s: %w", id, err)
			}
			in.prep[id] = p
		}
		return in, nil
	}, func(in *dashboardInst) { in.db.Close() })
	if err != nil {
		return err
	}
	defer in.db.Close()
	res.set("setup_s", setupS)

	refs, err := computeReferences(in.db, all, shapeOrder)
	if err != nil {
		return err
	}
	if cfg.Corrupt {
		corruptRefs(refs, all["F"])
	}
	want := map[string][][]string{}
	for k, rows := range refs {
		want[k] = cells(rows)
	}
	fpStart, err := dashboardFingerprints(in, all)
	if err != nil {
		return err
	}
	m0 := in.db.Metrics()

	gens := make([]*requestGen, clients)
	reset := func() {
		for c := range gens {
			gens[c] = newRequestGen(cfg.Seed, c, dashboardWeights)
		}
	}
	var tr *recorder
	var accts []*acct
	step := func(c int) (sample, error) {
		id := gens[c].shape()
		s := all[id]
		args := s.Domain[gens[c].rng.Intn(len(s.Domain))]
		var a *acct
		var root openSpan
		var req int64
		if tr != nil {
			a = accts[c]
			req = tr.newReq()
			root = tr.open("request."+id, 0, req)
		}
		rows, dur, err := execRead(in.prep[id], args, id, tr, root.id(), req, a)
		if tr != nil {
			root.done()
		}
		if err != nil {
			return sample{}, fmt.Errorf("%s%v: %w", id, args, err)
		}
		if err := compareRows(cells(rows), want[refKey(id, args)]); err != nil {
			return sample{}, fmt.Errorf("%s%v: wrong result: %v", id, args, err)
		}
		return sample{Kind: opRead, Shape: id, Dur: dur}, nil
	}

	reset()
	res.count(closedLoop(cfg.Warmup, step, res))
	reset()
	r0, rss := rtSample(), sampleRSS()
	ls := closedLoop(cfg.window(), step, res)
	res.set("rss_mb", rss())
	r1 := rtSample()
	res.count(ls)
	endToEndMetrics(res, ls)
	res.report["shape_time_share"] = shapeShares(ls)
	// Every request reuses its shape's prepared statement.
	res.report["repeated_text_share"] = 1.0
	res.report["mix_weights"] = dashboardWeights
	res.report["data"] = map[string]any{"size": tableOneSize, "graph_chains": graphChains, "graph_chain_len": graphChainLen}

	if cfg.Trace {
		rtMetrics(res, r0, r1, len(ls.Samples))
		tr = newRecorder()
		accts = newAccts()
		reset()
		mA := in.db.Metrics()
		lt := closedLoop(cfg.window(), step, res)
		mB := in.db.Metrics()
		res.count(lt)
		res.set("trace.overhead_frac", 1-lt.opsPerSec()/ls.opsPerSec())
		total := merged(accts)
		acctMetrics(res, total)
		opMetrics(res, mA, mB, total.execs)
		if err := tracedPrepares(in.db, all, tr, res, 5); err != nil {
			return err
		}
		spanMetrics(res, tr)
		if err := strategyRatios(in.db, all, cfg.RatioBudget, res); err != nil {
			return err
		}
		if err := dumpSpans(cfg, tr, res); err != nil {
			return err
		}
	}

	fpEnd, err := dashboardFingerprints(in, all)
	if err != nil {
		return err
	}
	res.report["plans"] = fingerprintReport(fpStart, fpEnd, in.db.Metrics().FeedbackReopts-m0.FeedbackReopts)
	return nil
}

func dashboardFingerprints(in *dashboardInst, all map[string]*shape) (map[string]string, error) {
	out := map[string]string{}
	for _, id := range shapeOrder {
		fp, err := planFingerprint(in.prep[id], all[id].PaperArgs)
		if err != nil {
			return nil, fmt.Errorf("fingerprint %s: %w", id, err)
		}
		out[id] = fp
	}
	return out, nil
}

// tracedPrepares prepares every shape reps times with the benchmark's
// tracer attached (a tracer bypasses the plan cache, so each is cold) and
// sets core.emst_chosen_frac from the cost comparisons they ran.
func tracedPrepares(db *starmagic.DB, all map[string]*shape, tr *recorder, res *result, reps int) error {
	before := db.Metrics()
	for r := 0; r < reps; r++ {
		for _, id := range shapeOrder {
			req := tr.newReq()
			o := tr.open("engine.PrepareContext.traced", 0, req)
			_, err := db.PrepareContext(bg, all[id].Param, starmagic.WithTracer(engineTracer{rec: tr, parent: o.id(), req: req}))
			o.done()
			if err != nil {
				return fmt.Errorf("traced prepare %s: %w", id, err)
			}
		}
	}
	emstChosenFrac(res, before, db.Metrics())
	return nil
}

func emstChosenFrac(res *result, before, after starmagic.Metrics) {
	chosen := after.EMSTChosen - before.EMSTChosen
	pre := after.PreEMSTChosen - before.PreEMSTChosen
	if chosen+pre > 0 {
		res.set("core.emst_chosen_frac", float64(chosen)/float64(chosen+pre))
	}
}

// strategyRatios measures, within this run, each shape's median execution
// time under EMST and Correlated as a ratio of its time under Original:
// for the paper's literal queries and for the placeholder form bound to
// the paper's constants. The variants of one shape run interleaved, each
// at least 3 and at most 15 times, stopping once it has used budget.
func strategyRatios(db *starmagic.DB, all map[string]*shape, budget time.Duration, res *result) error {
	type variant struct {
		p     *starmagic.Prepared
		args  []any
		times []float64
		spent time.Duration
	}
	detail := map[string]any{}
	for _, id := range shapeOrder {
		s := all[id]
		type def struct {
			name, q string
			st      starmagic.Strategy
			args    []any
		}
		defs := []def{
			{"original", s.Literal, starmagic.StrategyOriginal, nil},
			{"emst", s.Literal, starmagic.StrategyEMST, nil},
			{"original_param", s.Param, starmagic.StrategyOriginal, s.PaperArgs},
			{"emst_param", s.Param, starmagic.StrategyEMST, s.PaperArgs},
		}
		if id != "TC" {
			defs = append(defs, def{"correlated", s.Literal, starmagic.StrategyCorrelated, nil})
		}
		vs := map[string]*variant{}
		var names []string
		for _, d := range defs {
			p, err := db.PrepareContext(bg, d.q, starmagic.WithStrategy(d.st))
			if err != nil {
				return fmt.Errorf("%s %s: %w", id, d.name, err)
			}
			vs[d.name] = &variant{p: p, args: d.args}
			names = append(names, d.name)
		}
		for round := 0; round < 15; round++ {
			for _, n := range names {
				v := vs[n]
				if round >= 3 && v.spent > budget {
					continue
				}
				start := time.Now()
				if _, err := v.p.ExecuteContext(bg, v.args...); err != nil {
					return fmt.Errorf("%s %s: %w", id, n, err)
				}
				d := time.Since(start)
				v.spent += d
				v.times = append(v.times, float64(d)/1e3)
			}
		}
		med := map[string]float64{}
		for _, n := range names {
			med[n] = median(vs[n].times)
		}
		res.set("core.emst_over_original."+id, ratio(med["emst"], med["original"]))
		res.set("core.emst_over_original_param."+id, ratio(med["emst_param"], med["original_param"]))
		if id != "TC" {
			res.set("core.correlated_over_original."+id, ratio(med["correlated"], med["original"]))
		}
		detail[id] = med
	}
	res.report["strategy_median_us"] = detail
	return nil
}

// dumpSpans writes the traced run's spans under the work directory.
func dumpSpans(cfg config, tr *recorder, res *result) error {
	path := filepath.Join(cfg.WorkDir, "traces", fmt.Sprintf("%s-seed%d.jsonl.gz", cfg.Workload, cfg.Seed))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	res.report["spans"] = map[string]any{"file": path, "count": tr.count()}
	return nil
}

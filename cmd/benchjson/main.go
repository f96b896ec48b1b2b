// Command benchjson runs the performance-trajectory benchmark suite in
// process (via testing.Benchmark) and writes machine-readable results to a
// JSON file: ns/op, bytes/op and allocs/op for the row-key encoders, the
// hash-join build, cold-vs-cached prepares, the bound transitive closure
// (with its base-row and index-lookup counts), and every Table-1 experiment
// under each strategy.
//
// `make bench-json` writes BENCH_$(N).json at the repository root (see the
// Makefile's BENCH_OUT variable) so successive PRs can track executor
// performance against recorded baselines.
//
// With -baseline it additionally compares the fresh run against a recorded
// report and exits non-zero if any gated benchmark (row-key encoders,
// hash-join build, prepare path) regressed in ns/op by more than -threshold
// percent — `make bench-check` uses this as the perf-regression gate.
//
// Usage:
//
//	benchjson [-out BENCH.json] [-experiments A,B,...] [-scale N]
//	          [-baseline BENCH_1.json] [-threshold 15]
//	          [-gate rowkey/,hashjoin_build/,prepare/,spill/,vec/,wire/,mvcc/,stats/,wal/]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"starmagic"
	"starmagic/internal/bench"
	"starmagic/internal/datum"
	"starmagic/internal/engine"
	"starmagic/internal/wal"
	"starmagic/internal/wire"
)

type result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int     `json:"iterations"`
	// BaseRows and IndexLookups are one execution's work counters, set
	// for the recursion results only (deterministic, so a trajectory of
	// them needs no noise margin).
	BaseRows     *int64 `json:"base_rows,omitempty"`
	IndexLookups *int64 `json:"index_lookups,omitempty"`
}

type report struct {
	Schema     string   `json:"schema"`
	Generated  string   `json:"generated"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Scale      int      `json:"scale"`
	Results    []result `json:"results"`
}

func main() {
	out := flag.String("out", "BENCH_1.json", "output file")
	expFilter := flag.String("experiments", "A,B,C,D,E,F,G,H", "comma-separated Table-1 experiment IDs (empty = skip)")
	scale := flag.Int("scale", 1, "benchmark data size multiplier")
	baseline := flag.String("baseline", "", "baseline report to compare against (empty = no comparison)")
	threshold := flag.Float64("threshold", 15, "max allowed ns/op regression over the baseline, in percent")
	gate := flag.String("gate", "rowkey/,hashjoin_build/,prepare/,spill/,vec/,wire/,mvcc/,stats/,wal/", "comma-separated name prefixes the regression gate applies to")
	flag.Parse()

	rep := report{
		Schema:     "starmagic-bench/v1",
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      *scale,
	}
	record := func(name string, f func(b *testing.B)) {
		r := testing.Benchmark(f)
		rep.Results = append(rep.Results, result{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Iterations:  r.N,
		})
		fmt.Printf("%-28s %12.0f ns/op %10d B/op %8d allocs/op\n",
			name, float64(r.T.Nanoseconds())/float64(r.N), r.AllocedBytesPerOp(), r.AllocsPerOp())
	}

	// Row-key encoders: the binary AppendKey path vs the seed's string path.
	keyRows := bench.KeyRows(1024)
	record("rowkey/binary", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 64)
		for i := 0; i < b.N; i++ {
			buf = datum.AppendKey(buf[:0], keyRows[i%len(keyRows)])
		}
	})
	record("rowkey/legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = bench.LegacyRowKey(keyRows[i%len(keyRows)])
		}
	})

	// Hash-join build: fresh evaluator per execution over unindexed tables.
	if err := hashJoinBench(record); err != nil {
		fmt.Fprintln(os.Stderr, "hash-join bench:", err)
		os.Exit(1)
	}

	// Streaming early exit: EXISTS and LIMIT over a 100k-row table,
	// streaming versus the materializing baseline.
	if err := earlyExitBench(record); err != nil {
		fmt.Fprintln(os.Stderr, "early-exit bench:", err)
		os.Exit(1)
	}

	// Prepare path: a cold optimization versus a plan-cache hit for a
	// parameterized query over the Table-1 schema.
	if err := prepareBench(record); err != nil {
		fmt.Fprintln(os.Stderr, "prepare bench:", err)
		os.Exit(1)
	}

	// Spill overhead: the same join and sort with unlimited memory versus a
	// budget tight enough to force disk spilling.
	if err := spillBench(record); err != nil {
		fmt.Fprintln(os.Stderr, "spill bench:", err)
		os.Exit(1)
	}

	// Vectorized-vs-row executor pairs, normalized to ns per input row.
	recordPerRow := func(name string, rows int, f func(b *testing.B)) {
		r := testing.Benchmark(f)
		rep.Results = append(rep.Results, result{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N) / float64(rows),
			BytesPerOp:  r.AllocedBytesPerOp() / int64(rows),
			AllocsPerOp: r.AllocsPerOp() / int64(rows),
			Iterations:  r.N,
		})
		fmt.Printf("%-28s %12.2f ns/row %10d B/row %8d allocs/row\n",
			name, float64(r.T.Nanoseconds())/float64(r.N)/float64(rows),
			r.AllocedBytesPerOp()/int64(rows), r.AllocsPerOp()/int64(rows))
	}
	if err := vecBench(recordPerRow); err != nil {
		fmt.Fprintln(os.Stderr, "vec bench:", err)
		os.Exit(1)
	}

	// Wire protocol: a full-table COM_QUERY round-trip (handshake excluded,
	// ns per streamed row) and a plan-cache-served COM_STMT_EXECUTE.
	if err := wireBench(record, recordPerRow); err != nil {
		fmt.Fprintln(os.Stderr, "wire bench:", err)
		os.Exit(1)
	}

	// MVCC: transaction commit latency and DML throughput while a long
	// streaming scan is open (the lock-free-read guarantee, measured).
	if err := mvccBench(record); err != nil {
		fmt.Fprintln(os.Stderr, "mvcc bench:", err)
		os.Exit(1)
	}

	// Statistics: full-ANALYZE cost per row (histograms included) and one
	// equality + one range histogram probe.
	if err := statsBench(record, recordPerRow); err != nil {
		fmt.Fprintln(os.Stderr, "stats bench:", err)
		os.Exit(1)
	}

	// Skewed plan pick A/B: on a Zipf-skewed Table-1 instance, the plan the
	// histogram-backed cost comparison chose versus the magic plan the flat
	// uniformity assumption would have picked.
	if err := skewedPlanBench(record); err != nil {
		fmt.Fprintln(os.Stderr, "skewed-plan bench:", err)
		os.Exit(1)
	}

	// WAL: per-commit fsync latency, the same workload under concurrent
	// committers sharing group-commit fsyncs, and log-replay recovery speed
	// normalized per MB of log.
	recordValue := func(name string, val float64, unit string, iters int) {
		rep.Results = append(rep.Results, result{Name: name, NsPerOp: val, Iterations: iters})
		fmt.Printf("%-28s %12.2f %s\n", name, val, unit)
	}
	if err := walBench(record, recordValue); err != nil {
		fmt.Fprintln(os.Stderr, "wal bench:", err)
		os.Exit(1)
	}

	// Recursion: the bound transitive closure with and without magic.
	if err := recursionBench(record, &rep); err != nil {
		fmt.Fprintln(os.Stderr, "recursion bench:", err)
		os.Exit(1)
	}

	// Table-1 experiments under each strategy.
	ids := map[string]bool{}
	for _, id := range strings.Split(*expFilter, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids[strings.ToUpper(id)] = true
		}
	}
	if len(ids) > 0 {
		cfg := bench.Config{Departments: 100, EmpsPerDept: 20, SalesPerDept: 80, OrdersPerDept: 80, Seed: 1994}
		if *scale > 1 {
			cfg = bench.DefaultConfig().WithScale(*scale)
		}
		db, err := bench.NewDB(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "setup:", err)
			os.Exit(1)
		}
		for _, e := range bench.Experiments() {
			if !ids[e.ID] {
				continue
			}
			for _, s := range []engine.Strategy{engine.Original, engine.Correlated, engine.EMST} {
				p, err := db.Prepare(e.Query, s)
				if err != nil {
					fmt.Fprintf(os.Stderr, "prepare %s/%s: %v\n", e.ID, s, err)
					os.Exit(1)
				}
				record(fmt.Sprintf("exp%s/%s", e.ID, s), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := p.Execute(); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "encode:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "write:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d results)\n", *out, len(rep.Results))

	if *baseline != "" {
		if !compareBaseline(rep, *baseline, *threshold, strings.Split(*gate, ",")) {
			os.Exit(1)
		}
	}
}

// compareBaseline checks the fresh results against a recorded report and
// reports per-benchmark deltas. It returns false if any benchmark whose name
// matches a gated prefix regressed in ns/op by more than threshold percent.
// Benchmarks absent from the baseline (newly added) pass trivially.
func compareBaseline(rep report, path string, threshold float64, gates []string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "baseline:", err)
		return false
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "baseline %s: %v\n", path, err)
		return false
	}
	old := map[string]result{}
	for _, r := range base.Results {
		old[r.Name] = r
	}
	gated := func(name string) bool {
		for _, g := range gates {
			if g = strings.TrimSpace(g); g != "" && strings.HasPrefix(name, g) {
				return true
			}
		}
		return false
	}
	ok := true
	fmt.Printf("\nagainst %s (threshold %+.0f%% on gated benchmarks):\n", path, threshold)
	for _, r := range rep.Results {
		b, found := old[r.Name]
		if !found || b.NsPerOp <= 0 {
			fmt.Printf("  %-28s (no baseline)\n", r.Name)
			continue
		}
		delta := (r.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
		verdict := "ok"
		if gated(r.Name) && delta > threshold {
			verdict = "REGRESSION"
			ok = false
		} else if !gated(r.Name) {
			verdict = "info"
		}
		fmt.Printf("  %-28s %12.0f -> %12.0f ns/op  %+7.1f%%  %s\n",
			r.Name, b.NsPerOp, r.NsPerOp, delta, verdict)
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "benchjson: performance regression beyond %.0f%% detected\n", threshold)
	}
	return ok
}

// prepareBench measures what the plan cache amortizes: a cold prepare runs
// the full parse→bind→rewrite→cost pipeline (two plan-optimization passes
// around the magic transformation); a cache hit is a sharded map lookup plus
// a shallow per-call copy. The query is parameterized, so one cached entry
// serves every binding.
func prepareBench(record func(string, func(b *testing.B))) error {
	db, err := bench.NewDB(bench.Config{Departments: 100, EmpsPerDept: 20, SalesPerDept: 80, OrdersPerDept: 80, Seed: 1994})
	if err != nil {
		return err
	}
	const query = `SELECT d.deptname, v.avgsal FROM department d, avgSalary v
	               WHERE d.deptno = v.workdept AND d.deptname = ?`
	ctx := context.Background()
	db.SetPlanCache(false)
	record("prepare/cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.PrepareContext(ctx, query); err != nil {
				b.Fatal(err)
			}
		}
	})
	db.SetPlanCache(true)
	if _, err := db.PrepareContext(ctx, query); err != nil {
		return err
	}
	record("prepare/cache_hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.PrepareContext(ctx, query); err != nil {
				b.Fatal(err)
			}
		}
	})
	return nil
}

// spillBench measures what the memory governor costs: the same hash join
// and sort entirely in memory (`*_mem`) and under a budget small enough
// that the join build pages partitions out and the sort runs externally
// (`*_disk`). The gap between the pairs is the price of graceful
// degradation instead of unbounded growth.
func spillBench(record func(string, func(b *testing.B))) error {
	const rows = 8192
	db := engine.New()
	if _, err := db.Exec(`
	CREATE TABLE fact (id INT, k INT, pad VARCHAR);
	CREATE TABLE dim (k INT, name VARCHAR);`); err != nil {
		return err
	}
	batch := make([]datum.Row, rows)
	for i := range batch {
		batch[i] = datum.Row{
			datum.Int(int64(i)),
			datum.Int(int64(i % 709)),
			datum.String(fmt.Sprintf("pad-%06d-xxxxxxxxxxxxxxxx", i)),
		}
	}
	if err := db.InsertRows("fact", batch); err != nil {
		return err
	}
	dim := make([]datum.Row, 709)
	for i := range dim {
		dim[i] = datum.Row{datum.Int(int64(i)), datum.String(fmt.Sprintf("name-%03d", i))}
	}
	if err := db.InsertRows("dim", dim); err != nil {
		return err
	}
	// ~1.3 MB of fact rows resident; 128 KB forces both operators to spill.
	const budget = 128 << 10
	cases := []struct {
		name  string
		query string
	}{
		{"join", `SELECT f.id FROM fact f, dim d WHERE f.k = d.k AND f.id < 4000`},
		{"sort", `SELECT f.id, f.pad FROM fact f ORDER BY f.pad`},
	}
	ctx := context.Background()
	for _, c := range cases {
		for _, mode := range []struct {
			suffix string
			opts   []engine.QueryOption
		}{
			{"mem", nil},
			{"disk", []engine.QueryOption{engine.WithMemoryLimit(budget)}},
		} {
			p, err := db.PrepareContext(ctx, c.query, mode.opts...)
			if err != nil {
				return err
			}
			// Sanity: the budgeted variant must actually spill, or the pair
			// is not measuring what its name claims.
			res, err := p.ExecuteContext(ctx)
			if err != nil {
				return err
			}
			if mode.suffix == "disk" && res.Plan.Mem.Spills == 0 {
				return fmt.Errorf("spill/%s_disk: no spills under %d-byte budget", c.name, budget)
			}
			record(fmt.Sprintf("spill/%s_%s", c.name, mode.suffix), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := p.ExecuteContext(ctx); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	return nil
}

// vecBench measures the vectorized select operator against the row pipeline
// on the same prepared plans, toggled with SetVectorized: a zero-match scan
// filter (pure predicate cost), a selective mixed int/string filter, and a
// hash join driven by a 64k-row stream probing a grouped-view build. Results
// are normalized to ns per input row so they compare across PRs even if the
// table size changes. Each vec run asserts the ROOT select actually executed
// vectorized — a silent fallback would benchmark the row path twice.
//
// The hash-join shape is picked so the probe loop dominates and the big
// table drives: the view's string-range filter keeps the actual build tiny
// (1024 groups) while its default selectivity estimate keeps the view's
// cardinality estimate high, and the parameterized range filters on t (all
// rows pass) shrink t's estimated stream. Their column side is arithmetic
// so the estimator cannot read them as column-vs-value comparisons: it
// costs them at the flat default, and no bind-aware plan variant costs them
// with the bound values (which would see that every row passes and flip
// the join order). The join is pinned to the
// Original strategy — magic rewriting would restructure the view around
// the fooled estimates and benchmark a different plan entirely — and to
// flat statistics: histograms would estimate the string-range filter
// accurately, flip the join order, and benchmark a different plan.
// Feedback is off too: the vec half's q-error would mark the cached plan for
// re-optimization and serve the row half another plan. Both halves must run
// one plan — same operators and access paths, before and after timing —
// or the A/B fails.
func vecBench(record func(string, int, func(b *testing.B))) error {
	const rows = 65536
	db := engine.New()
	db.SetHistograms(false)
	db.SetFeedback(false)
	if _, err := db.Exec(`
	CREATE TABLE vt (a INT, k INT, name VARCHAR);
	CREATE VIEW vtot (ka, total) AS
	  SELECT a, SUM(k) FROM vt WHERE name < 'v-0008' GROUPBY a;`); err != nil {
		return err
	}
	batch := make([]datum.Row, rows)
	for i := range batch {
		batch[i] = datum.Row{
			datum.Int(int64(i)),
			datum.Int(int64(i % 4096)),
			datum.String(fmt.Sprintf("v-%04d", i%512)),
		}
	}
	if err := db.InsertRows("vt", batch); err != nil {
		return err
	}
	cases := []struct {
		name  string
		query string
		args  []any
	}{
		{"scan", `SELECT t.a FROM vt t WHERE t.a < 0`, nil},
		{"filter", `SELECT t.a FROM vt t
		            WHERE t.k >= 100 AND t.k < 200 AND t.name <> 'v-0000'`, nil},
		{"hashjoin", `SELECT t.a, v.total FROM vt t, vtot v
		              WHERE t.a = v.ka AND t.a + 0 >= ? AND t.k + 0 >= ?`, []any{0, 0}},
	}
	ctx := context.Background()
	defer db.SetVectorized(true)
	for _, c := range cases {
		var shape string
		sameShape := func(res *engine.Result, when string) error {
			got := planShape(res)
			if shape == "" {
				shape = got
			}
			if got != shape {
				return fmt.Errorf("%s: the A/B halves ran different plans (%s):\n%s\nvs\n%s", c.name, when, shape, got)
			}
			return nil
		}
		for _, mode := range []struct {
			prefix string
			vec    bool
		}{
			{"vec", true},
			{"row", false},
		} {
			db.SetVectorized(mode.vec)
			p, err := db.PrepareContext(ctx, c.query, engine.WithStrategy(engine.Original))
			if err != nil {
				return err
			}
			res, err := p.ExecuteContext(ctx, c.args...)
			if err != nil {
				return err
			}
			root := res.Plan.Operators[0]
			if root.Vectorized != mode.vec {
				return fmt.Errorf("%s/%s: root %s vectorized=%v, want %v — plan shape regressed:\n%s",
					mode.prefix, c.name, root.Kind, root.Vectorized, mode.vec, res.Plan.Physical())
			}
			if err := sameShape(res, mode.prefix+" before timing"); err != nil {
				return err
			}
			record(fmt.Sprintf("%s/%s_ns_row", mode.prefix, c.name), rows, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := p.ExecuteContext(ctx, c.args...); err != nil {
						b.Fatal(err)
					}
				}
			})
			if res, err = p.ExecuteContext(ctx, c.args...); err != nil {
				return err
			}
			if err := sameShape(res, mode.prefix+" after timing"); err != nil {
				return err
			}
		}
	}
	return nil
}

// recursionBench measures the bound transitive closure of
// BenchmarkRecursiveTC under Original (the whole closure, then the filter)
// and EMST (the fixpoint seeded with the bound source). Each result also
// carries one execution's base rows read and index lookups.
func recursionBench(record func(string, func(b *testing.B)), rep *report) error {
	db, err := bench.NewTCDB()
	if err != nil {
		return err
	}
	for _, s := range []engine.Strategy{engine.Original, engine.EMST} {
		p, err := db.Prepare(bench.TCQuery, s)
		if err != nil {
			return err
		}
		res, err := p.Execute()
		if err != nil {
			return err
		}
		record("recursion/tc/"+s.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Execute(); err != nil {
					b.Fatal(err)
				}
			}
		})
		c := res.Plan.Counters
		r := &rep.Results[len(rep.Results)-1]
		r.BaseRows, r.IndexLookups = &c.BaseRows, &c.IndexLookups
		fmt.Printf("%-28s %12d base rows %8d index lookups\n", "", c.BaseRows, c.IndexLookups)
	}
	return nil
}

// planShape renders an executed plan's operator tree for A/B comparison:
// kind, label and access paths of every operator, depth-first, without
// timings or the vectorized flag.
func planShape(res *engine.Result) string {
	var sb strings.Builder
	for _, op := range res.Plan.Operators {
		fmt.Fprintf(&sb, "%d %s %s [%s]\n", op.Depth, op.Kind, op.Label, op.Detail)
	}
	return sb.String()
}

// wireBench measures the MySQL wire path over an in-memory transport
// (net.Pipe, so no kernel TCP noise): `query_ns_row` is a full-table
// COM_QUERY — text rows streamed off the cursor, normalized to ns per row —
// and `stmt_execute_cached` is one binary COM_STMT_EXECUTE round-trip of a
// point query whose plan the sharded cache serves.
func wireBench(record func(string, func(b *testing.B)), recordPerRow func(string, int, func(b *testing.B))) error {
	const rows = 8192
	db := starmagic.Open()
	if _, err := db.Exec(`CREATE TABLE wt (id INT, grp INT, name VARCHAR, PRIMARY KEY (id))`); err != nil {
		return err
	}
	batch := make([]datum.Row, rows)
	for i := range batch {
		batch[i] = datum.Row{
			datum.Int(int64(i)),
			datum.Int(int64(i % 97)),
			datum.String(fmt.Sprintf("name-%05d", i%1000)),
		}
	}
	if err := db.InsertRows("wt", batch); err != nil {
		return err
	}
	srv := wire.NewServer(db, wire.Config{})
	clientSide, serverSide := net.Pipe()
	go srv.ServeConn(serverSide)
	defer func() { _ = clientSide.Close() }()
	c, err := wire.NewClient(clientSide, "bench", "")
	if err != nil {
		return err
	}
	recordPerRow("wire/query_ns_row", rows, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rs, err := c.Query(`SELECT t.id, t.name FROM wt t`)
			if err != nil {
				b.Fatal(err)
			}
			if len(rs.Rows) != rows {
				b.Fatalf("streamed %d rows, want %d", len(rs.Rows), rows)
			}
		}
	})
	st, err := c.Prepare(`SELECT t.name FROM wt t WHERE t.id = ?`)
	if err != nil {
		return err
	}
	record("wire/stmt_execute_cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rs, err := c.Execute(st, int64(i%rows))
			if err != nil {
				b.Fatal(err)
			}
			if len(rs.Rows) != 1 {
				b.Fatalf("point query returned %d rows", len(rs.Rows))
			}
		}
	})
	return nil
}

// mvccBench measures the transaction machinery: `commit_ns` is one
// Begin/INSERT/Commit cycle, and `read_under_write_ns_row` is one
// autocommit INSERT (one row) while a streaming cursor over a 20k-row table
// sits half-drained and open — on the pre-MVCC engine this write would
// block until the cursor closed; under MVCC it must run at normal DML
// latency.
func mvccBench(record func(string, func(b *testing.B))) error {
	db := starmagic.Open()
	if _, err := db.Exec(`CREATE TABLE mt (id INT, v VARCHAR)`); err != nil {
		return err
	}
	const rows = 20000
	batch := make([]datum.Row, rows)
	for i := range batch {
		batch[i] = datum.Row{datum.Int(int64(i)), datum.String(fmt.Sprintf("v-%05d", i%1000))}
	}
	if err := db.InsertRows("mt", batch); err != nil {
		return err
	}
	db.Analyze()
	ctx := context.Background()

	record("mvcc/commit_ns", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tx := db.Begin()
			if _, err := tx.Exec(fmt.Sprintf(`INSERT INTO mt VALUES (%d, 'c')`, rows+i)); err != nil {
				b.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Open a cursor and drain half of it, so the writes below commit under
	// a live snapshot holding old versions.
	cur, err := db.QueryRows(ctx, `SELECT t.id FROM mt t`)
	if err != nil {
		return err
	}
	defer cur.Close()
	for i := 0; i < rows/2; i++ {
		if !cur.Next() {
			return fmt.Errorf("mvcc bench: cursor ended early: %v", cur.Err())
		}
	}
	record("mvcc/read_under_write_ns_row", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.Exec(fmt.Sprintf(`INSERT INTO mt VALUES (%d, 'w')`, 10_000_000+i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	return nil
}

// statsBench measures the statistics layer: `analyze_ns_row` is one full
// ANALYZE of a 100k-row, three-column table — null/min/max counting, distinct
// estimation, and equi-depth histogram builds — normalized to ns per row, and
// `histogram_probe_ns` is one equality plus one range selectivity probe
// against a built histogram (the estimator's hot path during join-order
// enumeration).
func statsBench(record func(string, func(b *testing.B)), recordPerRow func(string, int, func(b *testing.B))) error {
	const rows = 100_000
	db := engine.New()
	if _, err := db.Exec(`CREATE TABLE st (id INT, grp INT, name VARCHAR, PRIMARY KEY (id))`); err != nil {
		return err
	}
	batch := make([]datum.Row, rows)
	for i := range batch {
		batch[i] = datum.Row{
			datum.Int(int64(i)),
			datum.Int(int64(i * i % 9973)),
			datum.String(fmt.Sprintf("n-%05d", i%2500)),
		}
	}
	if err := db.InsertRows("st", batch); err != nil {
		return err
	}
	recordPerRow("stats/analyze_ns_row", rows, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			db.Analyze()
		}
	})
	tbl, ok := db.Catalog().Table("st")
	if !ok || len(tbl.Stats) < 2 || tbl.Stats[1].Hist == nil {
		return fmt.Errorf("stats bench: no histogram on st.grp after ANALYZE")
	}
	hist := tbl.Stats[1].Hist
	record("stats/histogram_probe_ns", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v := datum.Int(int64(i % 9973))
			if _, ok := hist.EqSel(v); !ok {
				b.Fatal("equality probe missed")
			}
			if _, ok := hist.LessSel(v, true); !ok {
				b.Fatal("range probe missed")
			}
		}
	})
	return nil
}

// skewedPlanBench is the adaptive-statistics A/B: on a Table-1 instance whose
// deptname column is Zipf-skewed (95% of departments named 'HQ'), the
// histogram-backed cost comparison rejects the magic transformation for the
// heavy value while the flat 1/NDV assumption picks it. `chosen` executes the
// histogram's pick; `flat_pick_magic` forces the plan the flat baseline
// selects. The gap is what adaptive statistics save at runtime.
func skewedPlanBench(record func(string, func(b *testing.B))) error {
	const (
		depts   = 400
		heavy   = 380
		perDept = 8
		queryHQ = `SELECT d.deptno, s.avgsalary FROM department d, avgMgrSal s
		            WHERE d.deptno = s.workdept AND d.deptname = 'HQ'`
		skewDDLB = `
		CREATE TABLE department (deptno INT, deptname VARCHAR(30), mgrno INT, PRIMARY KEY (deptno));
		CREATE TABLE employee (empno INT, empname VARCHAR(30), workdept INT, salary FLOAT, PRIMARY KEY (empno));
		CREATE INDEX emp_workdept ON employee (workdept);
		CREATE VIEW mgrSal (empno, empname, workdept, salary) AS
		  SELECT e.empno, e.empname, e.workdept, e.salary
		  FROM employee e, department d WHERE e.empno = d.mgrno;
		CREATE VIEW avgMgrSal (workdept, avgsalary) AS
		  SELECT workdept, AVG(salary) FROM mgrSal GROUPBY workdept;`
	)
	db := engine.New()
	if _, err := db.Exec(skewDDLB); err != nil {
		return err
	}
	dept := make([]datum.Row, 0, depts)
	emp := make([]datum.Row, 0, depts*perDept)
	empno := 0
	for d := 1; d <= depts; d++ {
		name := "HQ"
		if d > heavy {
			name = fmt.Sprintf("D%03d", d)
		}
		dept = append(dept, datum.Row{datum.Int(int64(d)), datum.String(name), datum.Int(int64(empno + 1))})
		for e := 0; e < perDept; e++ {
			empno++
			emp = append(emp, datum.Row{
				datum.Int(int64(empno)), datum.String(fmt.Sprintf("e%d", empno)),
				datum.Int(int64(d)), datum.Float(float64(100 * (1 + empno%9))),
			})
		}
	}
	if err := db.InsertRows("department", dept); err != nil {
		return err
	}
	if err := db.InsertRows("employee", emp); err != nil {
		return err
	}
	ctx := context.Background()
	chosen, err := db.PrepareContext(ctx, queryHQ, engine.WithStrategy(engine.EMST))
	if err != nil {
		return err
	}
	if chosen.Explain().UsedEMST {
		return fmt.Errorf("skewed-plan bench: histogram estimates picked magic for the heavy value")
	}
	forced, err := db.PrepareContext(ctx, queryHQ, engine.WithStrategy(engine.EMST), engine.WithForceEMST())
	if err != nil {
		return err
	}
	for _, c := range []struct {
		name string
		p    *engine.Prepared
	}{
		{"opt/skewed_plan_pick/chosen", chosen},
		{"opt/skewed_plan_pick/flat_pick_magic", forced},
	} {
		p := c.p
		record(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.ExecuteContext(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	return nil
}

// hashJoinBench measures the unindexed equi-join from BenchmarkHashJoinBuild
// serially and with a pinned 4-worker partitioned build.
func hashJoinBench(record func(string, func(b *testing.B))) error {
	const rows = 8192
	db := engine.New()
	if _, err := db.Exec(`
	CREATE TABLE build_side (a INT, b INT);
	CREATE TABLE probe_side (a INT, b INT);`); err != nil {
		return err
	}
	load := func(table string, mod int64) error {
		batch := make([]datum.Row, rows)
		for i := range batch {
			batch[i] = datum.Row{datum.Int(int64(i)), datum.Int(int64(i) % mod)}
		}
		return db.InsertRows(table, batch)
	}
	if err := load("build_side", 977); err != nil {
		return err
	}
	if err := load("probe_side", 953); err != nil {
		return err
	}
	const query = `SELECT p.a FROM probe_side p, build_side s
	               WHERE p.b = s.b AND s.a < 50 AND p.a < 50`
	for _, par := range []struct {
		name string
		n    int
	}{{"serial", 1}, {"parallel", 4}} {
		db.SetParallelism(par.n)
		p, err := db.Prepare(query, engine.EMST)
		if err != nil {
			return err
		}
		record("hashjoin_build/"+par.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Execute(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	db.SetParallelism(0)
	return nil
}

// earlyExitBench measures the streaming executor's short-circuits — an
// uncorrelated EXISTS satisfied by its first batch and a LIMIT stopping the
// scan spine — against the materializing evaluator reading all 100k rows.
func earlyExitBench(record func(string, func(b *testing.B))) error {
	const rows = 100_000
	db := engine.New()
	if _, err := db.Exec(`
	CREATE TABLE big (id INT, grp INT);
	CREATE TABLE small (id INT);
	INSERT INTO small VALUES (1), (2), (3);`); err != nil {
		return err
	}
	batch := make([]datum.Row, rows)
	for i := range batch {
		batch[i] = datum.Row{datum.Int(int64(i)), datum.Int(int64(i % 97))}
	}
	if err := db.InsertRows("big", batch); err != nil {
		return err
	}
	queries := []struct {
		name  string
		query string
	}{
		{"exists_early_exit", `SELECT s.id FROM small s WHERE EXISTS (SELECT 1 FROM big t)`},
		{"limit_pushdown", `SELECT t.id FROM big t WHERE t.id >= 10 LIMIT 5`},
	}
	for _, q := range queries {
		for _, mode := range []struct {
			name string
			opts []engine.QueryOption
		}{
			{"streaming", nil},
			{"materialized", []engine.QueryOption{engine.WithMaterialized()}},
		} {
			p, err := db.PrepareContext(context.Background(), q.query, mode.opts...)
			if err != nil {
				return err
			}
			record(q.name+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := p.Execute(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	return nil
}

// walBench measures the durability layer. `wal/commit_fsync_ns` is the
// serial floor: one single-row transaction per iteration, each paying a
// full fsync before it returns. `wal/commit_group_ns` drives the same workload
// from 64 concurrent committers so the flush leader's single fsync covers
// every transaction that buffered while the previous flush was in flight —
// the group-commit win is the ratio between the two. `wal/recovery_ms_per_mb`
// builds a multi-megabyte log, then times OpenDir (checkpoint load + record
// replay + index and intern-table rebuild) normalized per MB of log.
func walBench(record func(string, func(b *testing.B)), recordValue func(string, float64, string, int)) error {
	commitDir, err := os.MkdirTemp("", "starmagic-walbench-commit")
	if err != nil {
		return err
	}
	defer os.RemoveAll(commitDir)
	db, err := engine.OpenDir(commitDir)
	if err != nil {
		return err
	}
	db.SetCheckpointThreshold(0) // no background checkpoints mid-measurement
	if _, err := db.Exec(`CREATE TABLE wt (id INT, v VARCHAR)`); err != nil {
		return err
	}

	// One transaction per op, committed through the parse-free InsertRows
	// path so the pair isolates the durability cost: the serial bench pays
	// a full fsync per commit, the parallel one shares each fsync across
	// every committer the flush leader covers.
	one := []datum.Row{{datum.Int(1), datum.String("durable")}}
	record("wal/commit_fsync_ns", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := db.InsertRows("wt", one); err != nil {
				b.Fatal(err)
			}
		}
	})

	record("wal/commit_group_ns", func(b *testing.B) {
		b.ReportAllocs()
		b.SetParallelism((64 + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := db.InsertRows("wt", one); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	if err := db.Close(); err != nil {
		return err
	}

	// Recovery: build a ~4 MB single-segment log (checkpoints disabled, fsync
	// deferred while loading), then time cold OpenDir+Close over it.
	recDir, err := os.MkdirTemp("", "starmagic-walbench-recovery")
	if err != nil {
		return err
	}
	defer os.RemoveAll(recDir)
	rdb, err := engine.OpenDir(recDir)
	if err != nil {
		return err
	}
	rdb.SetCheckpointThreshold(0)
	rdb.SetDurability(wal.SyncNever)
	if _, err := rdb.Exec(`CREATE TABLE rt (id INT, grp INT, name VARCHAR)`); err != nil {
		return err
	}
	const batchRows = 5000
	logBytes := int64(0)
	for n := 0; logBytes < 4<<20; n += batchRows {
		batch := make([]datum.Row, batchRows)
		for i := range batch {
			batch[i] = datum.Row{
				datum.Int(int64(n + i)),
				datum.Int(int64((n + i) % 997)),
				datum.String(fmt.Sprintf("r-%07d", n+i)),
			}
		}
		if err := rdb.InsertRows("rt", batch); err != nil {
			return err
		}
		logBytes = rdb.Metrics().WAL.SegmentBytes
	}
	if err := rdb.Close(); err != nil {
		return err
	}
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db, err := engine.OpenDir(recDir)
			if err != nil {
				b.Fatal(err)
			}
			if err := db.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	mb := float64(logBytes) / float64(1<<20)
	msPerMB := float64(r.T.Nanoseconds()) / float64(r.N) / 1e6 / mb
	recordValue("wal/recovery_ms_per_mb", msPerMB, fmt.Sprintf("ms/MB (%.1f MB log)", mb), r.N)
	return nil
}

// Command magicbench is the starmagic benchmark: three closed-loop
// workloads, each driven by two clients from this one process.
//
//	dashboard  embedded prepared statements: Table-1 shapes A-H with `?`
//	           placeholders plus a bound transitive closure (TC)
//	adhoc      MySQL text protocol, point shapes whose SQL text differs on
//	           every request, so nearly every prepare misses the plan cache
//	ingest     MySQL text protocol over a durable database: write
//	           transactions beside point reads
//
// BENCHMARK.json declares dashboard and adhoc. ingest runs on request but
// is not declared until the engine's commit/vacuum race is fixed: see the
// comment at the top of ingest.go.
//
// A run measures one workload for --seconds and checks every result. With
// --trace 0 it prints the end-to-end metrics; with --trace 1 it makes an
// untraced window, a traced window of the same seeded requests and, for
// the wire workloads, an embedded replay of them, and prints the
// per-layer metrics. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

var bg = context.Background()

// clients is the closed-loop client count of every workload.
const clients = 2

// runLimit bounds one run; the longest, a traced ingest run, takes about
// 90 s.
const runLimit = 170 * time.Second

type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// WorkDir holds data directories and span dumps.
	WorkDir string
	// Setups is how many times set-up runs; setup_s is their median.
	Setups int
	// Warmup runs the workload's loop untimed before each window.
	Warmup time.Duration
	// ReplayCap bounds the requests per client the embedded replay of a
	// traced wire workload re-runs.
	ReplayCap int
	// RatioBudget bounds the time one strategy variant gets in the
	// within-run strategy comparison of the traced dashboard run.
	RatioBudget time.Duration
	// Corrupt deliberately corrupts one expected result, to show that the
	// oracle rejects it (used by the smoke test).
	Corrupt bool
}

func (c config) window() time.Duration { return time.Duration(c.Seconds * float64(time.Second)) }

// metricVal is one emitted metric.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Pct is set for percentiles: their sample count and validity.
	Pct *pct `json:"pct,omitempty"`
}

// result is everything one run reports.
type result struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  []string
	metrics   map[string]metricVal
	report    map[string]any
}

func newResult() *result {
	return &result{metrics: map[string]metricVal{}, report: map[string]any{}}
}

func (r *result) set(name string, v float64) {
	r.metrics[name] = metricVal{Value: v, Unit: unitOf(name)}
}

func (r *result) setPct(name string, p pct) {
	r.metrics[name] = metricVal{Value: p.Value, Unit: unitOf(name), Pct: &p}
}

// fail records a failed operation; the first few messages are kept.
func (r *result) fail(n int64, msgs ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed += n
	for _, m := range msgs {
		if len(r.failures) < 10 {
			r.failures = append(r.failures, m)
		}
	}
}

func unitOf(name string) string {
	for _, d := range endToEnd {
		if d.Name == name {
			return d.Unit
		}
	}
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	return "?"
}

func main() {
	cfg := config{Setups: 9, Warmup: time.Second, ReplayCap: 4000, RatioBudget: 1500 * time.Millisecond}
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "dashboard, adhoc or ingest")
	flag.Int64Var(&cfg.Seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.Seconds, "seconds", 20, "length of a measured window, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.StringVar(&cfg.WorkDir, "workdir", ".bench_build", "directory for data directories and span dumps")
	flag.Parse()
	cfg.Trace = trace == 1
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		fatal(err)
	}
	abs, err := filepath.Abs(cfg.WorkDir)
	if err != nil {
		fatal(err)
	}
	cfg.WorkDir = abs
	// A run that has not finished by runLimit is stuck: print every
	// goroutine's stack, so the hang can be diagnosed, and fail.
	time.AfterFunc(runLimit, func() {
		buf := make([]byte, 1<<22)
		fmt.Fprintf(os.Stderr, "magicbench: no result after %v; goroutines:\n%s\n", runLimit, buf[:runtime.Stack(buf, true)])
		os.Exit(2)
	})
	res, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	if err := emit(os.Stdout, cfg, res); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "magicbench:", err)
	os.Exit(1)
}

// run executes one workload and fills in the metrics common to all.
func run(cfg config) (*result, error) {
	res := newResult()
	var err error
	switch cfg.Workload {
	case "dashboard":
		err = runDashboard(cfg, res)
	case "adhoc":
		err = runAdhoc(cfg, res)
	case "ingest":
		err = runIngest(cfg, res)
	default:
		err = fmt.Errorf("unknown --workload %q (want dashboard, adhoc or ingest)", cfg.Workload)
	}
	if err != nil {
		return nil, err
	}
	res.report["peak_rss_mb"] = procStatusMB("VmHWM")
	res.report["provenance"] = provenance(cfg, res)
	return res, nil
}

// emit prints the human-readable report and, last, the result line. A
// percentile that breaks the sample-count rule is not reported: a
// per-layer one reads 0 and is listed as invalid, and an end-to-end one
// fails the run.
func emit(w io.Writer, cfg config, res *result) error {
	out, invalid := collect(w, cfg, res)
	if len(invalid) > 0 {
		msg := fmt.Sprintf("fewer than %d samples beyond the reported percentile of %s", minBeyond, strings.Join(invalid, ", "))
		if !cfg.Trace {
			return fmt.Errorf("%s; lengthen --seconds", msg)
		}
		fmt.Fprintf(w, "invalid %s\n", msg)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// collect prints one line per metric of the run's kind (end-to-end, or
// per-layer with its tags), the report and the failures, and returns the
// metrics for the result line and the names of invalid percentiles. A
// metric the workload does not measure is reported as 0.
func collect(w io.Writer, cfg config, res *result) (map[string]metricVal, []string) {
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	out := map[string]metricVal{}
	var invalid []string
	fmt.Fprintf(w, "# magicbench workload=%s seed=%d seconds=%g trace=%v\n", cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace)
	for _, d := range defs {
		m, ok := res.metrics[d.Name]
		note := ""
		if !ok {
			m = metricVal{Value: 0, Unit: d.Unit}
			note = " (not on this workload's path)"
		}
		if m.Pct != nil {
			note += fmt.Sprintf(" [n=%d beyond=%d]", m.Pct.N, m.Pct.Beyond)
			if !m.Pct.Valid {
				invalid = append(invalid, d.Name)
				note += " INVALID, reported as 0"
				m.Value = 0
			}
		}
		if cfg.Trace {
			note += fmt.Sprintf(" moves %s on %s", d.Moves, d.On)
		}
		fmt.Fprintf(w, "metric %-40s %14.6g %-5s%s\n", d.Name, m.Value, d.Unit, note)
		out[d.Name] = metricVal{Value: m.Value, Unit: d.Unit}
	}
	if rep, err := json.Marshal(res.report); err == nil {
		fmt.Fprintf(w, "report %s\n", rep)
	}
	for _, f := range res.failures {
		fmt.Fprintf(w, "failure %s\n", f)
	}
	return out, invalid
}

// timedSetups runs setup n times and keeps the last instance; the others
// are torn down and collected before the next set-up starts, so that the
// peak RSS does not depend on when the collector ran. It returns the
// median set-up time in seconds.
func timedSetups[T any](n int, setup func(i int) (T, error), teardown func(T)) (T, float64, error) {
	var keep T
	var secs []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		inst, err := setup(i)
		if err != nil {
			return keep, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if i < n-1 {
			teardown(inst)
			runtime.GC()
		} else {
			keep = inst
		}
	}
	return keep, median(secs), nil
}

// Operation kinds of the closed loop.
const (
	opRead  = 0
	opWrite = 1
)

// sample is one completed operation.
type sample struct {
	Kind  int8
	Shape string
	Dur   time.Duration
}

// loopStats is one closed-loop window.
type loopStats struct {
	Samples   []sample
	Attempted int64
	Failed    int64
	Elapsed   time.Duration
	// PerClient counts the operations each client completed.
	PerClient []int
}

// closedLoop runs step from `clients` goroutines until d has passed; each
// client issues its next operation only after the previous one returns.
// step times its own operation, so request generation and result checks
// stay outside the latency.
func closedLoop(d time.Duration, step func(c int) (sample, error), res *result) loopStats {
	return loop(d, nil, step, res)
}

// closedLoopN is closedLoop with a fixed number of operations per client
// instead of a duration.
func closedLoopN(counts []int, step func(c int) (sample, error), res *result) loopStats {
	return loop(0, counts, step, res)
}

func loop(d time.Duration, counts []int, step func(c int) (sample, error), res *result) loopStats {
	var wg sync.WaitGroup
	per := make([]loopStats, clients)
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &per[c]
			more := func() bool {
				if counts != nil {
					return st.Attempted < int64(counts[c])
				}
				return time.Now().Before(deadline)
			}
			for more() {
				s, err := step(c)
				st.Attempted++
				if err != nil {
					st.Failed++
					res.fail(0, fmt.Sprintf("client %d: %v", c, err))
					continue
				}
				st.Samples = append(st.Samples, s)
			}
		}(c)
	}
	wg.Wait()
	out := loopStats{Elapsed: time.Since(start)}
	for _, st := range per {
		out.Samples = append(out.Samples, st.Samples...)
		out.Attempted += st.Attempted
		out.Failed += st.Failed
		out.PerClient = append(out.PerClient, len(st.Samples))
	}
	return out
}

// count adds a window's operations to the run's attempted/failed totals.
func (r *result) count(ls loopStats) {
	r.mu.Lock()
	r.attempted += ls.Attempted
	r.failed += ls.Failed
	r.mu.Unlock()
}

// latencies returns the latencies, in milliseconds, of the samples of one
// kind.
func (ls loopStats) latencies(kind int8) []float64 {
	var out []float64
	for _, s := range ls.Samples {
		if s.Kind == kind {
			out = append(out, float64(s.Dur)/1e6)
		}
	}
	return out
}

func (ls loopStats) opsPerSec() float64 {
	return float64(len(ls.Samples)) / ls.Elapsed.Seconds()
}

// endToEndMetrics sets ops_per_s, the read and write percentiles and
// failed_frac of an untraced window.
func endToEndMetrics(res *result, ls loopStats) {
	res.set("ops_per_s", ls.opsPerSec())
	reads := ls.latencies(opRead)
	res.setPct("read_p50_ms", percentile(reads, 0.50))
	res.setPct("read_p99_ms", percentile(reads, 0.99))
	if writes := ls.latencies(opWrite); len(writes) > 0 {
		res.setPct("write_p50_ms", percentile(writes, 0.50))
		res.setPct("write_p99_ms", percentile(writes, 0.99))
	}
	res.set("failed_frac", ratio(float64(ls.Failed), float64(ls.Attempted)))
	res.report["window"] = map[string]any{
		"seconds": ls.Elapsed.Seconds(), "attempted": ls.Attempted, "failed": ls.Failed,
		"reads": len(reads), "writes": len(ls.Samples) - len(reads), "per_client": ls.PerClient,
	}
}

// shapeShares is each shape's share of the total request time of a window.
func shapeShares(ls loopStats) map[string]float64 {
	tot := map[string]float64{}
	all := 0.0
	for _, s := range ls.Samples {
		tot[s.Shape] += s.Dur.Seconds()
		all += s.Dur.Seconds()
	}
	for k := range tot {
		tot[k] = math.Round(tot[k]/all*1e4) / 1e4
	}
	return tot
}

// procStatusMB reads one memory field of /proc/self/status (VmRSS,
// VmHWM), in MB.
func procStatusMB(field string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field+":" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// sampleRSS samples the resident set size every 50 ms until the returned
// function is called, which stops the sampler and returns the median in
// MB. The median, not the peak (VmHWM), is the gated figure: the peak
// depends on how far the heap overshoots its goal while both clients
// keep the collector short of CPU, and varied from 29 to 44 MB between
// identical dashboard runs.
func sampleRSS() (stop func() float64) {
	stopC := make(chan struct{})
	done := make(chan []float64)
	go func() {
		var xs []float64
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopC:
				done <- xs
				return
			case <-t.C:
				xs = append(xs, procStatusMB("VmRSS"))
			}
		}
	}()
	return func() float64 {
		close(stopC)
		return median(<-done)
	}
}

// filesystem names the filesystem type the directory lives on, from the
// longest matching mount point in /proc/mounts.
func filesystem(dir string) string {
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, f[2]
		}
	}
	return fs
}

func provenance(cfg config, res *result) map[string]any {
	fsync := "none (in-memory database)"
	if cfg.Workload == "ingest" {
		fsync = "SyncCommit (fsync before each commit acknowledgment, group commit)"
	}
	keys := make([]string, 0, len(res.metrics))
	for k := range res.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	pcts := map[string]any{}
	for _, k := range keys {
		if p := res.metrics[k].Pct; p != nil {
			pcts[k] = p
		}
	}
	return map[string]any{
		"workload":    cfg.Workload,
		"seed":        cfg.Seed,
		"seconds":     cfg.Seconds,
		"num_cpu":     runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"clients":     clients,
		"fsync":       fsync,
		"filesystem":  filesystem(cfg.WorkDir),
		"setups":      cfg.Setups,
		"percentiles": pcts,
	}
}

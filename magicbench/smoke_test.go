package main

// The benchmark's own smoke test: each workload runs briefly, untraced and
// traced. It checks that every metric BENCHMARK.json names is emitted,
// that the workloads a per-layer metric is tagged with really measure it,
// that no operation failed, and that each workload's oracle rejects a
// deliberately corrupted expected result.
//
//	cd magicbench && go test ./...

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func smokeConfig(t *testing.T, workload string, trace bool) config {
	return config{
		Workload: workload, Seed: 7, Seconds: 1, Trace: trace, WorkDir: t.TempDir(),
		Setups: 1, Warmup: 100 * time.Millisecond, ReplayCap: 200, RatioBudget: 20 * time.Millisecond,
	}
}

// TestCatalogMatchesSpec keeps the metric catalog and BENCHMARK.json in
// step.
func TestCatalogMatchesSpec(t *testing.T) {
	spec := readSpec(t)
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the catalog %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalog %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readSpec(t)
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := smokeConfig(t, w.Name, trace)
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w.Name, trace, res.failed, res.attempted, res.failures)
			}
			if v := res.metrics["failed_frac"].Value; v != 0 {
				t.Errorf("%s trace=%v: failed_frac = %v", w.Name, trace, v)
			}
			out, _ := collect(io.Discard, cfg, res)
			defs := spec.EndToEnd
			if trace {
				defs = spec.PerLayer
			}
			for _, d := range defs {
				if _, ok := out[d.Name]; !ok {
					t.Errorf("%s trace=%v: metric %s not emitted", w.Name, trace, d.Name)
				}
				if !trace {
					if _, ok := res.metrics[d.Name]; !ok {
						t.Errorf("%s: end-to-end metric %s not measured", w.Name, d.Name)
					}
				}
			}
			if !trace {
				continue
			}
			for _, d := range perLayer {
				if strings.Contains(d.On, w.Name) {
					if _, ok := res.metrics[d.Name]; !ok {
						t.Errorf("%s: per-layer metric %s is tagged with this workload but not measured", w.Name, d.Name)
					}
				}
			}
		}
	}
}

// TestOracleRejectsCorruption runs each workload against a corrupted
// expected result: the run must count failures.
func TestOracleRejectsCorruption(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range readSpec(t).Workloads {
		cfg := smokeConfig(t, w.Name, false)
		cfg.Corrupt = true
		res, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.failed == 0 {
			t.Errorf("%s: the oracle accepted a corrupted expected result", w.Name)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p := percentile(append([]float64(nil), xs...), 0.5); p.Value != 50 || p.Beyond != 50 || !p.Valid {
		t.Errorf("p50 = %+v", p)
	}
	if p := percentile(append([]float64(nil), xs...), 0.99); p.Value != 99 || p.Beyond != 1 || p.Valid {
		t.Errorf("p99 of 100 samples = %+v, want invalid", p)
	}
}

func TestCompareRows(t *testing.T) {
	want := [][]string{{"a", "1.5"}, {"b", "2"}}
	if err := compareRows([][]string{{"b", "2"}, {"a", "1.5000000000001"}}, want); err != nil {
		t.Errorf("reordered rows with a float rounding difference: %v", err)
	}
	if err := compareRows([][]string{{"a", "1.5"}, {"b", "3"}}, want); err == nil {
		t.Error("a changed value was accepted")
	}
	if err := compareRows([][]string{{"a", "1.5"}}, want); err == nil {
		t.Error("a missing row was accepted")
	}
}

// TestParamFormsMatchPaper checks that each placeholder shape, bound to
// the paper's constants, is the paper's literal query.
func TestParamFormsMatchPaper(t *testing.T) {
	norm := func(s string) string { return strings.Join(strings.Fields(s), " ") }
	for id, s := range shapes(tableOneSize) {
		if got, want := norm(inline(s.Param, s.PaperArgs)), norm(s.Literal); got != want {
			t.Errorf("%s: %q, want %q", id, got, want)
		}
	}
}

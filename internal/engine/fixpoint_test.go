package engine

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"starmagic/internal/datum"
	"starmagic/internal/plan"
)

// dashboardGraphDB loads the transitive-closure graph of the dashboard
// benchmark workload: chains of 12 nodes (node c*1000+i, edge i -> i+1),
// each with one skip edge drawn from rng when rng is non-nil, over the
// edge table and tc view of the benchmark schema.
func dashboardGraphDB(t *testing.T, chains int, rng *rand.Rand) *Database {
	t.Helper()
	db := New()
	if _, err := db.Exec(`
	CREATE TABLE edge (src INT, dst INT, PRIMARY KEY (src, dst));
	CREATE INDEX edge_src ON edge (src);
	CREATE VIEW tc (src, dst) AS
	  SELECT src, dst FROM edge
	  UNION
	  SELECT t.src, e.dst FROM tc t, edge e WHERE t.dst = e.src;`); err != nil {
		t.Fatal(err)
	}
	const chainLen = 12
	var edges []datum.Row
	for c := 0; c < chains; c++ {
		for i := 0; i+1 < chainLen; i++ {
			edges = append(edges, datum.Row{datum.Int(int64(c*1000 + i)), datum.Int(int64(c*1000 + i + 1))})
		}
		if rng != nil {
			from := rng.Intn(chainLen - 3)
			to := from + 2 + rng.Intn(chainLen-from-2)
			edges = append(edges, datum.Row{datum.Int(int64(c*1000 + from)), datum.Int(int64(c*1000 + to))})
		}
	}
	if err := db.InsertRows("edge", edges); err != nil {
		t.Fatal(err)
	}
	return db
}

// fixpointReport returns the executed plan's fixpoint operator.
func fixpointReport(t *testing.T, res *Result) plan.OpReport {
	t.Helper()
	for _, op := range res.Plan.Operators {
		if op.Kind == "fixpoint" {
			return op
		}
	}
	t.Fatalf("no fixpoint operator in plan:\n%s", res.Plan.Physical())
	return plan.OpReport{}
}

// TestFixpointWorkBoundTC pins the work of the bound transitive closure the
// dashboard workload runs. Under EMST the exit branch is seeded with the
// magic table and each round extends only the previous round's rows, so
// the fixpoint reads no base rows and builds no hash table: one index probe
// finds the seed and one probe per new row extends it. The work depends on
// the reached rows alone — ten times as many unrelated chains change no
// counter.
func TestFixpointWorkBoundTC(t *testing.T) {
	const query = "SELECT dst FROM tc WHERE src = ?"
	run := func(db *Database, opts ...QueryOption) *Result {
		t.Helper()
		res, err := db.QueryContext(context.Background(), query,
			append([]QueryOption{WithArgs(7000)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// A plain chain adds one row per round.
	db := dashboardGraphDB(t, 20, nil)
	res := run(db, WithStrategy(EMST))
	if !res.Plan.UsedEMST {
		t.Fatal("EMST plan not chosen")
	}
	c := res.Plan.Counters
	rounds := fixpointReport(t, res).Rounds
	if len(res.Rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(res.Rows))
	}
	if c.BaseRows != 0 || c.HashBuilds != 0 {
		t.Errorf("BaseRows=%d HashBuilds=%d, want 0 and 0", c.BaseRows, c.HashBuilds)
	}
	if rounds == 0 || c.IndexLookups > rounds+1 {
		t.Errorf("IndexLookups=%d over %d rounds, want at most rounds+1", c.IndexLookups, rounds)
	}
	big := dashboardGraphDB(t, 200, nil)
	if got := run(big, WithStrategy(EMST)).Plan.Counters; got != c {
		t.Errorf("counters depend on unrelated chains:\n 20 chains %+v\n200 chains %+v", c, got)
	}

	// With the benchmark's skip edges a round may add two rows; the probes
	// stay one per reached row plus the seed's.
	db = dashboardGraphDB(t, 20, rand.New(rand.NewSource(2)))
	res = run(db, WithStrategy(EMST))
	c = res.Plan.Counters
	if c.BaseRows != 0 || c.HashBuilds != 0 || c.IndexLookups != int64(len(res.Rows))+1 {
		t.Errorf("skip-edge graph: %+v for %d rows, want no base rows or hash builds and rows+1 lookups", c, len(res.Rows))
	}
	big = dashboardGraphDB(t, 200, rand.New(rand.NewSource(2)))
	if got := run(big, WithStrategy(EMST)).Plan.Counters; got != c {
		t.Errorf("skip-edge counters depend on unrelated chains:\n 20 chains %+v\n200 chains %+v", c, got)
	}

	// Original computes the whole closure semi-naively; the naive
	// reference must agree row for row.
	orig := run(db, WithStrategy(Original))
	mat := run(db, WithStrategy(Original), WithMaterialized())
	if got, want := strings.Join(rowsAsStrings(orig), ";"), strings.Join(rowsAsStrings(mat), ";"); got != want {
		t.Errorf("Original streaming disagrees with materialized:\ngot  %s\nwant %s", got, want)
	}
	if canonical(orig) != canonical(res) {
		t.Errorf("Original and EMST disagree")
	}
}

// TestFixpointPlanVisible: both forms of the bound closure choose the magic
// plan, and the executed plan shows the fixpoint with its seed and delta
// trees and the rounds it ran. A non-linear view keeps the naive bridge.
func TestFixpointPlanVisible(t *testing.T) {
	db := dashboardGraphDB(t, 20, rand.New(rand.NewSource(2)))
	for _, q := range []struct {
		sql  string
		args []any
	}{
		{"SELECT dst FROM tc WHERE src = 7000", nil},
		{"SELECT dst FROM tc WHERE src = ?", []any{7000}},
	} {
		res, err := db.QueryContext(context.Background(), q.sql, WithArgs(q.args...))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Plan.UsedEMST {
			t.Errorf("%s: EMST not chosen (%v vs %v)", q.sql, res.Plan.CostBefore, res.Plan.CostAfter)
		}
		phys := res.Plan.Physical()
		for _, want := range []string{"fixpoint TC [semi-naive]", "seed: ", "delta: ", "delta TC", "rounds="} {
			if !strings.Contains(phys, want) {
				t.Errorf("%s: physical plan lacks %q:\n%s", q.sql, want, phys)
			}
		}
	}

	if _, err := db.Exec(`CREATE VIEW tcn (src, dst) AS
	  SELECT src, dst FROM edge
	  UNION
	  SELECT a.src, b.dst FROM tcn a, tcn b WHERE a.dst = b.src`); err != nil {
		t.Fatal(err)
	}
	res, err := db.QueryContext(context.Background(), "SELECT dst FROM tcn WHERE src = 7000")
	if err != nil {
		t.Fatal(err)
	}
	if phys := res.Plan.Physical(); !strings.Contains(phys, "naive, bridged: non-linear") {
		t.Errorf("non-linear view not bridged:\n%s", phys)
	}
	ref, err := db.QueryContext(context.Background(), "SELECT dst FROM tc WHERE src = 7000")
	if err != nil {
		t.Fatal(err)
	}
	if canonical(res) != canonical(ref) {
		t.Errorf("non-linear closure %v, linear %v", rowsAsStrings(res), rowsAsStrings(ref))
	}
}

// TestFixpointBuildOncePerExecution: the delta tree's join into edge has no
// index on src alone (only the (src, dst) key), so the probe downgrades to a
// hash build. The build is made once per execution and serves every round:
// a chain three times as long runs three times as many rounds on the same
// number of builds.
func TestFixpointBuildOncePerExecution(t *testing.T) {
	builds := func(chainLen int) (int64, int64) {
		db := New()
		if _, err := db.Exec(`
		CREATE TABLE edge (src INT, dst INT, PRIMARY KEY (src, dst));
		CREATE VIEW tc (src, dst) AS
		  SELECT src, dst FROM edge
		  UNION
		  SELECT t.src, e.dst FROM tc t, edge e WHERE t.dst = e.src;`); err != nil {
			t.Fatal(err)
		}
		var edges []datum.Row
		for i := 0; i+1 < chainLen; i++ {
			edges = append(edges, datum.Row{datum.Int(int64(i)), datum.Int(int64(i + 1))})
		}
		if err := db.InsertRows("edge", edges); err != nil {
			t.Fatal(err)
		}
		for _, s := range []Strategy{Original, EMST} {
			res, err := db.QueryContext(context.Background(), "SELECT dst FROM tc WHERE src = 0", WithStrategy(s))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != chainLen-1 {
				t.Fatalf("%v: %d rows, want %d", s, len(res.Rows), chainLen-1)
			}
			if s == EMST {
				return res.Plan.Counters.HashBuilds, fixpointReport(t, res).Rounds
			}
		}
		return 0, 0
	}
	b1, r1 := builds(12)
	b3, r3 := builds(36)
	if r3 < 3*r1-3 {
		t.Fatalf("rounds %d -> %d: the longer chain should take about three times as many", r1, r3)
	}
	if b1 == 0 || b1 != b3 {
		t.Errorf("hash builds %d (%d rounds) vs %d (%d rounds): want the same non-zero count", b1, r1, b3, r3)
	}
}

// TestFixpointMatchesNaiveReference runs the streaming operator and the
// box-at-a-time naive iteration side by side at the exec level over the
// same lowered plan, including a second reference to the fixpoint from
// outside, which must be computed once.
func TestFixpointMatchesNaiveReference(t *testing.T) {
	db := dashboardGraphDB(t, 5, rand.New(rand.NewSource(7)))
	const query = `SELECT a.src, b.dst FROM tc a, tc b WHERE a.dst = b.src AND a.src = 3000`
	stream, err := db.QueryContext(context.Background(), query, WithStrategy(Original))
	if err != nil {
		t.Fatal(err)
	}
	mat, err := db.QueryContext(context.Background(), query, WithStrategy(Original), WithMaterialized())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(rowsAsStrings(stream), ";"), strings.Join(rowsAsStrings(mat), ";"); got != want {
		t.Fatalf("streaming disagrees with the naive reference:\ngot  %s\nwant %s", got, want)
	}
	var fix []plan.OpReport
	for _, op := range stream.Plan.Operators {
		if op.Kind == "fixpoint" {
			fix = append(fix, op)
		}
	}
	if len(fix) != 2 || fix[0].Rounds+fix[1].Rounds == 0 || fix[0].Rounds*fix[1].Rounds != 0 {
		t.Errorf("want two fixpoint references, one computed and one served from the memo; got %+v", fix)
	}
}

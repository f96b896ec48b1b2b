package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"starmagic/internal/bench"
	"starmagic/internal/datum"
	"starmagic/internal/engine"
)

// The Table-1 schema at a small scale, plus a chain graph for the
// recursive tc view.
var variantDBConfig = bench.Config{Departments: 150, EmpsPerDept: 10, SalesPerDept: 30, OrdersPerDept: 30, Seed: 1994}

const variantGraphDDL = `
CREATE TABLE edge (src INT, dst INT, PRIMARY KEY (src, dst));
CREATE INDEX edge_src ON edge (src);
CREATE VIEW tc (src, dst) AS
  SELECT src, dst FROM edge
  UNION
  SELECT t.src, e.dst FROM tc t, edge e WHERE t.dst = e.src;
`

func newVariantDB(t *testing.T) *engine.Database {
	t.Helper()
	db, err := bench.NewDB(variantDBConfig)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(variantGraphDDL); err != nil {
		t.Fatal(err)
	}
	var edges []datum.Row
	for c := int64(0); c < 10; c++ {
		for i := int64(0); i < 8; i++ {
			edges = append(edges, datum.Row{datum.Int(c*1000 + i), datum.Int(c*1000 + i + 1)})
		}
		edges = append(edges, datum.Row{datum.Int(c * 1000), datum.Int(c*1000 + 5)})
	}
	if err := db.InsertRows("edge", edges); err != nil {
		t.Fatal(err)
	}
	db.Analyze()
	return db
}

// variantShape is a Table-1 shape in `?` form with the bindings the oracle
// draws from: its domain plus boundary values and NULL.
type variantShape struct {
	id, query string
	draw      func(r *rand.Rand) []any
}

func pickOf(vals ...any) func(r *rand.Rand) any {
	return func(r *rand.Rand) any { return vals[r.Intn(len(vals))] }
}

func intIn(lo, hi int, edges ...any) func(r *rand.Rand) any {
	return func(r *rand.Rand) any {
		if len(edges) > 0 && r.Intn(3) == 0 {
			return edges[r.Intn(len(edges))]
		}
		return lo + r.Intn(hi-lo+1)
	}
}

func one(f func(r *rand.Rand) any) func(r *rand.Rand) []any {
	return func(r *rand.Rand) []any { return []any{f(r)} }
}

var variantShapes = []variantShape{
	{"A", `SELECT d.deptname, v.avgsal FROM department d, avgSalary v
		WHERE d.deptno = v.workdept AND d.deptname = ?`,
		one(pickOf("Planning", "Dept-001", "Dept-150", "Nowhere", nil))},
	{"B", `SELECT e.empname, v.total FROM employee e, deptSales v
		WHERE e.workdept = v.deptno AND e.empno < ?`,
		one(intIn(1001, 150010, 1010, 1030, 1040, 0, 1001, 150010, 150011, -5, nil))},
	{"C", `SELECT d.deptname, v.total FROM department d, deptOrders v
		WHERE d.deptno = v.deptno AND d.deptno < ?`,
		one(intIn(1, 150, 3, 7, 12, 0, 1, 150, 151, nil))},
	{"D", `SELECT d.deptname, v.total FROM department d, deptOrdersJ v
		WHERE d.deptno = v.deptno AND d.deptno <= ?`,
		one(intIn(1, 150, 100, 120, 130, 0, 150, 500, nil))},
	{"E", `SELECT e.empname, v.total FROM employee e, deptSales v
		WHERE e.workdept = v.deptno AND (e.empno < ? OR e.empno > ?)`,
		func(r *rand.Rand) []any {
			lo := intIn(1001, 150010, 1013, 1001, 0, nil)(r)
			hi := intIn(1001, 150010, 149000, 150010, 150011, nil)(r)
			return []any{lo, hi}
		}},
	{"F", `SELECT d.deptname, v.headcount FROM department d, avgSalary v
		WHERE d.deptno = v.workdept AND d.deptno = ?`,
		one(intIn(1, 150, 0, 151, nil))},
	{"G", `SELECT d.deptname, v.deptno, v.avgamount FROM department d, deptAvgSales v
		WHERE d.deptno = v.deptno AND d.deptname = ?`,
		one(pickOf("Planning", "Dept-003", "Nowhere", nil))},
	{"H", `SELECT v.region, v.totalsal FROM regionPay v
		WHERE v.region = ?`,
		one(pickOf("R00", "R03", "R09", "R99", nil))},
	{"TC", `SELECT dst FROM tc WHERE src = ?`,
		one(intIn(0, 9008, 0, 3000, 3004, 9008, 77, nil))},
}

// inlineArgs substitutes SQL literals for the `?` placeholders of q.
func inlineArgs(q string, args []any) string {
	var b strings.Builder
	k := 0
	for i := 0; i < len(q); i++ {
		if q[i] != '?' {
			b.WriteByte(q[i])
			continue
		}
		switch v := args[k].(type) {
		case nil:
			b.WriteString("NULL")
		case string:
			b.WriteString("'" + v + "'")
		default:
			fmt.Fprint(&b, v)
		}
		k++
	}
	return b.String()
}

func sortedRows(rows []datum.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, d := range r {
			parts[j] = d.Format()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// TestVariantOracle runs every Table-1 shape and the tc view in `?` form
// with random bindings from its domain, boundary values and NULL included,
// and checks each result against the literal query under Original. It runs
// under every strategy and on the row and vectorized executors, and no
// statement may hold more than eight plan variants.
func TestVariantOracle(t *testing.T) {
	db := newVariantDB(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(12))
	const draws = 10
	type draw struct {
		args []any
		want []string
	}
	refs := map[string][]draw{}
	for _, s := range variantShapes {
		for i := 0; i < draws; i++ {
			args := s.draw(rng)
			ref, err := db.QueryContext(ctx, inlineArgs(s.query, args), engine.WithStrategy(engine.Original))
			if err != nil {
				t.Fatalf("%s%v literal: %v", s.id, args, err)
			}
			refs[s.id] = append(refs[s.id], draw{args, sortedRows(ref.Rows)})
		}
	}
	for _, vecOn := range []bool{false, true} {
		db.SetVectorized(vecOn)
		for _, st := range []engine.Strategy{engine.EMST, engine.Original, engine.Correlated} {
			// Empty the plan cache so each executor mode builds its own
			// variants.
			db.SetPlanCache(false)
			db.SetPlanCache(true)
			for _, s := range variantShapes {
				p, err := db.PrepareContext(ctx, s.query, engine.WithStrategy(st))
				if err != nil {
					t.Fatalf("%s %v: %v", s.id, st, err)
				}
				for _, d := range refs[s.id] {
					res, err := p.ExecuteContext(ctx, d.args...)
					if err != nil {
						t.Fatalf("%s%v %v vec=%v: %v", s.id, d.args, st, vecOn, err)
					}
					if got := sortedRows(res.Rows); strings.Join(got, ";") != strings.Join(d.want, ";") {
						t.Fatalf("%s%v %v vec=%v (variant %q): got %v, want %v",
							s.id, d.args, st, vecOn, res.Plan.Variant, got, d.want)
					}
					if st == engine.Correlated && res.Plan.Variant != "" {
						t.Fatalf("%s %v ran variant %q; correlated runs keep the generic plan", s.id, st, res.Plan.Variant)
					}
				}
				if n := engine.VariantCount(p); n > 8 {
					t.Fatalf("%s %v holds %d variants, cap is 8", s.id, st, n)
				}
			}
		}
	}
}

// TestVariantOverflow sweeps one range comparison across every selectivity
// class: the statement stops at eight variants, later classes run the
// generic plan, and every result stays correct.
func TestVariantOverflow(t *testing.T) {
	db := newVariantDB(t)
	ctx := context.Background()
	q := variantShapes[1].query // B: e.empno < ?
	p, err := db.PrepareContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	before := db.Metrics()
	classes := map[string]bool{}
	generic := 0
	for _, bound := range []int{1001, 1005, 2001, 3001, 5001, 9001, 17001, 33001, 65001, 100001, 130001, 150011} {
		res, err := p.ExecuteContext(ctx, bound)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := db.QueryContext(ctx, inlineArgs(q, []any{bound}), engine.WithStrategy(engine.Original))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sortedRows(res.Rows), sortedRows(ref.Rows); strings.Join(got, ";") != strings.Join(want, ";") {
			t.Fatalf("binding %d: got %d rows, want %d", bound, len(got), len(want))
		}
		if res.Plan.Variant == "" {
			generic++
		} else {
			classes[res.Plan.Variant] = true
		}
	}
	m := db.Metrics()
	if n := engine.VariantCount(p); n != 8 || len(classes) != 8 {
		t.Fatalf("variants held %d, classes run %d; want 8 and 8", n, len(classes))
	}
	if over := m.VariantOverflow - before.VariantOverflow; generic == 0 || over != int64(generic) {
		t.Fatalf("generic runs %d, overflow counter %d; want equal and > 0", generic, over)
	}
	if miss := m.VariantMisses - before.VariantMisses; miss != 8 {
		t.Fatalf("variant misses %d, want 8", miss)
	}
}

// TestVariantPlanChoice checks the §3.2 choice per binding: the `?` forms
// of B and E run their magic plans and D its pre-EMST plan, each making
// the same choice as its literal query.
func TestVariantPlanChoice(t *testing.T) {
	db := newVariantDB(t)
	ctx := context.Background()
	for _, c := range []struct {
		shape    int
		args     []any
		wantEMST bool
	}{
		{1, []any{1030}, true},
		{4, []any{1013, 149000}, true},
		{3, []any{120}, false},
	} {
		s := variantShapes[c.shape]
		p, err := db.PrepareContext(ctx, s.query)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.ExecuteContext(ctx, c.args...)
		if err != nil {
			t.Fatal(err)
		}
		lit, err := db.QueryContext(ctx, inlineArgs(s.query, c.args))
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan.UsedEMST != c.wantEMST || lit.Plan.UsedEMST != c.wantEMST {
			t.Errorf("%s%v: `?` form UsedEMST=%v (variant %q), literal %v; want %v",
				s.id, c.args, res.Plan.UsedEMST, res.Plan.Variant, lit.Plan.UsedEMST, c.wantEMST)
		}
		if res.Plan.Variant == "" {
			t.Errorf("%s%v: PlanInfo names no variant", s.id, c.args)
		}
	}
}

// TestVariantSharedAndSingleFlight runs one new class from many goroutines
// through two prepares of the same text: the plan cache's copies share one
// variant set, and the class is optimized exactly once.
func TestVariantSharedAndSingleFlight(t *testing.T) {
	db := newVariantDB(t)
	ctx := context.Background()
	q := variantShapes[2].query // C: d.deptno < ?
	p1, err := db.PrepareContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := db.PrepareContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	before := db.Metrics()
	var wg sync.WaitGroup
	names := make([]string, 16)
	for i := range names {
		p := p1
		if i%2 == 1 {
			p = p2
		}
		wg.Add(1)
		go func(i int, p *engine.Prepared) {
			defer wg.Done()
			res, err := p.ExecuteContext(ctx, 7)
			if err != nil {
				t.Error(err)
				return
			}
			names[i] = res.Plan.Variant
		}(i, p)
	}
	wg.Wait()
	m := db.Metrics()
	if miss, hit := m.VariantMisses-before.VariantMisses, m.VariantHits-before.VariantHits; miss != 1 || hit != 15 {
		t.Fatalf("misses %d, hits %d; want 1 and 15", miss, hit)
	}
	for _, n := range names {
		if n == "" || n != names[0] {
			t.Fatalf("variants run: %q", names)
		}
	}
	if engine.VariantCount(p1) != 1 || engine.VariantCount(p2) != 1 {
		t.Fatalf("variant counts %d, %d; want one shared variant", engine.VariantCount(p1), engine.VariantCount(p2))
	}
}

// TestVariantScope checks which statements take the variant path: only
// those with a comparison between a column and a `?` under a strategy that
// runs the §3.2 pipeline.
func TestVariantScope(t *testing.T) {
	db := newVariantDB(t)
	ctx := context.Background()
	for _, c := range []struct {
		query string
		opts  []engine.QueryOption
		want  bool
	}{
		{variantShapes[1].query, nil, true},
		{variantShapes[1].query, []engine.QueryOption{engine.WithStrategy(engine.Original)}, true},
		{variantShapes[1].query, []engine.QueryOption{engine.WithStrategy(engine.Correlated)}, false},
		{`SELECT d.deptname FROM department d WHERE d.deptno < 7`, nil, false},
		{`SELECT d.deptno + ? FROM department d`, nil, false},
	} {
		p, err := db.PrepareContext(ctx, c.query, c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if got := engine.HasVariantSet(p); got != c.want {
			t.Errorf("%q: variant set %v, want %v", c.query, got, c.want)
		}
	}
}

// TestVariantStaleAfterDDL redefines a view under a held statement: the
// statement keeps running the plans it was prepared with, and a binding
// class first seen after the change runs the generic plan instead of a
// variant bound to the new definition.
func TestVariantStaleAfterDDL(t *testing.T) {
	db := newVariantDB(t)
	ctx := context.Background()
	if _, err := db.Exec(`CREATE VIEW lowEmp (empno, empname) AS SELECT empno, empname FROM employee`); err != nil {
		t.Fatal(err)
	}
	q := `SELECT l.empname FROM lowEmp l WHERE l.empno < ?`
	p, err := db.PrepareContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.ExecuteContext(ctx, 1005)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Variant == "" || len(res.Rows) != 4 {
		t.Fatalf("before DDL: variant %q, %d rows; want a variant and 4 rows", res.Plan.Variant, len(res.Rows))
	}
	if _, err := db.Exec(`DROP VIEW lowEmp; CREATE VIEW lowEmp (empno, empname) AS SELECT empno, empname FROM employee WHERE empno < 0`); err != nil {
		t.Fatal(err)
	}
	before := db.Metrics()
	for _, bound := range []int{1005, 100000} {
		res, err := p.ExecuteContext(ctx, bound)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("binding %d ran the redefined view (variant %q)", bound, res.Plan.Variant)
		}
	}
	m := db.Metrics()
	if over := m.VariantOverflow - before.VariantOverflow; over != 1 {
		t.Fatalf("overflow counter moved by %d, want 1", over)
	}
	if n := engine.VariantCount(p); n != 1 {
		t.Fatalf("statement holds %d variants after DDL, want 1", n)
	}
}

package plan_test

import (
	"reflect"
	"strings"
	"testing"

	"starmagic/internal/catalog"
	"starmagic/internal/core"
	"starmagic/internal/datum"
	"starmagic/internal/exec"
	"starmagic/internal/plan"
	"starmagic/internal/qgm"
	"starmagic/internal/testutil"
)

func paperDB(t *testing.T) *testutil.DB {
	t.Helper()
	db, err := testutil.PaperSchema()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadPaperData(20, 6); err != nil {
		t.Fatal(err)
	}
	return db
}

// lowerEMST runs the query through the full pipeline with EMST forced and
// returns the lowered plan.
func lowerEMST(t *testing.T, db *testutil.DB, query string) *plan.Plan {
	t.Helper()
	g, err := db.Build(query)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Optimize(g, core.Options{ForceEMST: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.UsedEMST {
		t.Fatalf("EMST not applied to %q", query)
	}
	return res.Physical
}

// refs counts, per node, the references its parents hold: children, stage
// inputs and subquery inputs (a stage or subquery child is also listed in
// Children, so Children alone counts every edge).
func refs(p *plan.Plan) map[*plan.Node]int {
	out := map[*plan.Node]int{}
	for _, n := range p.Nodes {
		for _, c := range n.Children {
			out[c]++
		}
	}
	return out
}

// evalRows executes the plan on the streaming executor and renders the rows
// sorted.
func evalRows(t *testing.T, db *testutil.DB, p *plan.Plan) []string {
	t.Helper()
	rows, _, err := exec.New(db.Store).EvalPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	return testutil.RenderRows(rows)
}

// TestSharedBoxSpooledOnce: the supplementary-magic box of query D is read
// by the query and by the magic box of the view; it lowers to exactly one
// spool node that both reference, and nothing is bridged as shared.
func TestSharedBoxSpooledOnce(t *testing.T) {
	db := paperDB(t)
	p := lowerEMST(t, db, testutil.QueryD)
	n := refs(p)
	perBox := map[*qgm.Box]int{}
	for _, x := range p.Nodes {
		switch x.Kind {
		case plan.OpSpool:
			perBox[x.Box]++
			if n[x] < 2 {
				t.Errorf("spool %s has %d readers, want at least 2", x.Label, n[x])
			}
			if len(x.Children) != 1 || x.Children[0].Box != x.Box || !x.Children[0].BoxRoot {
				t.Errorf("spool %s: body is not its box's root operator", x.Label)
			}
		case plan.OpBoxEval:
			if x.Detail == "shared" {
				t.Errorf("shared box %s bridged", x.Label)
			}
		}
	}
	if len(perBox) == 0 {
		t.Fatalf("no spool in the magic plan:\n%s", p)
	}
	for b, k := range perBox {
		if k != 1 {
			t.Errorf("box %s lowered to %d spools", b.Name, k)
		}
	}
	want, _, err := db.Eval(p.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if got := evalRows(t, db, p); !reflect.DeepEqual(got, want) {
		t.Fatalf("spooled plan rows %v, evaluator %v", got, want)
	}

	// EXPLAIN shows the body once; later references are marked.
	text := p.String()
	if strings.Count(text, "[reused]") == 0 {
		t.Fatalf("later spool references not marked:\n%s", text)
	}
	reports := p.Report(nil)
	seen := map[int]bool{}
	for _, r := range reports {
		if r.Kind != "spool" {
			continue
		}
		if r.Reused != seen[r.ID] {
			t.Fatalf("spool #%d: Reused=%v at a reference after %v earlier ones", r.ID, r.Reused, seen[r.ID])
		}
		seen[r.ID] = true
	}
}

// TestIndexAccessOnlyWithIndex: an equality stage probes an index only when
// the table has one over exactly the key columns. employee has indexes on
// empno and workdept, department on deptno.
func TestIndexAccessOnlyWithIndex(t *testing.T) {
	db := paperDB(t)
	cases := []struct {
		query string
		want  []plan.AccessKind // stage access paths of the top select
	}{
		{"SELECT deptname FROM department WHERE deptno = 3", []plan.AccessKind{plan.AccessIndex}},
		{"SELECT deptno FROM department WHERE deptname = 'Planning'", []plan.AccessKind{plan.AccessStream}},
		{"SELECT e.empname FROM department d, employee e WHERE d.mgrno = e.empno",
			[]plan.AccessKind{plan.AccessStream, plan.AccessIndex}},
		{"SELECT e.empname FROM employee e, department d WHERE e.empno = d.mgrno",
			[]plan.AccessKind{plan.AccessStream, plan.AccessHash}},
		// The keys are (workdept, salary): an index over a subset of
		// them does not count.
		{"SELECT e.empname FROM department d, employee e WHERE d.deptno = e.workdept AND e.salary = 500",
			[]plan.AccessKind{plan.AccessStream, plan.AccessHash}},
		{"SELECT e.empname FROM department d, employee e WHERE d.deptno = e.workdept AND e.salary > 500",
			[]plan.AccessKind{plan.AccessStream, plan.AccessIndex}},
		{"SELECT e.empname FROM department d, employee e WHERE d.deptno = e.salary",
			[]plan.AccessKind{plan.AccessStream, plan.AccessHash}},
	}
	for _, c := range cases {
		g, err := db.Build(c.query)
		if err != nil {
			t.Fatal(err)
		}
		// No optimizer: stages follow FROM order.
		p := plan.Lower(g)
		top := p.Root
		if top.Kind == plan.OpDistinct {
			top = top.Children[0]
		}
		var got []plan.AccessKind
		for _, st := range top.Stages {
			got = append(got, st.Access)
			if st.Access == plan.AccessIndex && !st.Quant.Ranges.Table.HasIndex(st.IndexCols) {
				t.Errorf("%q: index access on %v without an index", c.query, st.IndexCols)
			}
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%q: stage access %v, want %v\n%s", c.query, got, c.want, p)
		}
		want, _, err := db.Eval(g)
		if err != nil {
			t.Fatal(err)
		}
		if rows := evalRows(t, db, p); !reflect.DeepEqual(rows, want) {
			t.Errorf("%q: plan rows %v, evaluator %v", c.query, rows, want)
		}
	}
}

// TestUnindexedConstantEqualityVectorizes: a constant equality on a column
// without an index stays a filter of the streamed driving stage, which
// makes the select vectorizable — the shape of Table-1's supplementary
// magic box over department.
func TestUnindexedConstantEqualityVectorizes(t *testing.T) {
	db := paperDB(t)
	g, err := db.Build("SELECT deptno FROM department WHERE deptname = 'Planning'")
	if err != nil {
		t.Fatal(err)
	}
	p := plan.Lower(g)
	sel := p.Root
	if sel.Kind != plan.OpSelect || len(sel.Stages) != 1 {
		t.Fatalf("unexpected plan:\n%s", p)
	}
	st := sel.Stages[0]
	if st.Access != plan.AccessStream || st.Child.Kind != plan.OpScan || len(st.Residual) != 1 || len(st.KeyMine) != 0 {
		t.Fatalf("driving stage %v with %d filters, %d keys:\n%s", st.Access, len(st.Residual), len(st.KeyMine), p)
	}
	if !sel.Vec {
		t.Fatalf("select not vectorizable:\n%s", p)
	}
	rows, stats, err := exec.New(db.Store).EvalPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != datum.Int(1) {
		t.Fatalf("rows %v, want [[1]]", rows)
	}
	if !stats[sel.ID].Vectorized {
		t.Fatalf("select did not run vectorized:\n%s", p.Format(stats))
	}
}

// TestSharedBoxInFixpointNotSpooled: a box of a recursive component that
// two members read is re-derived from each round's delta, so the lowering
// must not spool it (a spool keeps its rows for the whole execution). A
// shared box outside the component is constant across rounds and is
// spooled once.
func TestSharedBoxInFixpointNotSpooled(t *testing.T) {
	db := paperDB(t)
	edge := &catalog.Table{
		Name:    "edge",
		Columns: []catalog.Column{{Name: "src", Type: datum.TInt}, {Name: "dst", Type: datum.TInt}},
	}
	if err := db.Cat.AddTable(edge); err != nil {
		t.Fatal(err)
	}
	rel := db.Store.Create(edge)
	for _, e := range [][2]int64{{1, 2}, {2, 3}, {3, 4}, {4, 1}, {5, 6}, {6, 7}, {2, 8}} {
		if err := rel.Insert(datum.Row{datum.Int(e[0]), datum.Int(e[1])}); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []*catalog.View{
		// fwd is outside the component and read by the seed and the hop.
		{Name: "fwd", Columns: []string{"src", "dst"}, SQL: "SELECT src, dst FROM edge WHERE src < 7"},
		// hop is a member that two union branches read.
		{Name: "hop", Columns: []string{"src", "dst"},
			SQL: "SELECT r.src, f.dst FROM reach r, fwd f WHERE r.dst = f.src"},
		{Name: "reach", Columns: []string{"src", "dst"},
			SQL: "SELECT src, dst FROM fwd UNION SELECT src, dst FROM hop UNION SELECT h.src, h.dst FROM hop h WHERE h.src > 3"},
	} {
		if err := db.Cat.AddView(v); err != nil {
			t.Fatal(err)
		}
	}
	db.Analyze()
	g, err := db.Build("SELECT src, dst FROM reach")
	if err != nil {
		t.Fatal(err)
	}
	p := plan.Lower(g)
	var fix *plan.Node
	for _, n := range p.Nodes {
		if n.Kind == plan.OpFixpoint {
			fix = n
		}
	}
	if fix == nil || len(fix.Children) != 2 {
		t.Fatalf("no semi-naive fixpoint:\n%s", p)
	}
	members := map[*qgm.Box]bool{}
	for _, b := range qgm.SCCBoxes(fix.Box) {
		members[b] = true
	}
	hops := 0
	for _, n := range p.Nodes {
		if n.Kind == plan.OpSpool && members[n.Box] {
			t.Fatalf("member %s spooled:\n%s", n.Box.Name, p)
		}
		if n.Box != nil && strings.EqualFold(n.Box.Name, "hop") && n.Kind == plan.OpSelect {
			hops++
			if n.Fixpoint != fix {
				t.Fatalf("hop operator not re-run per round:\n%s", p)
			}
		}
	}
	if hops < 2 {
		t.Fatalf("hop lowered %d times, want once per reference:\n%s", hops, p)
	}
	spooled := false
	for _, n := range p.Nodes {
		spooled = spooled || n.Kind == plan.OpSpool && strings.EqualFold(n.Box.Name, "fwd")
	}
	if !spooled {
		t.Fatalf("fwd, read by the seed and every round, not spooled:\n%s", p)
	}
	want, _, err := db.Eval(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := evalRows(t, db, p); !reflect.DeepEqual(got, want) {
		t.Fatalf("fixpoint rows %v, evaluator %v", got, want)
	}
	if len(want) == 0 {
		t.Fatal("empty closure; the test exercises nothing")
	}
}

package engine

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestVectorizedSmoke proves the vectorized select operator actually
// executes — not merely that plans are marked vectorizable. A plan whose
// compile silently fell back to the row pipeline would still return correct
// rows, so the test asserts Vectorized shows up in the operator reports.
func TestVectorizedSmoke(t *testing.T) {
	db := newDB(t)
	if _, err := db.Exec(`
	CREATE VIEW nameSal (empname, total) AS
	  SELECT empname, SUM(salary) FROM employee GROUPBY empname;
	`); err != nil {
		t.Fatal(err)
	}
	// Constant-equality predicates on base tables lower to index access, so
	// the vectorizable shapes are stream scans with range/logic filters and
	// hash joins whose build side is a view.
	cases := []struct {
		query string
		want  []string
	}{
		{"SELECT empname FROM employee WHERE salary > 450", []string{"alice", "bob", "carol", "dan", "eve"}},
		{"SELECT empno FROM employee WHERE empname = 'carol' OR empname = 'dan'", []string{"201", "202"}},
		{"SELECT e.empname, n.total FROM employee e, nameSal n WHERE e.empname = n.empname AND e.salary > 350",
			[]string{"alice|1000", "bob|500", "carol|800", "dan|600", "eve|700", "frank|400"}},
	}
	for _, tc := range cases {
		res, err := db.Query(tc.query)
		if err != nil {
			t.Fatalf("%q: %v", tc.query, err)
		}
		got := sortStrings(rowsAsStrings(res))
		if strings.Join(got, ";") != strings.Join(tc.want, ";") {
			t.Errorf("%q: rows = %v, want %v", tc.query, got, tc.want)
		}
		vectorized := false
		for _, op := range res.Plan.Operators {
			if op.Vectorized {
				vectorized = true
				if op.Rows > 0 && op.RowsPerBatch <= 0 {
					t.Errorf("%q: vectorized op %s has rows but RowsPerBatch = %v", tc.query, op.Kind, op.RowsPerBatch)
				}
			}
		}
		if !vectorized {
			t.Errorf("%q: no vectorized operator in plan:\n%s", tc.query, res.Plan.Physical())
		}
	}

	// The toggle must force the row pipeline with identical rows.
	db.SetVectorized(false)
	defer db.SetVectorized(true)
	for _, tc := range cases {
		res, err := db.Query(tc.query)
		if err != nil {
			t.Fatalf("%q (vec off): %v", tc.query, err)
		}
		got := sortStrings(rowsAsStrings(res))
		if strings.Join(got, ";") != strings.Join(tc.want, ";") {
			t.Errorf("%q (vec off): rows = %v, want %v", tc.query, got, tc.want)
		}
		for _, op := range res.Plan.Operators {
			if op.Vectorized {
				t.Errorf("%q: operator %s vectorized despite SetVectorized(false)", tc.query, op.Kind)
			}
		}
	}
}

// TestVectorizedInternMetrics checks the engine-wide intern table surfaces
// through Metrics: loading string data interns it, and repeated values hit.
func TestVectorizedInternMetrics(t *testing.T) {
	db := newDB(t)
	m := db.Metrics()
	if m.Intern.Strings == 0 {
		t.Fatalf("intern table empty after loading string data: %+v", m.Intern)
	}
	if m.Intern.Bytes <= 0 {
		t.Errorf("intern bytes = %d, want > 0", m.Intern.Bytes)
	}
	if _, err := db.Exec(`INSERT INTO employee VALUES (401, 'alice', 1, 950)`); err != nil {
		t.Fatal(err)
	}
	m2 := db.Metrics()
	if m2.Intern.Hits <= m.Intern.Hits {
		t.Errorf("re-inserting duplicate string did not hit: before %+v after %+v", m.Intern, m2.Intern)
	}
	if m2.Intern.Strings != m.Intern.Strings {
		t.Errorf("duplicate string grew the table: before %d after %d", m.Intern.Strings, m2.Intern.Strings)
	}
}

// TestVectorizedOracle is the correctness net for the vectorized executor:
// a few hundred random queries run under all three strategies, three ways
// each — vectorized streaming (the default), row-at-a-time streaming
// (SetVectorized(false)), and the materialized box-at-a-time evaluator
// (WithMaterialized). All three must return the exact same rows in the
// exact same order: the vec operator mirrors the row pipeline's iteration
// order, and the streaming executor mirrors the materialized one.
func TestVectorizedOracle(t *testing.T) {
	db := newDB(t)
	if _, err := db.Exec(`
	CREATE VIEW bigEarners (empno, workdept, salary) AS
	  SELECT empno, workdept, salary FROM employee WHERE salary >= 500;
	CREATE VIEW deptCounts (workdept, cnt, total) AS
	  SELECT workdept, COUNT(*), SUM(salary) FROM employee GROUPBY workdept;
	CREATE TABLE link (src INT, dst INT, PRIMARY KEY (src, dst));
	INSERT INTO link VALUES (1, 2), (2, 3), (3, 1), (2, 101), (101, 201), (201, 202);
	CREATE VIEW reach (src, dst) AS
	  SELECT src, dst FROM link
	  UNION SELECT r.src, l.dst FROM reach r, link l WHERE r.dst = l.src;
	`); err != nil {
		t.Fatal(err)
	}

	n := 220
	if testing.Short() {
		n = 60
	}
	ctx := context.Background()
	strategies := []Strategy{Original, Correlated, EMST}
	gen := &queryGen{rng: rand.New(rand.NewSource(8861))}
	sawVectorized := false
	for i := 0; i < n; i++ {
		query := gen.query()
		for _, s := range strategies {
			vec, err := db.QueryContext(ctx, query, WithStrategy(s))
			if err != nil {
				t.Fatalf("query %d %q %v: %v", i, query, s, err)
			}
			for _, op := range vec.Plan.Operators {
				if op.Vectorized {
					sawVectorized = true
				}
			}
			want := strings.Join(rowsAsStrings(vec), ";")

			db.SetVectorized(false)
			row, err := db.QueryContext(ctx, query, WithStrategy(s))
			db.SetVectorized(true)
			if err != nil {
				t.Fatalf("query %d %q %v (vec off): %v", i, query, s, err)
			}
			if got := strings.Join(rowsAsStrings(row), ";"); got != want {
				t.Fatalf("query %d %q %v: row pipeline disagrees with vectorized\nvec %s\nrow %s",
					i, query, s, want, got)
			}

			mat, err := db.QueryContext(ctx, query, WithStrategy(s), WithMaterialized())
			if err != nil {
				t.Fatalf("query %d %q %v (materialized): %v", i, query, s, err)
			}
			if got := strings.Join(rowsAsStrings(mat), ";"); got != want {
				t.Fatalf("query %d %q %v: materialized disagrees with vectorized\nvec %s\nmat %s",
					i, query, s, want, got)
			}
		}
	}
	if !sawVectorized {
		t.Fatal("no oracle query executed a vectorized operator; the generator or the compiler regressed")
	}
}

// TestVectorizedStringPredicates locks down interned-string comparison
// semantics the random generator rarely reaches: equality against absent
// strings, ordered string comparison (which cannot use intern ids), and
// NULL propagation.
func TestVectorizedStringPredicates(t *testing.T) {
	db := newDB(t)
	cases := []struct {
		query string
		want  []string
	}{
		{"SELECT empno FROM employee WHERE empname = 'nobody'", nil},
		{"SELECT empno FROM employee WHERE empname <> 'alice'", []string{"102", "201", "202", "203", "301", "302"}},
		{"SELECT empname FROM employee WHERE empname < 'carol'", []string{"alice", "bob"}},
		{"SELECT empname FROM employee WHERE empname >= 'eve'", []string{"eve", "frank", "grace"}},
		{"SELECT empno FROM employee WHERE workdept IS NULL", []string{"302"}},
		{"SELECT empno FROM employee WHERE workdept IS NOT NULL AND salary * 2 > 1300",
			[]string{"101", "201", "203"}},
	}
	for _, tc := range cases {
		res, err := db.Query(tc.query)
		if err != nil {
			t.Fatalf("%q: %v", tc.query, err)
		}
		got := sortStrings(rowsAsStrings(res))
		if fmt.Sprint(got) != fmt.Sprint(tc.want) && !(len(got) == 0 && len(tc.want) == 0) {
			t.Errorf("%q: rows = %v, want %v", tc.query, got, tc.want)
		}
	}
}

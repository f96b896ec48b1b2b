package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// chainDB builds a long chain graph 1→2→…→n plus many disjoint chains, so
// the full transitive closure is large while tc restricted to one source is
// tiny — the classic magic-sets demonstration.
func chainDB(t *testing.T, chains, length int) *Database {
	t.Helper()
	db := New()
	if _, err := db.Exec(`
	CREATE TABLE edge (src INT, dst INT, PRIMARY KEY (src, dst));
	CREATE INDEX edge_src ON edge (src);
	CREATE VIEW tc (src, dst) AS
	  SELECT src, dst FROM edge
	  UNION
	  SELECT t.src, e.dst FROM tc t, edge e WHERE t.dst = e.src;
	`); err != nil {
		t.Fatal(err)
	}
	var script strings.Builder
	script.WriteString("INSERT INTO edge VALUES ")
	first := true
	for c := 0; c < chains; c++ {
		for i := 0; i < length-1; i++ {
			if !first {
				script.WriteString(", ")
			}
			first = false
			fmt.Fprintf(&script, "(%d, %d)", c*1000+i, c*1000+i+1)
		}
	}
	if _, err := db.Exec(script.String()); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestMagicOnRecursion: the headline deductive-database application of
// magic sets — transitive closure restricted to one source. The magic plan
// must compute only that source's closure, not the whole relation's.
func TestMagicOnRecursion(t *testing.T) {
	db := chainDB(t, 20, 12)
	query := "SELECT t.dst FROM tc t WHERE t.src = 3000"

	orig, err := db.QueryWith(query, Original)
	if err != nil {
		t.Fatal(err)
	}
	magic, err := db.QueryWith(query, EMST)
	if err != nil {
		t.Fatal(err)
	}
	if canonical(orig) != canonical(magic) {
		t.Fatalf("results differ:\norig  %v\nmagic %v", rowsAsStrings(orig), rowsAsStrings(magic))
	}
	if len(magic.Rows) != 11 { // 3001..3011
		t.Fatalf("rows = %d; want 11", len(magic.Rows))
	}
	if !magic.Plan.UsedEMST {
		t.Fatalf("magic plan not chosen (%v vs %v)", magic.Plan.CostBefore, magic.Plan.CostAfter)
	}
	// Original computes the full closure: 20 chains × C(12,2) = 1320 pairs
	// plus intermediates; magic computes one source's 11 pairs. OutputRows
	// is the tell.
	if magic.Plan.Counters.OutputRows*5 > orig.Plan.Counters.OutputRows {
		t.Errorf("magic did not restrict the fixpoint: %d vs %d output rows",
			magic.Plan.Counters.OutputRows, orig.Plan.Counters.OutputRows)
	}
}

// TestMagicOnRecursionJoinDriven: the magic set comes from a join, not a
// constant — sources listed in a driver table.
func TestMagicOnRecursionJoinDriven(t *testing.T) {
	db := chainDB(t, 10, 8)
	if _, err := db.Exec(`
	CREATE TABLE wanted (src INT, PRIMARY KEY (src));
	INSERT INTO wanted VALUES (0), (5000);
	`); err != nil {
		t.Fatal(err)
	}
	query := "SELECT w.src, t.dst FROM wanted w, tc t WHERE w.src = t.src"
	orig, err := db.QueryWith(query, Original)
	if err != nil {
		t.Fatal(err)
	}
	magic, err := db.QueryWith(query, EMST)
	if err != nil {
		t.Fatal(err)
	}
	if canonical(orig) != canonical(magic) {
		t.Fatalf("results differ")
	}
	if len(magic.Rows) != 14 { // two sources × 7 reachable each
		t.Fatalf("rows = %d; want 14", len(magic.Rows))
	}
	if magic.Plan.UsedEMST && magic.Plan.Counters.OutputRows*3 > orig.Plan.Counters.OutputRows {
		t.Errorf("magic did not restrict: %d vs %d", magic.Plan.Counters.OutputRows, orig.Plan.Counters.OutputRows)
	}
}

// TestMagicSkipsNonInvariantRecursion: in right-linear TC the bound column
// changes through the recursion (tc(x,y) ⇐ edge(x,z), tc(z,y)); filtering
// the fixpoint root on src would be unsound, so EMST must not attach magic
// — and results must stay correct.
func TestMagicSkipsNonInvariantRecursion(t *testing.T) {
	db := chainDB(t, 5, 6)
	if _, err := db.Exec(`
	CREATE VIEW rtc (src, dst) AS
	  SELECT src, dst FROM edge
	  UNION
	  SELECT e.src, t.dst FROM edge e, rtc t WHERE e.dst = t.src;
	`); err != nil {
		t.Fatal(err)
	}
	query := "SELECT dst FROM rtc WHERE src = 1000"
	orig, err := db.QueryWith(query, Original)
	if err != nil {
		t.Fatal(err)
	}
	magic, err := db.QueryWith(query, EMST)
	if err != nil {
		t.Fatal(err)
	}
	if canonical(orig) != canonical(magic) {
		t.Fatalf("results differ:\norig  %v\nmagic %v", rowsAsStrings(orig), rowsAsStrings(magic))
	}
	if len(magic.Rows) != 5 { // 1001..1005
		t.Errorf("rows = %d; want 5", len(magic.Rows))
	}
	// The second (dst) column IS invariant in right-linear TC, so a dst
	// binding may still be pushed; check that too.
	q2 := "SELECT src FROM rtc WHERE dst = 1005"
	o2, err := db.QueryWith(q2, Original)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := db.QueryWith(q2, EMST)
	if err != nil {
		t.Fatal(err)
	}
	if canonical(o2) != canonical(m2) {
		t.Fatalf("dst-bound results differ")
	}
}

// TestRecursionMagicAllStrategiesAgree is the equivalence net over mixed
// recursive queries.
func TestRecursionMagicAllStrategiesAgree(t *testing.T) {
	db := chainDB(t, 6, 7)
	queries := []string{
		"SELECT dst FROM tc WHERE src = 0",
		"SELECT src FROM tc WHERE dst = 2006",
		"SELECT COUNT(*) FROM tc WHERE src = 1002",
		"SELECT t.src, t.dst FROM tc t, edge e WHERE t.dst = e.src AND t.src = 4000",
	}
	for _, q := range queries {
		ref, err := db.QueryWith(q, Original)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		want := canonical(ref)
		for _, s := range []Strategy{Correlated, EMST} {
			res, err := db.QueryWith(q, s)
			if err != nil {
				t.Fatalf("%q %v: %v", q, s, err)
			}
			if canonical(res) != want {
				t.Errorf("%q %v: results differ", q, s)
			}
		}
	}
}

// TestMagicOnRecursionBindingsSound pins two ways a binding reached a
// recursion unsoundly. A supplementary-magic-box re-derives the bindings of
// the quantifier it precedes; they must pass the invariance filter again,
// or the non-invariant dst binding of left-linear tc filters the fixpoint.
// And a binding from an enclosing query's row makes one fixpoint per row:
// the set must not be reused for the next row.
func TestMagicOnRecursionBindingsSound(t *testing.T) {
	db := chainDB(t, 10, 8)
	if _, err := db.Exec(`
	CREATE TABLE wanted (src INT, PRIMARY KEY (src));
	INSERT INTO wanted VALUES (0), (3001), (5000);`); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`SELECT t.src, t.dst FROM edge e1, edge e2, tc t
		 WHERE e1.dst = e2.src AND t.src = e1.src AND t.dst = e2.dst AND e1.src = 3000`,
		`SELECT w.src FROM wanted w
		 WHERE EXISTS (SELECT 1 FROM tc t WHERE t.src = w.src AND t.dst = 5005)`,
		`SELECT w.src, (SELECT COUNT(*) FROM tc t WHERE t.src = w.src) FROM wanted w`,
	}
	wants := []string{"3000|3002", "5000", "0|7;3001|6;5000|7"}
	for i, q := range queries {
		for _, s := range []Strategy{Original, Correlated, EMST} {
			for _, opts := range [][]QueryOption{nil, {WithMaterialized()}} {
				res, err := db.QueryContext(context.Background(), q, append(opts, WithStrategy(s))...)
				if err != nil {
					t.Fatalf("%q %v: %v", q, s, err)
				}
				if got := canonical(res); got != wants[i] {
					t.Errorf("%q %v (materialized %v): got %s, want %s", q, s, len(opts) > 0, got, wants[i])
				}
			}
		}
	}
}

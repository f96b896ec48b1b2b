package engine_test

// Oracle tests for the spool operator, which reads a shared box (EMST's
// supplementary-magic boxes) by draining its body once per execution and
// replaying it to every consumer. Every Table-1 shape, literal and in `?`
// form, runs under EMST on the streaming, row-only and materialized
// executors, unbounded and under a 64 KB budget: results must agree, a
// budgeted run must stay within its budget, and each streaming run must
// charge the counters the plan charged when shared boxes were bridged to
// the box-at-a-time evaluator.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"starmagic/internal/bench"
	"starmagic/internal/engine"
	"starmagic/internal/plan"
)

// spoolCase is one query with its bindings.
type spoolCase struct {
	id    string
	query string
	args  []any
}

func spoolCases() []spoolCase {
	var cases []spoolCase
	for _, e := range bench.Experiments() {
		cases = append(cases, spoolCase{id: e.ID, query: e.Query})
	}
	paper := map[string][]any{
		"A": {"Planning"}, "B": {1030}, "C": {7}, "D": {120}, "E": {1013, 149000},
		"F": {3}, "G": {"Planning"}, "H": {"R03"}, "TC": {3000},
	}
	for _, s := range variantShapes {
		cases = append(cases, spoolCase{id: s.id + "?", query: s.query, args: paper[s.id]})
	}
	return cases
}

// spoolStats returns the rows and batches an execution's operator report
// charges to spool nodes, or to the bridges that stand in for them, keyed by
// node ID. Every reference to a node reports the same counters (a spool's
// later references none), so the first entry of each ID has them.
func spoolStats(ops []plan.OpReport, ids map[int]bool) map[int][2]int64 {
	out := map[int][2]int64{}
	for _, op := range ops {
		if _, done := out[op.ID]; ids[op.ID] && !done {
			out[op.ID] = [2]int64{op.Rows, op.Batches}
		}
	}
	return out
}

func TestSpoolOracle(t *testing.T) {
	db := newVariantDB(t)
	ctx := context.Background()
	const budget = 64 << 10
	for _, c := range spoolCases() {
		var want []string
		for _, mode := range []string{"stream", "row", "materialized"} {
			for _, limit := range []int64{0, budget} {
				name := fmt.Sprintf("%s/%s/%d", c.id, mode, limit)
				db.SetVectorized(mode != "row")
				opts := []engine.QueryOption{engine.WithStrategy(engine.EMST)}
				if mode == "materialized" {
					opts = append(opts, engine.WithMaterialized())
				}
				if limit > 0 {
					opts = append(opts, engine.WithMemoryLimit(limit))
				}
				p, err := db.PrepareContext(ctx, c.query, opts...)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				res, err := p.ExecuteContext(ctx, c.args...)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := sortedRows(res.Rows)
				if want == nil {
					want = got
				} else if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: rows differ\n got %v\nwant %v", name, got, want)
				}
				if limit > 0 && res.Plan.Mem.PeakBytes > limit {
					t.Fatalf("%s: peak %d bytes over the %d-byte budget", name, res.Plan.Mem.PeakBytes, limit)
				}
				if mode == "materialized" {
					continue
				}
				pl, err := engine.ExecutedPlan(ctx, p, c.args...)
				if err != nil {
					t.Fatal(err)
				}
				spools := map[int]bool{}
				for _, n := range pl.Nodes {
					switch {
					case n.Kind == plan.OpSpool:
						spools[n.ID] = true
					case n.Kind == plan.OpBoxEval && n.Detail == "shared":
						t.Fatalf("%s: shared box bridged:\n%s", name, pl)
					}
				}
				// Every magic plan of A–H reads a supplementary-magic box
				// twice; tc's magic seeds the fixpoint and has none.
				if res.Plan.UsedEMST && c.id != "TC?" && len(spools) == 0 {
					t.Fatalf("%s: magic plan without a spool:\n%s", name, pl)
				}
				bridged, err := engine.WithSpoolsBridged(p, pl).ExecuteContext(ctx, c.args...)
				if err != nil {
					t.Fatalf("%s bridged: %v", name, err)
				}
				if g := sortedRows(bridged.Rows); !reflect.DeepEqual(g, want) {
					t.Fatalf("%s bridged: rows differ\n got %v\nwant %v", name, g, want)
				}
				sc, bc := res.Plan.Counters, bridged.Plan.Counters
				if sc.BoxEvals != bc.BoxEvals || sc.BaseRows != bc.BaseRows {
					t.Fatalf("%s: spool charged %+v, bridge %+v", name, sc, bc)
				}
				if s, b := spoolStats(res.Plan.Operators, spools), spoolStats(bridged.Plan.Operators, spools); !reflect.DeepEqual(s, b) {
					t.Fatalf("%s: spool node rows/batches %v, bridge %v\n%s", name, s, b, res.Plan.Physical())
				}
				if limit > 0 && bridged.Plan.Mem.PeakBytes > limit {
					t.Fatalf("%s bridged: peak %d bytes over the budget", name, bridged.Plan.Mem.PeakBytes)
				}
			}
		}
	}
	db.SetVectorized(true)
}

// TestTableOnePlansHonestAccess checks the plans of Table-1 A–H and the
// bound tc query under every strategy: no shared box goes through the
// bridge, and a stage probes an index only where the table has one over
// exactly its key columns.
func TestTableOnePlansHonestAccess(t *testing.T) {
	db := newVariantDB(t)
	ctx := context.Background()
	for _, c := range spoolCases() {
		for _, s := range []engine.Strategy{engine.Original, engine.Correlated, engine.EMST} {
			p, err := db.PrepareContext(ctx, c.query, engine.WithStrategy(s))
			if err != nil {
				t.Fatal(err)
			}
			pl, err := engine.ExecutedPlan(ctx, p, c.args...)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range pl.Nodes {
				if n.Kind == plan.OpBoxEval && n.Detail == "shared" {
					t.Fatalf("%s/%v: shared bridge in\n%s", c.id, s, pl)
				}
				for _, st := range n.Stages {
					if st.Access == plan.AccessIndex && !st.Quant.Ranges.Table.HasIndex(st.IndexCols) {
						t.Fatalf("%s/%v: index access on %s%v without an index:\n%s",
							c.id, s, st.Quant.Ranges.Table.Name, st.IndexCols, pl)
					}
				}
			}
		}
	}
}

// TestFeedbackReprepareStable re-prepares Table-1 E under EMST after each
// execution. Feedback re-optimizes it with the observed cardinalities; the
// observation of a magic-restricted adorned copy must not stand in for the
// unrestricted box of the same name, or the re-optimized plan would scan
// what the magic plan skipped and the next re-optimization flip it back.
func TestFeedbackReprepareStable(t *testing.T) {
	db, err := bench.NewDB(bench.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := bench.Experiments()[4]
	if e.ID != "E" {
		t.Fatalf("experiment 4 is %s, want E", e.ID)
	}
	ctx := context.Background()
	var first int64
	reopts := 0
	for i := 0; i < 4; i++ {
		p, err := db.PrepareContext(ctx, e.Query)
		if err != nil {
			t.Fatal(err)
		}
		if p.Explain().CacheStatus == "reopt" {
			reopts++
		}
		res, err := p.ExecuteContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		base := res.Plan.Counters.BaseRows
		if i == 0 {
			first = base
		} else if base > first {
			t.Fatalf("prepare %d (%s) read %d base rows, the first plan %d:\n%s",
				i, p.Explain().CacheStatus, base, first, res.Plan.Physical())
		}
	}
	if reopts == 0 {
		t.Fatal("feedback never re-optimized E; the test exercises nothing")
	}
}

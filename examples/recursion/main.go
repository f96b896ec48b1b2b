// Recursion and strata: the paper's §2 stratum numbers and Starburst SQL's
// recursive views in action.
//
// The engine evaluates recursive views (fixpoint iteration with set
// semantics, stratification enforced: aggregation and negation may consume
// the recursion only from a higher stratum) and assigns stratum numbers by
// collapsing strongly connected components, exactly as §2 defines. Magic
// restriction cascades through the nonrecursive strata, and into a
// recursion when the bound column passes through it unchanged: the magic
// table then seeds the fixpoint, which a linear component evaluates
// semi-naively (see DESIGN.md).
//
// The example builds a manufacturing bill-of-materials:
//
//  1. a RECURSIVE containment view (which assemblies transitively contain
//     which parts) evaluated to a fixpoint;
//  2. aggregation stacked ON TOP of the completed recursion (stratified);
//  3. stratum numbers for the whole view DAG;
//  4. identical results across Original / Correlated / EMST.
//
// Run with: go run ./examples/recursion
package main

import (
	"fmt"
	"log"
	"sort"

	"starmagic"
	"starmagic/internal/semant"
)

func main() {
	db := starmagic.Open()
	db.MustExec(`
	CREATE TABLE part (partno INT, pname VARCHAR(30), factory INT, unitcost FLOAT, PRIMARY KEY (partno));
	CREATE TABLE component (asmno INT, partno INT, qty INT, PRIMARY KEY (asmno, partno));
	CREATE INDEX comp_asm ON component (asmno);
	CREATE TABLE assembly (asmno INT, aname VARCHAR(30), factory INT, PRIMARY KEY (asmno));
	CREATE TABLE factory (factno INT, city VARCHAR(20), PRIMARY KEY (factno));

	-- Stratum 1: cost of each assembly from its direct parts.
	CREATE VIEW asmCost (asmno, cost) AS
	  SELECT c.asmno, SUM(c.qty * p.unitcost)
	  FROM component c, part p WHERE c.partno = p.partno
	  GROUPBY c.asmno;

	-- Stratum 2: per-factory totals over stratum 1 (aggregation over an
	-- aggregate view).
	CREATE VIEW factoryCost (factno, total, assemblies) AS
	  SELECT a.factory, SUM(v.cost), COUNT(*)
	  FROM assembly a, asmCost v WHERE a.asmno = v.asmno
	  GROUPBY a.factory;

	-- Stratum 3: factories whose total exceeds the all-factory average —
	-- an aggregate of stratum 2 inside a scalar subquery (stratified
	-- aggregation).
	CREATE VIEW expensiveFactories (factno, total) AS
	  SELECT factno, total FROM factoryCost
	  WHERE total > (SELECT AVG(total) FROM factoryCost);

	-- RECURSIVE: assemblies contain parts directly, and transitively
	-- whatever their sub-assemblies contain (component.partno may itself
	-- be an assembly number). Evaluated by fixpoint iteration.
	CREATE VIEW contains (asmno, partno) AS
	  SELECT asmno, partno FROM component
	  UNION
	  SELECT c.asmno, t.partno FROM component c, contains t WHERE c.partno = t.asmno;

	-- Aggregation over the COMPLETED recursion: one stratum above it.
	CREATE VIEW partCount (asmno, nparts) AS
	  SELECT asmno, COUNT(*) FROM contains GROUPBY asmno;
	`)

	// Data: 6 factories, 120 assemblies, 400 parts, ~6 components each.
	var parts, comps, asms, facts []starmagic.Row
	for f := 1; f <= 6; f++ {
		facts = append(facts, starmagic.Row{
			starmagic.Int(int64(f)), starmagic.String(fmt.Sprintf("City%d", f)),
		})
	}
	for p := 1; p <= 400; p++ {
		parts = append(parts, starmagic.Row{
			starmagic.Int(int64(p)),
			starmagic.String(fmt.Sprintf("part%03d", p)),
			starmagic.Int(int64(p%6 + 1)),
			starmagic.Float(float64(1 + (p*31)%90)),
		})
	}
	for a := 1; a <= 120; a++ {
		asms = append(asms, starmagic.Row{
			starmagic.Int(int64(a)),
			starmagic.String(fmt.Sprintf("asm%03d", a)),
			starmagic.Int(int64(a%6 + 1)),
		})
		for k := 0; k < 6; k++ {
			comps = append(comps, starmagic.Row{
				starmagic.Int(int64(a)),
				starmagic.Int(int64((a*7+k*53)%400 + 1)),
				starmagic.Int(int64(1 + k%4)),
			})
		}
	}
	must(db.InsertRows("factory", facts))
	must(db.InsertRows("part", parts))
	must(db.InsertRows("component", comps))
	must(db.InsertRows("assembly", asms))
	db.Analyze()

	// 1. Stratum numbers per the paper's definition.
	strata, err := semant.Strata(db.Engine().Catalog())
	if err != nil {
		log.Fatal(err)
	}
	names := make([]string, 0, len(strata))
	for n := range strata {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if strata[names[i]] != strata[names[j]] {
			return strata[names[i]] < strata[names[j]]
		}
		return names[i] < names[j]
	})
	fmt.Println("stratum numbers:")
	for _, n := range names {
		fmt.Printf("  %d  %s\n", strata[n], n)
	}

	// 2. A selective query over stratum 2. Magic cascades: the city filter
	// restricts factories, factory numbers restrict factoryCost, whose
	// magic restricts assembly/asmCost, whose magic restricts
	// component/part.
	//
	// (Querying expensiveFactories instead would NOT profit from magic: its
	// scalar subquery needs the average over ALL factories, so the full
	// stratum-2 computation is unavoidable — and the pipeline's cost
	// comparison correctly refuses the transformation there. Try it.)
	const query = `
	SELECT f.city, v.total, v.assemblies
	FROM factory f, factoryCost v
	WHERE f.factno = v.factno AND f.city = 'City3'`

	fmt.Println("\nquery: factory cost rollup for City3")
	var rows []string
	for _, s := range []starmagic.Strategy{
		starmagic.StrategyOriginal, starmagic.StrategyCorrelated, starmagic.StrategyEMST,
	} {
		res, err := db.QueryWith(query, s)
		if err != nil {
			log.Fatal(err)
		}
		var text string
		for _, r := range res.Rows {
			for i, v := range r {
				if i > 0 {
					text += "|"
				}
				text += v.Format()
			}
			text += " "
		}
		rows = append(rows, text)
		fmt.Printf("  %-11s -> %s (exec %v, emst-plan=%v)\n", s, text, res.Plan.ExecTime, res.Plan.UsedEMST)
	}
	for _, r := range rows[1:] {
		if r != rows[0] {
			log.Fatal("strategies disagree!")
		}
	}
	fmt.Println("all strategies agree across four strata of views")

	// 3. Recursion: transitive containment of assembly 1 (assemblies are
	// numbered 1..120; sub-assembly links arise where a component's partno
	// collides with an assembly number).
	res, err := db.Query("SELECT COUNT(*) FROM contains WHERE asmno = 1")
	if err != nil {
		log.Fatal(err)
	}
	direct, err := db.Query("SELECT COUNT(*) FROM component WHERE asmno = 1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrecursive containment: assembly 1 holds %s parts transitively (%s directly)\n",
		res.Rows[0][0].Format(), direct.Rows[0][0].Format())
	if res.Rows[0][0].I < direct.Rows[0][0].I {
		log.Fatal("fixpoint lost rows")
	}
	agg, err := db.Query("SELECT nparts FROM partCount WHERE asmno = 1")
	if err != nil {
		log.Fatal(err)
	}
	if agg.Rows[0][0].I != res.Rows[0][0].I {
		log.Fatal("stratified aggregate disagrees with the fixpoint")
	}
	fmt.Println("aggregation above the recursion (stratified) agrees with the fixpoint")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

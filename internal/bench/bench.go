// Package bench is the performance-experiment harness reproducing the
// paper's Table 1: eight decision-support queries, each executed under the
// three strategies Original / Correlated / EMST, with elapsed times
// normalized to Original = 100.
//
// The paper's experiments came from [MFPR90a] over DB2 benchmark data and
// are not specified beyond their measured ratios, so the workloads here are
// reconstructions driven by the two knobs the paper identifies: how many
// bindings reach the view (outer width, with or without duplicate
// bindings), and how expensive one view evaluation is (index availability
// on the correlation column, joins and aggregation inside the view). Each
// experiment's comment states the regime it reconstructs.
package bench

import (
	"fmt"
	"math/rand"
	"time"

	"starmagic/internal/datum"
	"starmagic/internal/engine"
	"starmagic/internal/exec"
)

// Config sizes the synthetic database. Scale 1 is the default benchmark
// size; Table 1 shapes hold across scales.
type Config struct {
	// Departments is the department count (default 150).
	Departments int
	// EmpsPerDept is employees per department (default 40).
	EmpsPerDept int
	// SalesPerDept is rows per department in the indexed fact table
	// (default 150).
	SalesPerDept int
	// OrdersPerDept is rows per department in the UNindexed fact table
	// (default 150).
	OrdersPerDept int
	// Seed drives the deterministic data generator.
	Seed int64
}

// DefaultConfig returns the standard benchmark size.
func DefaultConfig() Config {
	return Config{Departments: 150, EmpsPerDept: 40, SalesPerDept: 150, OrdersPerDept: 150, Seed: 1994}
}

// WithScale multiplies all table sizes by scale.
func (c Config) WithScale(scale int) Config {
	if scale < 1 {
		scale = 1
	}
	c.EmpsPerDept *= scale
	c.SalesPerDept *= scale
	c.OrdersPerDept *= scale
	return c
}

// Schema is the benchmark DDL: a department dimension, an employee table,
// an indexed fact table (sales) and an unindexed one (orders), plus the
// views the experiments query. deptOrders/deptOrdersJ deliberately
// aggregate the fact table with no index on the correlation column — the
// regime in which correlated execution collapses (Table 1 rows C and D).
const Schema = `
CREATE TABLE department (
  deptno INT, deptname VARCHAR(30), mgrno INT, region VARCHAR(10),
  PRIMARY KEY (deptno));
CREATE TABLE employee (
  empno INT, empname VARCHAR(30), workdept INT, salary FLOAT, jobcode INT,
  PRIMARY KEY (empno));
CREATE INDEX emp_dept ON employee (workdept);
CREATE TABLE sales (
  saleid INT, deptno INT, amount FLOAT, yr INT,
  PRIMARY KEY (saleid));
CREATE INDEX sales_dept ON sales (deptno);
CREATE TABLE orders (
  orderid INT, deptno INT, amount FLOAT,
  PRIMARY KEY (orderid));

CREATE VIEW avgSalary (workdept, avgsal, headcount) AS
  SELECT workdept, AVG(salary), COUNT(*) FROM employee GROUPBY workdept;
CREATE VIEW deptSales (deptno, total, cnt) AS
  SELECT deptno, SUM(amount), COUNT(*) FROM sales GROUPBY deptno;
CREATE VIEW deptAvgSales (deptno, avgamount) AS
  SELECT deptno, AVG(amount) FROM sales GROUPBY deptno;
CREATE VIEW deptOrders (deptno, total) AS
  SELECT deptno, SUM(amount) FROM orders GROUPBY deptno;
CREATE VIEW deptOrdersJ (deptno, total) AS
  SELECT o.deptno, SUM(o.amount)
  FROM orders o, department d WHERE o.deptno = d.deptno
  GROUPBY o.deptno;
CREATE VIEW regionSales (region, total) AS
  SELECT d.region, SUM(v.total)
  FROM department d, deptSales v WHERE d.deptno = v.deptno
  GROUPBY d.region;
CREATE VIEW regionPay (region, totalsal) AS
  SELECT d.region, SUM(v.avgsal)
  FROM department d, employee e, avgSalary v
  WHERE e.workdept = d.deptno AND e.jobcode < 2 AND e.workdept = v.workdept
  GROUPBY d.region;
`

// NewDB builds and loads the benchmark database.
func NewDB(cfg Config) (*engine.Database, error) {
	db := engine.New()
	if _, err := db.Exec(Schema); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	depts := make([]datum.Row, 0, cfg.Departments)
	for d := 1; d <= cfg.Departments; d++ {
		name := fmt.Sprintf("Dept-%03d", d)
		if d == 7 {
			name = "Planning"
		}
		region := fmt.Sprintf("R%02d", (d-1)%10)
		depts = append(depts, datum.Row{
			datum.Int(int64(d)),
			datum.String(name),
			datum.Int(int64(d*1000 + 1)),
			datum.String(region),
		})
	}
	if err := db.InsertRows("department", depts); err != nil {
		return nil, err
	}

	emps := make([]datum.Row, 0, cfg.Departments*cfg.EmpsPerDept)
	for d := 1; d <= cfg.Departments; d++ {
		for i := 1; i <= cfg.EmpsPerDept; i++ {
			empno := int64(d*1000 + i)
			emps = append(emps, datum.Row{
				datum.Int(empno),
				datum.String(fmt.Sprintf("emp%07d", empno)),
				datum.Int(int64(d)),
				datum.Float(20000 + float64(rng.Intn(80000))),
				datum.Int(int64(rng.Intn(20))),
			})
		}
	}
	if err := db.InsertRows("employee", emps); err != nil {
		return nil, err
	}

	sales := make([]datum.Row, 0, cfg.Departments*cfg.SalesPerDept)
	id := int64(0)
	for d := 1; d <= cfg.Departments; d++ {
		for i := 0; i < cfg.SalesPerDept; i++ {
			id++
			sales = append(sales, datum.Row{
				datum.Int(id),
				datum.Int(int64(d)),
				datum.Float(float64(rng.Intn(10000)) / 10),
				datum.Int(int64(1990 + rng.Intn(5))),
			})
		}
	}
	if err := db.InsertRows("sales", sales); err != nil {
		return nil, err
	}

	orders := make([]datum.Row, 0, cfg.Departments*cfg.OrdersPerDept)
	id = 0
	for d := 1; d <= cfg.Departments; d++ {
		for i := 0; i < cfg.OrdersPerDept; i++ {
			id++
			orders = append(orders, datum.Row{
				datum.Int(id),
				datum.Int(int64(d)),
				datum.Float(float64(rng.Intn(10000)) / 10),
			})
		}
	}
	if err := db.InsertRows("orders", orders); err != nil {
		return nil, err
	}
	db.Analyze()
	return db, nil
}

// Experiment is one Table 1 row.
type Experiment struct {
	ID    string
	Name  string
	Query string
	// Regime explains which of the paper's regimes the workload
	// reconstructs and the expected shape.
	Regime string
}

// TCQuery is the bound transitive closure of the recursion benchmark: one
// source's reachable nodes on the NewTCDB graph.
const TCQuery = "SELECT dst FROM tc WHERE src = 7000"

// NewTCDB builds the recursion benchmark's graph: 40 disjoint chains of 15
// nodes (node c*1000+i, edge i -> i+1) under an edge_src index and the
// left-linear transitive-closure view tc. The full closure has 4200 pairs;
// TCQuery reaches 14 of them.
func NewTCDB() (*engine.Database, error) {
	db := engine.New()
	if _, err := db.Exec(`
	CREATE TABLE edge (src INT, dst INT, PRIMARY KEY (src, dst));
	CREATE INDEX edge_src ON edge (src);
	CREATE VIEW tc (src, dst) AS
	  SELECT src, dst FROM edge
	  UNION
	  SELECT t.src, e.dst FROM tc t, edge e WHERE t.dst = e.src;`); err != nil {
		return nil, err
	}
	var edges []datum.Row
	for c := 0; c < 40; c++ {
		for i := 0; i < 14; i++ {
			edges = append(edges, datum.Row{datum.Int(int64(c*1000 + i)), datum.Int(int64(c*1000 + i + 1))})
		}
	}
	if err := db.InsertRows("edge", edges); err != nil {
		return nil, err
	}
	return db, nil
}

// Experiments returns the eight Table 1 experiments A–H.
func Experiments() []Experiment {
	return []Experiment{
		{
			ID:   "A",
			Name: "single-department lookup, indexed view",
			Query: `SELECT d.deptname, v.avgsal FROM department d, avgSalary v
			        WHERE d.deptno = v.workdept AND d.deptname = 'Planning'`,
			Regime: "one outer row, cheap indexed per-invocation: both rewrites " +
				"beat Original by orders of magnitude; Correlated edges out EMST " +
				"(paper: 0.40 vs 0.47)",
		},
		{
			ID:   "B",
			Name: "few bindings with repeats, indexed fact view",
			Query: `SELECT e.empname, v.total FROM employee e, deptSales v
			        WHERE e.workdept = v.deptno AND e.empno < 1030`,
			Regime: "a handful of outer rows sharing FEW distinct bindings: EMST " +
				"evaluates once per binding, Correlated once per row " +
				"(paper: 2.12 vs 0.28)",
		},
		{
			ID:   "C",
			Name: "several bindings over an UNindexed fact view",
			Query: `SELECT d.deptname, v.total FROM department d, deptOrders v
			        WHERE d.deptno = v.deptno AND d.deptno < 7`,
			Regime: "per-invocation cost is a full fact-table scan (no index on " +
				"orders.deptno): Correlated is several times WORSE than Original " +
				"while EMST still wins (paper: 513 vs 50)",
		},
		{
			ID:   "D",
			Name: "wide outer over an UNindexed joining view",
			Query: `SELECT d.deptname, v.total FROM department d, deptOrdersJ v
			        WHERE d.deptno = v.deptno AND d.deptno <= 120`,
			Regime: "most departments qualify, so magic barely restricts (EMST ~ " +
				"Original) while Correlated re-scans orders per row " +
				"(paper: 5136 vs 109)",
		},
		{
			ID:   "E",
			Name: "medium outer with duplicate bindings, indexed view",
			Query: `SELECT e.empname, v.total FROM employee e, deptSales v
			        WHERE e.workdept = v.deptno AND (e.empno < 1013 OR e.empno > 149000)`,
			Regime: "tens of outer rows over ~a dozen distinct bindings, indexed: " +
				"Correlated beats Original but repeats work per duplicate; EMST " +
				"shares it (paper: 52.6 vs 7.6)",
		},
		{
			ID:   "F",
			Name: "single-row outer, very cheap view",
			Query: `SELECT d.deptname, v.headcount FROM department d, avgSalary v
			        WHERE d.deptno = v.workdept AND d.deptno = 3`,
			Regime: "one binding over a small view: rewrite overheads dominate and " +
				"Correlated's leaner machinery edges out EMST (paper: 0.54 vs 0.84)",
		},
		{
			ID:   "G",
			Name: "the paper's query D shape (Example 1.1)",
			Query: `SELECT d.deptname, v.deptno, v.avgamount FROM department d, deptAvgSales v
			        WHERE d.deptno = v.deptno AND d.deptname = 'Planning'`,
			Regime: "a query isomorphic to the paper's D: selective department " +
				"filter over an aggregate view; EMST ~2.5 orders of magnitude " +
				"better than Original (paper: 2.41 vs 0.49)",
		},
		{
			ID:   "H",
			Name: "two-level view nesting with duplicate inner bindings",
			Query: `SELECT v.region, v.totalsal FROM regionPay v
			        WHERE v.region = 'R03'`,
			Regime: "magic descends two view levels (region -> employees -> " +
				"avgSalary); Correlated re-evaluates the inner aggregate once per " +
				"employee, EMST once per distinct department (paper: 19.9 vs 4.5)",
		},
	}
}

// Measurement is one (experiment, strategy) timing.
type Measurement struct {
	Strategy engine.Strategy
	Elapsed  time.Duration
	Rows     int
	Counters exec.Counters
	UsedEMST bool
}

// Run prepares the experiment once under the strategy and reports the
// fastest of reps executions (minimum is the standard noise filter for
// microbenchmarks).
func Run(db *engine.Database, e Experiment, strategy engine.Strategy, reps int) (Measurement, error) {
	p, err := db.Prepare(e.Query, strategy)
	if err != nil {
		return Measurement{}, fmt.Errorf("experiment %s (%v): %w", e.ID, strategy, err)
	}
	if reps < 1 {
		reps = 1
	}
	best := Measurement{Strategy: strategy, Elapsed: 1<<62 - 1}
	for i := 0; i < reps; i++ {
		start := time.Now()
		res, err := p.Execute()
		elapsed := time.Since(start)
		if err != nil {
			return Measurement{}, fmt.Errorf("experiment %s (%v): %w", e.ID, strategy, err)
		}
		if elapsed < best.Elapsed {
			best.Elapsed = elapsed
			best.Rows = len(res.Rows)
			best.Counters = res.Plan.Counters
			best.UsedEMST = res.Plan.UsedEMST
		}
	}
	return best, nil
}

// Row1 is one normalized Table 1 row.
type Row1 struct {
	Experiment Experiment
	// Original, Correlated, EMST are elapsed times normalized to
	// Original = 100 (the paper's presentation).
	Original, Correlated, EMST float64
	// Raw holds the underlying measurements keyed by strategy.
	Raw map[engine.Strategy]Measurement
}

// Table1 runs all experiments under all three strategies and normalizes.
func Table1(db *engine.Database, reps int) ([]Row1, error) {
	var out []Row1
	for _, e := range Experiments() {
		row := Row1{Experiment: e, Raw: map[engine.Strategy]Measurement{}}
		for _, s := range []engine.Strategy{engine.Original, engine.Correlated, engine.EMST} {
			m, err := Run(db, e, s, reps)
			if err != nil {
				return nil, err
			}
			row.Raw[s] = m
		}
		base := row.Raw[engine.Original].Elapsed.Seconds()
		if base <= 0 {
			base = 1e-9
		}
		row.Original = 100
		row.Correlated = 100 * row.Raw[engine.Correlated].Elapsed.Seconds() / base
		row.EMST = 100 * row.Raw[engine.EMST].Elapsed.Seconds() / base
		out = append(out, row)
	}
	return out, nil
}

// FormatTable renders rows in the paper's Table 1 layout.
func FormatTable(rows []Row1) string {
	s := fmt.Sprintf("%-6s %12s %12s %12s\n", "Query", "Original", "Correlated", "EMST")
	for _, r := range rows {
		s += fmt.Sprintf("Exp %-2s %12.2f %12.2f %12.2f\n",
			r.Experiment.ID, r.Original, r.Correlated, r.EMST)
	}
	return s
}

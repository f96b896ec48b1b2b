package main

// This file holds the benchmark's inputs: the Table-1 database and the
// edge graph generated from the seed, and the query shapes the workloads
// draw requests from, each with its binding domain.

import (
	"fmt"
	"math/rand"

	"starmagic"
	"starmagic/internal/bench"
)

// dataSize sizes the Table-1 database. Departments stay at 150 for every
// workload, so bindings always come from the 150-department domain.
type dataSize struct {
	Depts, EmpsPerDept, SalesPerDept, OrdersPerDept int
}

// Sizes of the generated data, both below the Table-1 default scale of
// internal/bench (40 employees and 150 sales and orders per department),
// under which the shapes keep their Table-1 regimes. At the default scale
// the wide shapes are memory-bound, and on a shared 2-CPU host their
// throughput swung by a quarter from run to run; at tableOneSize it
// follows the host's CPU speed. ingestSize is smaller still, so that the
// ANALYZE each commit triggers costs about 10 ms rather than about 90 ms
// and a window holds more than 1000 write transactions.
var (
	tableOneSize = dataSize{Depts: 150, EmpsPerDept: 10, SalesPerDept: 30, OrdersPerDept: 30}
	ingestSize   = dataSize{Depts: 150, EmpsPerDept: 8, SalesPerDept: 10, OrdersPerDept: 10}
)

// The transitive-closure graph: graphChains chains of graphChainLen nodes
// (node c*1000+i, edge i -> i+1) plus one seeded skip edge per chain.
const (
	graphChains   = 20
	graphChainLen = 12
)

const graphSchema = `
CREATE TABLE edge (src INT, dst INT, PRIMARY KEY (src, dst));
CREATE INDEX edge_src ON edge (src);
CREATE VIEW tc (src, dst) AS
  SELECT src, dst FROM edge
  UNION
  SELECT t.src, e.dst FROM tc t, edge e WHERE t.dst = e.src;
`

// deptName mirrors internal/bench: department 7 is 'Planning'.
func deptName(d int) string {
	if d == 7 {
		return "Planning"
	}
	return fmt.Sprintf("Dept-%03d", d)
}

func region(d int) string { return fmt.Sprintf("R%02d", (d-1)%10) }

// loadTableOne creates the Table-1 schema and loads rows generated from
// seed, one InsertRows transaction per table.
func loadTableOne(db *starmagic.DB, sz dataSize, seed int64) error {
	if _, err := db.Exec(bench.Schema); err != nil {
		return fmt.Errorf("schema: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	var depts, emps, sales, orders []starmagic.Row
	for d := 1; d <= sz.Depts; d++ {
		depts = append(depts, starmagic.Row{
			starmagic.Int(int64(d)), starmagic.String(deptName(d)),
			starmagic.Int(int64(d*1000 + 1)), starmagic.String(region(d)),
		})
		for i := 1; i <= sz.EmpsPerDept; i++ {
			empno := int64(d*1000 + i)
			emps = append(emps, starmagic.Row{
				starmagic.Int(empno), starmagic.String(fmt.Sprintf("emp%07d", empno)),
				starmagic.Int(int64(d)), starmagic.Float(20000 + float64(rng.Intn(80000))),
				starmagic.Int(int64(rng.Intn(20))),
			})
		}
	}
	id := int64(0)
	for d := 1; d <= sz.Depts; d++ {
		for i := 0; i < sz.SalesPerDept; i++ {
			id++
			sales = append(sales, starmagic.Row{
				starmagic.Int(id), starmagic.Int(int64(d)),
				starmagic.Float(float64(rng.Intn(10000)) / 10), starmagic.Int(int64(1990 + rng.Intn(5))),
			})
		}
	}
	id = 0
	for d := 1; d <= sz.Depts; d++ {
		for i := 0; i < sz.OrdersPerDept; i++ {
			id++
			orders = append(orders, starmagic.Row{
				starmagic.Int(id), starmagic.Int(int64(d)), starmagic.Float(float64(rng.Intn(10000)) / 10),
			})
		}
	}
	for _, t := range []struct {
		name string
		rows []starmagic.Row
	}{{"department", depts}, {"employee", emps}, {"sales", sales}, {"orders", orders}} {
		if err := db.InsertRows(t.name, t.rows); err != nil {
			return fmt.Errorf("load %s: %w", t.name, err)
		}
	}
	return nil
}

// loadGraph creates the edge table and the recursive tc view.
func loadGraph(db *starmagic.DB, seed int64) error {
	if _, err := db.Exec(graphSchema); err != nil {
		return fmt.Errorf("graph schema: %w", err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	var edges []starmagic.Row
	for c := 0; c < graphChains; c++ {
		for i := 0; i+1 < graphChainLen; i++ {
			edges = append(edges, starmagic.Row{starmagic.Int(int64(c*1000 + i)), starmagic.Int(int64(c*1000 + i + 1))})
		}
		from := rng.Intn(graphChainLen - 3)
		to := from + 2 + rng.Intn(graphChainLen-from-2)
		edges = append(edges, starmagic.Row{starmagic.Int(int64(c*1000 + from)), starmagic.Int(int64(c*1000 + to))})
	}
	if err := db.InsertRows("edge", edges); err != nil {
		return fmt.Errorf("load edge: %w", err)
	}
	return nil
}

// shape is one query shape: the Table-1 experiment with its selective
// constant turned into `?` placeholders, or the bound transitive closure.
type shape struct {
	ID string
	// Param is the placeholder form; Literal the paper's literal query
	// (internal/bench's text for A-H), which is Param under PaperArgs.
	Param     string
	Literal   string
	PaperArgs []any
	// Domain lists every binding a request may carry.
	Domain [][]any
	// The adhoc workload's extra conjunct `ConjSQL > x`, with x drawn from
	// ConjRange; ConjCol is the result column ConjSQL names.
	ConjCol   int
	ConjSQL   string
	ConjRange [2]float64
}

// Mix weights of the dashboard workload, in percent. Point shapes (A, F,
// G, H) are 70% of the requests, so the median falls in the middle of the
// G requests; D, the slowest shape at 4%, holds the 99th percentile.
var dashboardWeights = map[string]int{
	"A": 20, "F": 20, "G": 20, "H": 10,
	"B": 6, "C": 6, "D": 4, "E": 6, "TC": 8,
}

// Mix weights of the point reads of adhoc and ingest, in percent.
var pointWeights = map[string]int{"A": 30, "F": 30, "G": 30, "H": 10}

// shapeOrder is the reporting order of the shapes.
var shapeOrder = []string{"A", "B", "C", "D", "E", "F", "G", "H", "TC"}

func intRange(lo, hi int) [][]any {
	var out [][]any
	for v := lo; v <= hi; v++ {
		out = append(out, []any{v})
	}
	return out
}

// shapes returns the ten shapes keyed by ID, with binding domains sized
// for sz.
func shapes(sz dataSize) map[string]*shape {
	lit := map[string]string{}
	for _, e := range bench.Experiments() {
		lit[e.ID] = e.Query
	}
	var names, regions [][]any
	for d := 1; d <= sz.Depts; d++ {
		names = append(names, []any{deptName(d)})
	}
	for r := 0; r < 10; r++ {
		regions = append(regions, []any{fmt.Sprintf("R%02d", r)})
	}
	var pairs [][]any
	for lo := 1008; lo <= 1017; lo++ {
		for _, hi := range []int{149000, 149010, 149020, 149030} {
			pairs = append(pairs, []any{lo, hi})
		}
	}
	var nodes [][]any
	for c := 0; c < graphChains; c++ {
		for i := 0; i < 3; i++ {
			nodes = append(nodes, []any{c*1000 + i})
		}
	}
	out := map[string]*shape{
		"A": {Param: `SELECT d.deptname, v.avgsal FROM department d, avgSalary v
			WHERE d.deptno = v.workdept AND d.deptname = ?`,
			PaperArgs: []any{"Planning"}, Domain: names,
			ConjCol: 1, ConjSQL: "v.avgsal", ConjRange: [2]float64{52000, 68000}},
		"B": {Param: `SELECT e.empname, v.total FROM employee e, deptSales v
			WHERE e.workdept = v.deptno AND e.empno < ?`,
			PaperArgs: []any{1030}, Domain: intRange(1010, 1040)},
		"C": {Param: `SELECT d.deptname, v.total FROM department d, deptOrders v
			WHERE d.deptno = v.deptno AND d.deptno < ?`,
			PaperArgs: []any{7}, Domain: intRange(3, 12)},
		"D": {Param: `SELECT d.deptname, v.total FROM department d, deptOrdersJ v
			WHERE d.deptno = v.deptno AND d.deptno <= ?`,
			PaperArgs: []any{120}, Domain: intRange(100, 130)},
		"E": {Param: `SELECT e.empname, v.total FROM employee e, deptSales v
			WHERE e.workdept = v.deptno AND (e.empno < ? OR e.empno > ?)`,
			PaperArgs: []any{1013, 149000}, Domain: pairs},
		"F": {Param: `SELECT d.deptname, v.headcount FROM department d, avgSalary v
			WHERE d.deptno = v.workdept AND d.deptno = ?`,
			PaperArgs: []any{3}, Domain: intRange(1, sz.Depts),
			ConjCol: 1, ConjSQL: "v.headcount", ConjRange: [2]float64{0, 2 * float64(sz.EmpsPerDept)}},
		"G": {Param: `SELECT d.deptname, v.deptno, v.avgamount FROM department d, deptAvgSales v
			WHERE d.deptno = v.deptno AND d.deptname = ?`,
			PaperArgs: []any{"Planning"}, Domain: names,
			ConjCol: 2, ConjSQL: "v.avgamount", ConjRange: [2]float64{450, 550}},
		"H": {Param: `SELECT v.region, v.totalsal FROM regionPay v
			WHERE v.region = ?`,
			PaperArgs: []any{"R03"}, Domain: regions,
			ConjCol: 1, ConjSQL: "v.totalsal", ConjRange: [2]float64{6e4 * float64(sz.EmpsPerDept), 1.2e5 * float64(sz.EmpsPerDept)}},
		"TC": {Param: `SELECT dst FROM tc WHERE src = ?`,
			Literal:   `SELECT dst FROM tc WHERE src = 7000`,
			PaperArgs: []any{7000}, Domain: nodes},
	}
	for id, s := range out {
		s.ID = id
		if l, ok := lit[id]; ok {
			s.Literal = l
		}
	}
	return out
}

// sqlLiteral renders a binding as SQL text.
func sqlLiteral(v any) string {
	if s, ok := v.(string); ok {
		return "'" + s + "'"
	}
	return fmt.Sprint(v)
}

// inline substitutes args for the `?` placeholders of q, left to right.
func inline(q string, args []any) string {
	out := make([]byte, 0, len(q)+16)
	k := 0
	for i := 0; i < len(q); i++ {
		if q[i] == '?' && k < len(args) {
			out = append(out, sqlLiteral(args[k])...)
			k++
			continue
		}
		out = append(out, q[i])
	}
	return string(out)
}

// requestGen is one client's seeded request generator. Shapes are dealt
// from shuffled blocks that hold each shape exactly its weight times, so
// every 100 consecutive requests of a client carry the mix exactly and no
// stretch of a window is heavier than another by chance.
type requestGen struct {
	rng   *rand.Rand
	block []string
	next  int
}

func newRequestGen(seed int64, client int, weights map[string]int) *requestGen {
	g := &requestGen{rng: clientRNG(seed, client)}
	for _, id := range shapeOrder {
		for i := 0; i < weights[id]; i++ {
			g.block = append(g.block, id)
		}
	}
	return g
}

// shape deals the next shape ID.
func (g *requestGen) shape() string {
	if g.next == 0 {
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	id := g.block[g.next]
	g.next = (g.next + 1) % len(g.block)
	return id
}

// clientRNG seeds one client's requests: the same seed and client give the
// same request sequence.
func clientRNG(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + 17))
}

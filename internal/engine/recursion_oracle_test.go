package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// The recursion oracle checks every recursive-view evaluation path against
// closures computed here by breadth-first search over the edge list. It
// shares no code with the engine: the graph, the expected answers and the
// comparison are all local to this file.

// oracleGraph is a seeded random directed graph over nodes 1..n with the
// shapes recursion gets wrong most easily: a chain, a cycle, a diamond, a
// self-loop, random extra edges, and duplicated edges.
type oracleGraph struct {
	n     int
	edges [][2]int
}

func newOracleGraph(rng *rand.Rand) oracleGraph {
	g := oracleGraph{n: 12 + rng.Intn(5)}
	node := func() int { return 1 + rng.Intn(g.n) }
	add := func(a, b int) { g.edges = append(g.edges, [2]int{a, b}) }
	// Chain 1 -> 2 -> ... -> 5.
	for i := 1; i < 5; i++ {
		add(i, i+1)
	}
	// Cycle 6 -> 7 -> 8 -> 6, entered from the chain.
	add(6, 7)
	add(7, 8)
	add(8, 6)
	add(3, 6)
	// Diamond 9 -> {10, 11} -> 12.
	add(9, 10)
	add(9, 11)
	add(10, 12)
	add(11, 12)
	// Self-loop.
	s := node()
	add(s, s)
	for i := rng.Intn(6); i > 0; i-- {
		add(node(), node())
	}
	// Duplicates of existing edges.
	for i := 1 + rng.Intn(3); i > 0; i-- {
		e := g.edges[rng.Intn(len(g.edges))]
		add(e[0], e[1])
	}
	return g
}

// walks returns, for every node x, the set of nodes y reachable from x by a
// walk whose length is at least one and, when parity is 1 or 0, odd or
// even (parity -1 accepts any length).
func (g oracleGraph) walks(parity int) map[int]map[int]bool {
	succ := map[int][]int{}
	for _, e := range g.edges {
		succ[e[0]] = append(succ[e[0]], e[1])
	}
	out := map[int]map[int]bool{}
	for x := 1; x <= g.n; x++ {
		type state struct{ node, par int }
		seen := map[state]bool{}
		var queue []state
		for _, y := range succ[x] {
			st := state{y, 1}
			if !seen[st] {
				seen[st] = true
				queue = append(queue, st)
			}
		}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, y := range succ[cur.node] {
				st := state{y, 1 - cur.par}
				if !seen[st] {
					seen[st] = true
					queue = append(queue, st)
				}
			}
		}
		out[x] = map[int]bool{}
		for st := range seen {
			if parity < 0 || st.par == parity {
				out[x][st.node] = true
			}
		}
	}
	return out
}

// oracleViews are the recursive views under test, each over edge(src, dst)
// and with the parity of walk lengths it holds.
var oracleViews = []struct {
	name   string
	parity int
	ddl    string
}{
	{"tcl", -1, `CREATE VIEW tcl (src, dst) AS
	  SELECT src, dst FROM edge
	  UNION SELECT t.src, e.dst FROM tcl t, edge e WHERE t.dst = e.src`},
	{"tcr", -1, `CREATE VIEW tcr (src, dst) AS
	  SELECT src, dst FROM edge
	  UNION SELECT e.src, t.dst FROM edge e, tcr t WHERE e.dst = t.src`},
	{"tcn", -1, `CREATE VIEW tcn (src, dst) AS
	  SELECT src, dst FROM edge
	  UNION SELECT a.src, b.dst FROM tcn a, tcn b WHERE a.dst = b.src`},
	{"tca", -1, `CREATE VIEW tca (src, dst) AS
	  SELECT src, dst FROM edge
	  UNION ALL SELECT t.src, e.dst FROM tca t, edge e WHERE t.dst = e.src`},
	{"oddw", 1, `CREATE VIEW oddw (src, dst) AS
	  SELECT src, dst FROM edge
	  UNION SELECT v.src, e.dst FROM evenw v, edge e WHERE v.dst = e.src`},
	{"evenw", 0, `CREATE VIEW evenw (src, dst) AS
	  SELECT o.src, e.dst FROM oddw o, edge e WHERE o.dst = e.src`},
}

// oracleQuery is one query over a view with its expected rows, rendered
// and sorted.
type oracleQuery struct {
	sql  string
	want string
}

func oracleQueries(g oracleGraph, rng *rand.Rand) []oracleQuery {
	var qs []oracleQuery
	render := func(rows []string) string {
		sort.Strings(rows)
		return strings.Join(rows, ";")
	}
	for _, v := range oracleViews {
		reach := g.walks(v.parity)
		var all []string
		for x, ys := range reach {
			for y := range ys {
				all = append(all, fmt.Sprintf("%d|%d", x, y))
			}
		}
		qs = append(qs, oracleQuery{fmt.Sprintf("SELECT src, dst FROM %s", v.name), render(all)})
		for i := 0; i < 2; i++ {
			k := 1 + rng.Intn(g.n)
			var fwd, back []string
			for y := range reach[k] {
				fwd = append(fwd, fmt.Sprint(y))
			}
			for x, ys := range reach {
				if ys[k] {
					back = append(back, fmt.Sprint(x))
				}
			}
			// Bound through a join: both columns of the view meet edge
			// columns, one row per pair of edge occurrences.
			var joined []string
			for _, e1 := range g.edges {
				for _, e2 := range g.edges {
					if e1[0] == k && e1[1] == e2[0] && reach[k][e2[1]] {
						joined = append(joined, fmt.Sprintf("%d|%d", k, e2[1]))
					}
				}
			}
			qs = append(qs,
				oracleQuery{fmt.Sprintf("SELECT dst FROM %s WHERE src = %d", v.name, k), render(fwd)},
				oracleQuery{fmt.Sprintf("SELECT src FROM %s WHERE dst = %d", v.name, k), render(back)},
				oracleQuery{fmt.Sprintf(`SELECT t.src, t.dst FROM edge e1, edge e2, %s t
				  WHERE e1.dst = e2.src AND t.src = e1.src AND t.dst = e2.dst AND e1.src = %d`, v.name, k), render(joined)})
		}
		// Bound by each row of an enclosing query (correlation).
		var counts []string
		for _, e := range g.edges {
			counts = append(counts, fmt.Sprintf("%d|%d", e[0], len(reach[e[0]])))
		}
		qs = append(qs, oracleQuery{fmt.Sprintf(
			"SELECT e.src, (SELECT COUNT(*) FROM %s t WHERE t.src = e.src) FROM edge e", v.name), render(counts)})
	}
	return qs
}

// TestRecursionOracle runs each view — unbound, bound in each position by a
// constant, bound through a join, and bound by an enclosing row — under
// every strategy × execution path × memory mode, and compares the result
// with the BFS closure. Odd seeds index edge.src; even seeds leave
// the fixpoint's joins to hash builds.
func TestRecursionOracle(t *testing.T) {
	seeds := 4
	if testing.Short() {
		seeds = 2
	}
	ctx := context.Background()
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := newOracleGraph(rng)
		db := New()
		ddl := "CREATE TABLE edge (src INT, dst INT);"
		if seed%2 == 1 {
			ddl += "CREATE INDEX edge_src ON edge (src);"
		}
		for _, v := range oracleViews {
			ddl += v.ddl + ";"
		}
		if _, err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
		var ins strings.Builder
		ins.WriteString("INSERT INTO edge VALUES ")
		for i, e := range g.edges {
			if i > 0 {
				ins.WriteString(", ")
			}
			fmt.Fprintf(&ins, "(%d, %d)", e[0], e[1])
		}
		if _, err := db.Exec(ins.String()); err != nil {
			t.Fatal(err)
		}
		for _, q := range oracleQueries(g, rng) {
			for _, s := range []Strategy{Original, Correlated, EMST} {
				for _, mode := range []string{"streaming", "row", "materialized"} {
					db.SetVectorized(mode != "row")
					for _, limit := range []int64{0, 64 << 10} {
						opts := []QueryOption{WithStrategy(s)}
						if mode == "materialized" {
							opts = append(opts, WithMaterialized())
						}
						if limit > 0 {
							opts = append(opts, WithMemoryLimit(limit))
						}
						res, err := db.QueryContext(ctx, q.sql, opts...)
						if err != nil {
							t.Fatalf("seed %d %s %v %s limit %d: %v", seed, q.sql, s, mode, limit, err)
						}
						rows := rowsAsStrings(res)
						sort.Strings(rows)
						if got := strings.Join(rows, ";"); got != q.want {
							t.Fatalf("seed %d %s %v %s limit %d:\ngot  %s\nwant %s\nedges %v",
								seed, q.sql, s, mode, limit, got, q.want, g.edges)
						}
					}
				}
			}
		}
	}
}

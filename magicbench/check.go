package main

// The result oracle: a request's rows are compared, as an unordered
// multiset of text cells, with the rows the same shape and binding return
// under StrategyOriginal (no magic rewrite). Floats are compared with a
// relative tolerance, because EMST and Original may sum in another order.

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"starmagic"
)

// cells renders engine rows as text cells, the form wire results arrive in.
func cells(rows []starmagic.Row) [][]string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = make([]string, len(r))
		for j, d := range r {
			out[i][j] = d.Format()
		}
	}
	return out
}

// sortKey orders rows for pairing: floats are rounded so that two sides
// differing only in the last bits sort alike.
func sortKey(row []string) string {
	var sb strings.Builder
	for _, c := range row {
		if f, err := strconv.ParseFloat(c, 64); err == nil && strings.ContainsAny(c, ".eE") {
			c = strconv.FormatFloat(f, 'e', 6, 64)
		}
		sb.WriteString(c)
		sb.WriteByte(0)
	}
	return sb.String()
}

func sortedRows(rows [][]string) [][]string {
	type keyed struct {
		key string
		row []string
	}
	ks := make([]keyed, len(rows))
	for i, r := range rows {
		ks[i] = keyed{sortKey(r), r}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	out := make([][]string, len(ks))
	for i, k := range ks {
		out[i] = k.row
	}
	return out
}

func sameCell(a, b string) bool {
	if a == b {
		return true
	}
	x, err1 := strconv.ParseFloat(a, 64)
	y, err2 := strconv.ParseFloat(b, 64)
	if err1 != nil || err2 != nil {
		return false
	}
	return math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y))
}

// compareRows reports how got differs from want, or nil when they hold the
// same rows.
func compareRows(got, want [][]string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	g, w := sortedRows(got), sortedRows(want)
	for i := range g {
		if len(g[i]) != len(w[i]) {
			return fmt.Errorf("row %d has %d columns, want %d", i, len(g[i]), len(w[i]))
		}
		for j := range g[i] {
			if !sameCell(g[i][j], w[i][j]) {
				return fmt.Errorf("row %d column %d = %q, want %q", i, j, g[i][j], w[i][j])
			}
		}
	}
	return nil
}

// filterAbove keeps the rows whose column col exceeds x: the adhoc
// workload's extra conjunct, applied to the reference rows.
func filterAbove(rows []starmagic.Row, col int, x float64) []starmagic.Row {
	var out []starmagic.Row
	for _, r := range rows {
		if !r[col].IsNull() && r[col].AsFloat() > x {
			out = append(out, r)
		}
	}
	return out
}

// refKey identifies one shape under one binding.
func refKey(id string, args []any) string { return id + fmt.Sprint(args) }

// references maps refKey to the rows StrategyOriginal returns.
type references map[string][]starmagic.Row

// computeReferences runs every shape of ids over its whole binding domain
// under StrategyOriginal, from `clients` goroutines.
func computeReferences(db *starmagic.DB, all map[string]*shape, ids []string) (references, error) {
	type job struct {
		id   string
		p    *starmagic.Prepared
		args []any
	}
	var jobs []job
	for _, id := range ids {
		s := all[id]
		p, err := db.PrepareContext(bg, s.Param, starmagic.WithStrategy(starmagic.StrategyOriginal))
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", id, err)
		}
		for _, args := range s.Domain {
			jobs = append(jobs, job{id, p, args})
		}
	}
	rows := make([][]starmagic.Row, len(jobs))
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(jobs) && errs[w] == nil; i += clients {
				res, err := jobs[i].p.ExecuteContext(bg, jobs[i].args...)
				if err != nil {
					errs[w] = fmt.Errorf("reference %s%v: %w", jobs[i].id, jobs[i].args, err)
					continue
				}
				rows[i] = res.Rows
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	refs := references{}
	for i, j := range jobs {
		refs[refKey(j.id, j.args)] = rows[i]
	}
	// Collect the reference runs' garbage before the workload starts, so
	// that it does not count in the workload's peak RSS.
	runtime.GC()
	return refs, nil
}

// corruptRefs alters one reference row of every binding of s, so that the
// oracle must reject the results of s.
func corruptRefs(refs references, s *shape) {
	for _, args := range s.Domain {
		k := refKey(s.ID, args)
		if rows := refs[k]; len(rows) > 0 {
			bad := append(starmagic.Row(nil), rows[0]...)
			bad[0] = starmagic.String("corrupted")
			refs[k] = append([]starmagic.Row{bad}, rows[1:]...)
		}
	}
}

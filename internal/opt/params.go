package opt

import (
	"starmagic/internal/catalog"
	"starmagic/internal/datum"
	"starmagic/internal/qgm"
)

// ParamCmp is a comparison between a base-table column and a `?`
// placeholder, resolved against the column's statistics when the plan is
// prepared. Sel re-estimates it under each binding without a lock: ANALYZE
// installs new statistics rather than editing the ones a plan resolved.
type ParamCmp struct {
	// Param is the placeholder's ordinal; Op reads with the column on the
	// left.
	Param int
	Op    datum.CmpOp
	Stats *catalog.ColumnStats
}

// ParamCmps returns the distinct column-vs-placeholder comparisons in the
// predicates of g's boxes whose column traces to base-table statistics, in
// graph order, at most max of them. These are the comparisons a binding
// can move the estimator's selectivities on.
func ParamCmps(g *qgm.Graph, max int) []ParamCmp {
	var out []ParamCmp
	e := &Estimator{}
	var walk func(x qgm.Expr)
	walk = func(x qgm.Expr) {
		switch x := x.(type) {
		case *qgm.Cmp:
			c, ok := e.paramCmp(x)
			if !ok {
				return
			}
			for _, have := range out {
				if have == c {
					return
				}
			}
			if len(out) < max {
				out = append(out, c)
			}
		case *qgm.Logic:
			for _, a := range x.Args {
				walk(a)
			}
		case *qgm.Not:
			walk(x.X)
		}
	}
	for _, b := range g.Reachable() {
		for _, p := range b.Preds {
			walk(p)
		}
	}
	return out
}

// paramCmp resolves cmp as a column-vs-placeholder comparison.
func (e *Estimator) paramCmp(cmp *qgm.Cmp) (ParamCmp, bool) {
	cr, other, op, ok := colSide(cmp)
	if !ok {
		return ParamCmp{}, false
	}
	p, ok := other.(*qgm.Param)
	if !ok {
		return ParamCmp{}, false
	}
	st, ok := e.baseColStats(cr.Q.Ranges, cr.Ord)
	if !ok {
		return ParamCmp{}, false
	}
	return ParamCmp{Param: p.Ord, Op: op, Stats: st}, true
}

// Sel estimates the comparison's selectivity with the placeholder bound to
// v, as the estimator would with v peeked. ok is false when v is NULL or
// the statistics cannot answer; the estimator then uses a flat default
// that does not depend on v.
func (c ParamCmp) Sel(v datum.D, noHist bool) (float64, bool) {
	if v.IsNull() {
		return 0, false
	}
	switch c.Op {
	case datum.EQ, datum.NE:
		if noHist {
			return 0, false
		}
		s, ok := histEq(c.Stats, v)
		if c.Op == datum.NE {
			s = 1 - s
		}
		return s, ok
	}
	return statsRangeSel(c.Stats, c.Op, v, noHist)
}

// Package opt is the plan optimizer: statistics-based cardinality and
// selectivity estimation, Selinger-style dynamic-programming join-order
// enumeration (with a greedy fallback for wide joins), and whole-graph
// costing.
//
// In the paper's architecture (§3.2, Figure 2) the plan optimizer runs
// twice: once after phase-1 rewrite to pick the join orders EMST will use,
// and once after EMST to cost the transformed graph. The final execution
// uses whichever of the pre-/post-EMST plans is cheaper, giving the
// guarantee that EMST cannot degrade the plan.
package opt

import (
	"math"

	"starmagic/internal/catalog"
	"starmagic/internal/datum"
	"starmagic/internal/qgm"
)

// Default estimates when statistics are missing.
const (
	defaultTableRows = 1000.0
	defaultNDVFrac   = 0.1 // NDV guess: 10% of rows
	rangeSelectivity = 1.0 / 3
	likeSelectivity  = 1.0 / 4
	defaultSel       = 1.0 / 3
	existsSel        = 0.5
)

// Estimator computes cardinalities, per-column distinct counts, and
// predicate selectivities over a QGM graph, memoized per box.
type Estimator struct {
	card map[*qgm.Box]float64
	// Hints maps box keys (HintKey: the box name, deterministic across
	// re-plans of the same SQL, plus the adornment of an EMST copy) to
	// observed output cardinalities from execution feedback. A hinted box's
	// Card is the observed value, overriding the statistical estimate — this
	// is how re-optimization injects actuals.
	Hints map[string]float64
	// NoHist disables histogram probes, reverting to the flat defaults
	// (defaultNDVFrac and the fixed comparison selectivities). Used for
	// flat-baseline comparisons in tests and benchmarks.
	NoHist bool
	// Params are peeked bindings of the graph's `?` placeholders. They feed
	// estimates only: a comparison between a column and a `?` is costed
	// like one against the bound literal. The graph keeps its Param nodes,
	// so a plan optimized under one binding stays correct for every other.
	Params datum.Row
}

// NewEstimator returns a fresh estimator (statistics are read from the
// catalog tables referenced by base boxes; run ANALYZE first for real
// numbers).
func NewEstimator() *Estimator {
	return &Estimator{card: map[*qgm.Box]float64{}}
}

// NewEstimatorWith returns an estimator with execution-feedback cardinality
// hints and an optional flat-statistics mode.
func NewEstimatorWith(hints map[string]float64, noHist bool) *Estimator {
	return &Estimator{card: map[*qgm.Box]float64{}, Hints: hints, NoHist: noHist}
}

// HintKey is the key a box's feedback cardinality is filed under: its name,
// plus the adornment of an EMST adorned copy. The copy keeps its origin's
// name but computes a magic-restricted subset of it, so an observation of
// the copy must not stand for the unrestricted box in a re-planned graph.
func HintKey(b *qgm.Box) string {
	if b.Adornment == "" {
		return b.Name
	}
	return b.Name + " ^" + b.Adornment
}

// Card estimates the output cardinality of a box.
func (e *Estimator) Card(b *qgm.Box) float64 {
	if c, ok := e.card[b]; ok {
		return c
	}
	e.card[b] = 1 // cycle guard; QGM graphs are acyclic but be safe
	c, hinted := 0.0, false
	if e.Hints != nil && b.Name != "" {
		c, hinted = e.Hints[HintKey(b)]
	}
	if !hinted {
		c = e.cardNow(b)
	}
	if c < 1 {
		c = 1
	}
	e.card[b] = c
	return c
}

func (e *Estimator) cardNow(b *qgm.Box) float64 {
	switch b.Kind {
	case qgm.KindBaseTable:
		if b.Table != nil && b.Table.RowCount > 0 {
			return float64(b.Table.RowCount)
		}
		return defaultTableRows
	case qgm.KindSelect:
		card := 1.0
		for _, q := range b.Quantifiers {
			switch q.Type {
			case qgm.ForEach:
				card *= e.Card(q.Ranges)
			case qgm.Exists, qgm.ForAll:
				card *= existsSel
			}
		}
		for _, p := range b.Preds {
			card *= e.Selectivity(b, p)
		}
		// Duplicate-eliminating (or provably duplicate-free) boxes cannot
		// exceed the product of their output columns' distinct counts.
		// Magic tables are DISTINCT projections of join prefixes, so this
		// cap is what makes their smallness visible to the cost model.
		if b.Distinct != qgm.DistinctPreserve {
			ndv := 1.0
			for _, oc := range b.Output {
				if oc.Expr == nil {
					ndv = card
					break
				}
				ndv *= e.exprNDV(oc.Expr, card)
				if ndv >= card {
					break
				}
			}
			if ndv < card {
				card = ndv
			}
		}
		return card
	case qgm.KindGroupBy:
		child := e.Card(b.Quantifiers[0].Ranges)
		if len(b.GroupBy) == 0 {
			return 1
		}
		groups := 1.0
		for _, ge := range b.GroupBy {
			groups *= e.exprNDV(ge, child)
		}
		if groups > child {
			groups = child
		}
		return groups
	case qgm.KindUnion:
		sum := 0.0
		for _, q := range b.Quantifiers {
			sum += e.Card(q.Ranges)
		}
		if b.Distinct == qgm.DistinctEnforce {
			sum *= 0.8
		}
		return sum
	case qgm.KindIntersect:
		l := e.Card(b.Quantifiers[0].Ranges)
		r := e.Card(b.Quantifiers[1].Ranges)
		if r < l {
			return r / 2
		}
		return l / 2
	case qgm.KindExcept:
		return e.Card(b.Quantifiers[0].Ranges) / 2
	default:
		// Extension kinds: assume pass-through of the first child.
		if len(b.Quantifiers) > 0 {
			return e.Card(b.Quantifiers[0].Ranges)
		}
		return 1
	}
}

// NDV estimates the number of distinct values of output column ord of b.
func (e *Estimator) NDV(b *qgm.Box, ord int) float64 {
	card := e.Card(b)
	switch b.Kind {
	case qgm.KindBaseTable:
		if b.Table != nil && ord < len(b.Table.Stats) {
			if d := b.Table.Stats[ord].DistinctCount; d > 0 {
				return float64(d)
			}
		}
		return clamp(card*defaultNDVFrac, 1, card)
	case qgm.KindSelect:
		if ord < len(b.Output) && b.Output[ord].Expr != nil {
			ndv := e.exprNDV(b.Output[ord].Expr, card)
			// Local filters thin out distinct values too. The true effect
			// depends on correlations the statistics cannot see; damp with a
			// square root as a middle ground. This is what lets the cost
			// model see that a magic table over a filtered prefix is small.
			if f := e.localFilterFrac(b); f < 1 {
				ndv *= math.Sqrt(f)
			}
			return clamp(ndv, 1, card)
		}
	case qgm.KindGroupBy:
		if ord < len(b.GroupBy) {
			return clamp(e.exprNDV(b.GroupBy[ord], card), 1, card)
		}
		return card // aggregate outputs: roughly one per group
	case qgm.KindUnion, qgm.KindIntersect, qgm.KindExcept:
		return clamp(e.NDV(b.Quantifiers[0].Ranges, ord), 1, card)
	}
	return clamp(card*defaultNDVFrac, 1, card)
}

// localFilterFrac multiplies the selectivities of b's single-quantifier
// (local) predicates — the fraction of rows surviving filters, excluding
// join predicates.
func (e *Estimator) localFilterFrac(b *qgm.Box) float64 {
	f := 1.0
	for _, p := range b.Preds {
		refs := qgm.RefsQuantifiers(p)
		if len(refs) > 1 {
			continue
		}
		f *= e.Selectivity(b, p)
	}
	if f < 1e-6 {
		f = 1e-6
	}
	return f
}

// exprNDV estimates distinct values of an expression in a context with the
// given row count.
func (e *Estimator) exprNDV(expr qgm.Expr, contextCard float64) float64 {
	switch x := expr.(type) {
	case *qgm.ColRef:
		return clamp(e.NDV(x.Q.Ranges, x.Ord), 1, contextCard)
	case *qgm.Const:
		return 1
	case *qgm.Param:
		// A parameter is one (unknown) value per execution.
		return 1
	case *qgm.Arith:
		return clamp(e.exprNDV(x.L, contextCard)*e.exprNDV(x.R, contextCard), 1, contextCard)
	case *qgm.Neg:
		return e.exprNDV(x.X, contextCard)
	default:
		return clamp(contextCard*defaultNDVFrac, 1, contextCard)
	}
}

// Selectivity estimates the fraction of rows of box b satisfying pred.
func (e *Estimator) Selectivity(b *qgm.Box, pred qgm.Expr) float64 {
	switch x := pred.(type) {
	case *qgm.Cmp:
		switch x.Op {
		case datum.EQ:
			// Column = constant with a histogram: exact per-value frequency,
			// which is where skewed (Zipf) columns diverge from the flat
			// 1/NDV guess by orders of magnitude.
			if s, ok := e.histEqSel(x); ok {
				return s
			}
			ln := e.sideNDV(x.L)
			rn := e.sideNDV(x.R)
			n := ln
			if rn > n {
				n = rn
			}
			if n < 1 {
				n = 1
			}
			return 1 / n
		case datum.NE:
			return 1 - e.Selectivity(b, &qgm.Cmp{Op: datum.EQ, L: x.L, R: x.R})
		default:
			if s, ok := e.rangeSel(x); ok {
				return s
			}
			return rangeSelectivity
		}
	case *qgm.Logic:
		if x.Op == qgm.And {
			s := 1.0
			for _, a := range x.Args {
				s *= e.Selectivity(b, a)
			}
			return s
		}
		s := 0.0
		for _, a := range x.Args {
			sa := e.Selectivity(b, a)
			s = s + sa - s*sa
		}
		return s
	case *qgm.Not:
		return 1 - e.Selectivity(b, x.X)
	case *qgm.IsNull:
		if !x.Negate {
			return 0.1
		}
		return 0.9
	case *qgm.Like:
		if x.Negate {
			return 1 - likeSelectivity
		}
		return likeSelectivity
	case *qgm.Const:
		if !x.Val.IsNull() && x.Val.T == datum.TBool && x.Val.B {
			return 1
		}
		return 0.0001
	case *qgm.Match:
		return 1
	}
	return defaultSel
}

// colSide splits cmp into a column reference and the other side, flipping
// the operator so the column is on the left. ok is false when neither side
// is a column.
func colSide(cmp *qgm.Cmp) (cr *qgm.ColRef, other qgm.Expr, op datum.CmpOp, ok bool) {
	if cr, ok := cmp.L.(*qgm.ColRef); ok {
		return cr, cmp.R, cmp.Op, true
	}
	cr, ok = cmp.R.(*qgm.ColRef)
	return cr, cmp.L, cmp.Op.Flip(), ok
}

// colValue decomposes cmp into a column reference and the value it is
// compared with, the column on the left. The value is a literal, or a `?`
// read as its peeked binding (Params). ok is false for any other
// comparison and for a NULL value.
func (e *Estimator) colValue(cmp *qgm.Cmp) (cr *qgm.ColRef, v datum.D, op datum.CmpOp, ok bool) {
	cr, other, op, ok := colSide(cmp)
	if !ok {
		return nil, v, op, false
	}
	switch x := other.(type) {
	case *qgm.Const:
		v = x.Val
	case *qgm.Param:
		if x.Ord >= len(e.Params) {
			return nil, v, op, false
		}
		v = e.Params[x.Ord]
	default:
		return nil, v, op, false
	}
	if v.IsNull() {
		return nil, v, op, false
	}
	return cr, v, op, true
}

// histEqSel answers column = value from the column's equi-depth
// histogram.
func (e *Estimator) histEqSel(cmp *qgm.Cmp) (float64, bool) {
	if e.NoHist {
		return 0, false
	}
	cr, v, op, ok := e.colValue(cmp)
	if !ok || op != datum.EQ {
		return 0, false
	}
	st, ok := e.baseColStats(cr.Q.Ranges, cr.Ord)
	if !ok {
		return 0, false
	}
	return histEq(st, v)
}

// histEq reads the frequency of v from the column's histogram.
// Interned-string columns work the same as numerics here: the histogram
// buckets hold the string datums themselves (interned ids are an
// executor-side representation), so the value probes as itself.
func histEq(st *catalog.ColumnStats, v datum.D) (float64, bool) {
	if st.Hist == nil || !datum.Comparable(v.T, st.Hist.Low.T) {
		return 0, false
	}
	return st.Hist.EqSel(v)
}

// rangeSel estimates the selectivity of a range comparison between a column
// and a value.
func (e *Estimator) rangeSel(cmp *qgm.Cmp) (float64, bool) {
	cr, v, op, ok := e.colValue(cmp)
	if !ok {
		return 0, false
	}
	st, ok := e.baseColStats(cr.Q.Ranges, cr.Ord)
	if !ok {
		return 0, false
	}
	return statsRangeSel(st, op, v, e.NoHist)
}

// statsRangeSel estimates the fraction of a column's rows satisfying
// `column op v` for a range operator: from the column's histogram when one
// exists (bucket walk with linear interpolation inside the containing
// bucket), else from min/max interpolation.
func statsRangeSel(st *catalog.ColumnStats, op datum.CmpOp, v datum.D, noHist bool) (float64, bool) {
	if !noHist && st.Hist != nil && datum.Comparable(v.T, st.Hist.Low.T) {
		switch op {
		case datum.LT:
			if s, ok := st.Hist.LessSel(v, false); ok {
				return clamp(s, 0.0005, 1), true
			}
		case datum.LE:
			if s, ok := st.Hist.LessSel(v, true); ok {
				return clamp(s, 0.0005, 1), true
			}
		case datum.GT:
			if s, ok := st.Hist.LessSel(v, true); ok {
				return clamp(1-s, 0.0005, 1), true
			}
		case datum.GE:
			if s, ok := st.Hist.LessSel(v, false); ok {
				return clamp(1-s, 0.0005, 1), true
			}
		}
	}
	if v.T != datum.TInt && v.T != datum.TFloat {
		return 0, false
	}
	lo, hi, ok := statsMinMax(st)
	if !ok || hi <= lo {
		return 0, false
	}
	frac := (v.AsFloat() - lo) / (hi - lo) // fraction of values below v
	switch op {
	case datum.LT, datum.LE:
		return clamp(frac, 0.0005, 1), true
	case datum.GT, datum.GE:
		return clamp(1-frac, 0.0005, 1), true
	}
	return 0, false
}

// baseColStats traces output column ord of box b through select/group-by
// projections back to a base-table column's statistics.
func (e *Estimator) baseColStats(b *qgm.Box, ord int) (*catalog.ColumnStats, bool) {
	for depth := 0; depth < 16; depth++ {
		switch b.Kind {
		case qgm.KindBaseTable:
			if b.Table == nil || ord >= len(b.Table.Stats) {
				return nil, false
			}
			return &b.Table.Stats[ord], true
		case qgm.KindSelect:
			if ord >= len(b.Output) {
				return nil, false
			}
			cr, ok := b.Output[ord].Expr.(*qgm.ColRef)
			if !ok {
				return nil, false
			}
			b, ord = cr.Q.Ranges, cr.Ord
		case qgm.KindGroupBy:
			if ord >= len(b.GroupBy) {
				return nil, false
			}
			cr, ok := b.GroupBy[ord].(*qgm.ColRef)
			if !ok {
				return nil, false
			}
			b, ord = cr.Q.Ranges, cr.Ord
		default:
			return nil, false
		}
	}
	return nil, false
}

// minMax traces a column back to base-table min/max statistics.
func (e *Estimator) minMax(b *qgm.Box, ord int) (float64, float64, bool) {
	st, ok := e.baseColStats(b, ord)
	if !ok {
		return 0, 0, false
	}
	return statsMinMax(st)
}

// statsMinMax reads a numeric column's min/max statistics.
func statsMinMax(st *catalog.ColumnStats) (float64, float64, bool) {
	if st.DistinctCount == 0 || st.Min.IsNull() || st.Max.IsNull() {
		return 0, 0, false
	}
	if st.Min.T != datum.TInt && st.Min.T != datum.TFloat {
		return 0, 0, false
	}
	return st.Min.AsFloat(), st.Max.AsFloat(), true
}

// sideNDV estimates the NDV of a comparison side.
func (e *Estimator) sideNDV(expr qgm.Expr) float64 {
	switch x := expr.(type) {
	case *qgm.ColRef:
		return e.NDV(x.Q.Ranges, x.Ord)
	case *qgm.Const:
		return 1
	case *qgm.Param:
		// Equality against a parameter selects like equality against one
		// value. Histogram and range estimates read peeked bindings
		// (Params) when the caller supplied them, and fall back to the
		// default selectivities otherwise.
		return 1
	default:
		return 10
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

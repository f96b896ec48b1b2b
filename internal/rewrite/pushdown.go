package rewrite

import (
	"starmagic/internal/qgm"
)

// Predicate pushdown machinery ([PHH92] §4.3 of the paper). A separate
// pushdown behavior exists per box kind, deliberately specified
// independently of EMST so extensions can add kinds (paper §5): the EMST
// rule, the local-pushdown rule, and the correlate transform all route
// through CanAbsorbPredicate/PushPredicate.

// absorber describes how a box kind absorbs a predicate expressed over its
// output columns. Extensions register their own.
type absorber struct {
	// mapOutput returns the internal expression computing output ord, and
	// whether the predicate may move past the box through that column.
	// For a select box this is the output expr; for a group-by box only
	// grouping columns are mappable (predicates on aggregated columns stay
	// above; cf. the paper's pushdown through group-by).
	mapOutput func(b *qgm.Box, ord int) (qgm.Expr, bool)
	// terminal is true when the box itself stores the predicate (select);
	// false when the predicate must continue into the box's children
	// (group-by, set operations).
	terminal bool
}

var absorbers = map[qgm.BoxKind]*absorber{
	qgm.KindSelect: {
		terminal: true,
		mapOutput: func(b *qgm.Box, ord int) (qgm.Expr, bool) {
			return b.Output[ord].Expr, true
		},
	},
	qgm.KindGroupBy: {
		terminal: false,
		mapOutput: func(b *qgm.Box, ord int) (qgm.Expr, bool) {
			if ord < len(b.GroupBy) {
				return b.GroupBy[ord], true
			}
			return nil, false // aggregated column: not pushable
		},
	},
}

// RegisterAbsorber installs pushdown behavior for an extension box kind
// that maps outputs like a select box (terminal) does.
func RegisterAbsorber(kind qgm.BoxKind, terminal bool, mapOutput func(b *qgm.Box, ord int) (qgm.Expr, bool)) {
	absorbers[kind] = &absorber{terminal: terminal, mapOutput: mapOutput}
}

// CanAbsorbPredicate reports whether the box q ranges over can absorb a
// predicate whose references to q use the given output ordinals. Interior
// boxes on the path must be single-use (pushing into a shared box would
// change other consumers).
func CanAbsorbPredicate(g *qgm.Graph, q *qgm.Quantifier, pred qgm.Expr) bool {
	ords := refOrds(pred, q)
	return canAbsorb(g, q.Ranges, ords, true)
}

func refOrds(pred qgm.Expr, q *qgm.Quantifier) []int {
	seen := map[int]bool{}
	var ords []int
	qgm.VisitRefs(pred, func(c *qgm.ColRef) {
		if c.Q == q && !seen[c.Ord] {
			seen[c.Ord] = true
			ords = append(ords, c.Ord)
		}
	})
	return ords
}

// canAbsorb checks absorbability of a predicate over the given output
// ordinals of box b. first marks the top-level call: the caller vouches for
// b's use count there (EMST pushes into private adorned copies).
func canAbsorb(g *qgm.Graph, b *qgm.Box, ords []int, first bool) bool {
	if !first && g.UseCount(b) > 1 {
		return false
	}
	switch b.Kind {
	case qgm.KindUnion:
		for _, bq := range b.Quantifiers {
			if !canAbsorb(g, bq.Ranges, ords, false) {
				return false
			}
		}
		return true
	case qgm.KindIntersect, qgm.KindExcept:
		for _, bq := range b.Quantifiers {
			if !canAbsorb(g, bq.Ranges, ords, false) {
				return false
			}
		}
		return true
	}
	ab, ok := absorbers[b.Kind]
	if !ok {
		return false
	}
	if ab.terminal {
		for _, ord := range ords {
			if _, mappable := ab.mapOutput(b, ord); !mappable {
				return false
			}
		}
		return true
	}
	// Non-terminal (group-by): map ordinals and continue into the single
	// input.
	if len(b.Quantifiers) != 1 {
		return false
	}
	inner := make([]int, 0, len(ords))
	innerSeen := map[int]bool{}
	for _, ord := range ords {
		e, mappable := ab.mapOutput(b, ord)
		if !mappable {
			return false
		}
		ok := true
		qgm.VisitRefs(e, func(c *qgm.ColRef) {
			if c.Q != b.Quantifiers[0] {
				ok = false
				return
			}
			if !innerSeen[c.Ord] {
				innerSeen[c.Ord] = true
				inner = append(inner, c.Ord)
			}
		})
		if !ok {
			return false
		}
	}
	return canAbsorb(g, b.Quantifiers[0].Ranges, inner, false)
}

// PushPredicate moves pred — a predicate in q's parent box referencing q
// (references to other quantifiers become correlated references) — into
// the box q ranges over. The caller must have removed pred from the parent
// and verified CanAbsorbPredicate. Group-by boxes are traversed (the
// predicate lands in their input); set operations replicate the predicate
// into every branch.
func PushPredicate(g *qgm.Graph, q *qgm.Quantifier, pred qgm.Expr) {
	pushInto(g, q.Ranges, q, pred)
}

// pushInto rewrites pred's references to viaQ through box b's output
// mapping and stores or forwards it.
func pushInto(g *qgm.Graph, b *qgm.Box, viaQ *qgm.Quantifier, pred qgm.Expr) {
	switch b.Kind {
	case qgm.KindUnion, qgm.KindIntersect, qgm.KindExcept:
		for _, bq := range b.Quantifiers {
			// Positional remap onto the branch quantifier, then recurse.
			branchPred := qgm.RewriteRefs(pred, func(c *qgm.ColRef) qgm.Expr {
				if c.Q == viaQ {
					return &qgm.ColRef{Q: bq, Ord: c.Ord}
				}
				return nil
			})
			pushInto(g, bq.Ranges, bq, branchPred)
		}
		return
	}
	ab := absorbers[b.Kind]
	if ab.terminal {
		mapped := qgm.RewriteRefs(pred, func(c *qgm.ColRef) qgm.Expr {
			if c.Q == viaQ {
				e, _ := ab.mapOutput(b, c.Ord)
				return qgm.CopyExpr(e, nil)
			}
			return nil
		})
		for _, have := range b.Preds {
			if qgm.EqualExpr(have, mapped) {
				return // already enforced (e.g. an EMST-seeded exit branch)
			}
		}
		b.Preds = append(b.Preds, mapped)
		return
	}
	// Group-by: map through grouping expressions onto the input quantifier
	// and continue.
	inQ := b.Quantifiers[0]
	mapped := qgm.RewriteRefs(pred, func(c *qgm.ColRef) qgm.Expr {
		if c.Q == viaQ {
			e, _ := ab.mapOutput(b, c.Ord)
			return qgm.CopyExpr(e, nil)
		}
		return nil
	})
	pushInto(g, inQ.Ranges, inQ, mapped)
}

// LocalPushdownRule pushes predicates that reference a single ForEach
// quantifier (plus constants) down into the referenced box. This is the
// paper's "local predicate pushdown ... implemented through a local magic
// rule" applied during phase 1 (§3.3): it does not need join orders.
type LocalPushdownRule struct{}

// Name implements Rule.
func (LocalPushdownRule) Name() string { return "local-pushdown" }

// Apply implements Rule.
func (LocalPushdownRule) Apply(ctx *Context, b *qgm.Box) (bool, error) {
	if b.Kind != qgm.KindSelect {
		return false, nil
	}
	changed := false
	var kept []qgm.Expr
	for _, pred := range b.Preds {
		q := solePredQuantifier(b, pred)
		if q == nil || q.Type != qgm.ForEach ||
			ctx.G.UseCount(q.Ranges) > 1 ||
			q.Ranges.Kind == qgm.KindBaseTable ||
			q.Ranges.IsMagic() ||
			!CanAbsorbPredicate(ctx.G, q, pred) {
			kept = append(kept, pred)
			continue
		}
		PushPredicate(ctx.G, q, pred)
		changed = true
	}
	if changed {
		b.Preds = kept
		// Join orders may no longer be valid.
		b.JoinOrder = nil
	}
	return changed, nil
}

// solePredQuantifier returns the single local quantifier referenced by
// pred, or nil when pred references zero or several, or references
// quantifiers outside box b (correlation).
func solePredQuantifier(b *qgm.Box, pred qgm.Expr) *qgm.Quantifier {
	local := map[*qgm.Quantifier]bool{}
	for _, q := range b.Quantifiers {
		local[q] = true
	}
	var only *qgm.Quantifier
	multiple := false
	foreign := false
	qgm.VisitRefs(pred, func(c *qgm.ColRef) {
		if !local[c.Q] {
			foreign = true
			return
		}
		if only == nil {
			only = c.Q
		} else if only != c.Q {
			multiple = true
		}
	})
	if multiple || foreign {
		return nil
	}
	return only
}

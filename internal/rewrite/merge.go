package rewrite

import (
	"starmagic/internal/qgm"
)

// MergeRule merges a child select box into its parent select box (view
// merging — "the analog of unfolding in logic", §3.1). This is the rule
// that collapses the extra boxes EMST introduces (phase 3 of Example 4.1:
// the magic boxes SD3/SD4 merge into their consumers).
type MergeRule struct{}

// Name implements Rule.
func (MergeRule) Name() string { return "merge" }

// Apply implements Rule.
func (MergeRule) Apply(ctx *Context, b *qgm.Box) (bool, error) {
	if b.Kind != qgm.KindSelect {
		return false, nil
	}
	for _, q := range b.Quantifiers {
		if q.Type != qgm.ForEach {
			continue
		}
		c := q.Ranges
		if !mergeable(ctx.G, b, q, c) {
			continue
		}
		mergeChild(ctx.G, b, q, c)
		return true, nil
	}
	return false, nil
}

// mergeable decides whether child c (ranged by q from parent b) can merge
// into b.
func mergeable(g *qgm.Graph, b *qgm.Box, q *qgm.Quantifier, c *qgm.Box) bool {
	if c.Kind != qgm.KindSelect {
		return false
	}
	if g.UseCount(c) > 1 && (len(c.Quantifiers) > 0 || len(c.Preds) > 0) {
		// Common subexpression: stays shared. A bare row of constants (a
		// magic box of query constants feeding several consumers) is
		// exempt: merging it into each consumer copies expressions, never
		// work.
		return false
	}
	if c.MagicBox != nil {
		return false // pending EMST linkage must stay visible
	}
	if c.Recursive {
		return false // the fixpoint root must stay intact
	}
	// Duplicate semantics: merging drops c's duplicate elimination.
	switch c.Distinct {
	case qgm.DistinctPreserve:
		// Bag semantics flow through: always safe.
	case qgm.DistinctPermit:
		// Consumers tolerate duplicates: safe (this is what the distinct
		// pull-up rule enables for magic tables).
	case qgm.DistinctEnforce:
		// Safe only if the child cannot produce duplicates anyway, or the
		// parent eliminates duplicates itself.
		if !DuplicateFree(c) && b.Distinct != qgm.DistinctEnforce {
			return false
		}
	}
	return true
}

// mergeChild performs the merge: c's quantifiers and predicates move into
// b, references to q are replaced by c's output expressions, and q is
// removed.
func mergeChild(g *qgm.Graph, b *qgm.Box, q *qgm.Quantifier, c *qgm.Box) {
	// Move quantifiers.
	for _, cq := range c.Quantifiers {
		cq.Parent = b
		b.Quantifiers = append(b.Quantifiers, cq)
	}
	// Move predicates.
	b.Preds = append(b.Preds, c.Preds...)
	c.Quantifiers = nil
	c.Preds = nil

	// Replace references to q throughout b's subtree (b's own expressions
	// plus correlated references from subquery boxes under b).
	replace := func(e qgm.Expr) qgm.Expr {
		return qgm.RewriteRefs(e, func(cr *qgm.ColRef) qgm.Expr {
			if cr.Q == q {
				return qgm.CopyExpr(c.Output[cr.Ord].Expr, nil)
			}
			return nil
		})
	}
	qgm.RewriteTree(b, replace)

	// Substitution can turn two predicates into one (a magic filter and
	// the same filter pushed down from above); keep one copy.
	kept := b.Preds[:0]
	for _, p := range b.Preds {
		dup := false
		for _, k := range kept {
			if qgm.EqualExpr(k, p) {
				dup = true
				break
			}
		}
		if !dup {
			kept = append(kept, p)
		}
	}
	b.Preds = kept

	qgm.RemoveQuantifier(q)
	b.JoinOrder = nil
}

// TrivialSelectRule removes a select box that is a pure identity projection
// over a single quantifier: every consumer is redirected to the child box.
// EMST's phase-3 cleanup uses it to drop pass-through boxes that merging
// cannot reach (e.g. an identity select over a group-by box).
type TrivialSelectRule struct{}

// Name implements Rule.
func (TrivialSelectRule) Name() string { return "trivial-select" }

// Apply implements Rule.
func (TrivialSelectRule) Apply(ctx *Context, b *qgm.Box) (bool, error) {
	if b.Kind != qgm.KindSelect || b == ctx.G.Top || b.Recursive {
		return false, nil
	}
	if len(b.Quantifiers) != 1 || len(b.Preds) != 0 {
		return false, nil
	}
	q := b.Quantifiers[0]
	if q.Type != qgm.ForEach {
		return false, nil
	}
	child := q.Ranges
	if len(b.Output) != len(child.Output) {
		return false, nil
	}
	for i, oc := range b.Output {
		cr, ok := oc.Expr.(*qgm.ColRef)
		if !ok || cr.Q != q || cr.Ord != i {
			return false, nil
		}
	}
	// Duplicate semantics must be compatible.
	if b.Distinct == qgm.DistinctEnforce && !DuplicateFree(child) {
		return false, nil
	}
	// Redirect every user of b to child.
	for _, box := range ctx.G.Reachable() {
		for _, uq := range box.Quantifiers {
			if uq.Ranges == b {
				uq.Ranges = child
			}
		}
		if box.MagicBox == b {
			box.MagicBox = child
		}
	}
	return true, nil
}

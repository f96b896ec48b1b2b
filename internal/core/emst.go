package core

import (
	"fmt"

	"starmagic/internal/datum"
	"starmagic/internal/qgm"
	"starmagic/internal/rewrite"
)

// EMSTRule is the Extended Magic-Sets Transformation, implemented as a
// query-rewrite rule applied once per QGM box as the graph is traversed
// (Algorithm 4.2, magic-process). It assumes join orders were chosen by a
// preceding plan-optimization pass (§3.2) and consumes them through
// Box.JoinOrder.
//
// Differences from the GMST algorithm the paper lists (§4) are visible in
// the structure here: adornment and magic transformation happen in one
// pass (adornQuantifier is invoked from within the transformation), the
// rule is modular (one box at a time, restartable in any traversal order),
// and it composes with the other rewrite rules through the shared
// predicate-pushdown machinery.
type EMSTRule struct {
	// NoSupplementary disables supplementary-magic-box construction
	// (ablation): magic boxes then re-join copies of the eligible prefix,
	// duplicating work exactly as the paper's supplementary variant avoids.
	NoSupplementary bool

	processed map[*qgm.Box]bool
	// copies caches adorned copies by (original box, adornment) so several
	// consumers with the same adornment share one copy, with their magic
	// contributions combined by a union magic-box (§4.1: "The magic-box is
	// either a select-box, or a union-box").
	copies map[copyKey]*qgm.Box
	// feed maps an adorned copy to the box feeding its magic table (the
	// box referenced by the magic quantifier, or linked via MagicBox).
	feed map[*qgm.Box]*qgm.Box
	seq  int
}

type copyKey struct {
	origin    *qgm.Box
	adornment string
}

// NewEMSTRule returns a fresh rule instance (one per phase-2 run).
func NewEMSTRule() *EMSTRule {
	return &EMSTRule{
		processed: map[*qgm.Box]bool{},
		copies:    map[copyKey]*qgm.Box{},
		feed:      map[*qgm.Box]*qgm.Box{},
	}
}

// Name implements rewrite.Rule.
func (e *EMSTRule) Name() string { return "emst" }

// Apply implements rewrite.Rule: EMST processing of one box. Magic- and
// supplementary-magic-boxes are never processed; condition-magic-boxes are
// (§4.1).
func (e *EMSTRule) Apply(ctx *rewrite.Context, b *qgm.Box) (bool, error) {
	if e.processed[b] {
		return false, nil
	}
	if b.Role == qgm.RoleMagic || b.Role == qgm.RoleSuppMagic {
		return false, nil
	}
	// Boxes of a recursive component are not processed one by one: magic
	// enters a recursion only through its fixpoint root, when a consumer
	// binds it (processAMQ), and attachMagic then seeds the component's
	// exit branches with the same magic table.
	if b.Recursive || qgm.InCycle(b) {
		e.processed[b] = true
		return false, nil
	}
	e.processed[b] = true
	if IsAMQ(b.Kind) {
		return e.processAMQ(ctx, b)
	}
	return e.processNMQ(ctx, b)
}

// orderedF returns the ForEach quantifiers of b in join order.
func orderedF(b *qgm.Box) []*qgm.Quantifier {
	var out []*qgm.Quantifier
	for _, q := range b.OrderedQuantifiers() {
		if q.Type == qgm.ForEach {
			out = append(out, q)
		}
	}
	return out
}

// processAMQ runs magic-process on an AMQ box: for each quantifier in join
// order, adorn it (Algorithm 4.1), optionally factor the preceding
// quantifiers into a supplementary-magic-box (step 4a), build the magic-box
// or condition-magic-box (4b), and attach it to an adorned copy of the
// referenced box (4c).
func (e *EMSTRule) processAMQ(ctx *rewrite.Context, b *qgm.Box) (bool, error) {
	changed := false
	for pos := 0; ; pos++ {
		fq := orderedF(b)
		if pos >= len(fq) {
			break
		}
		q := fq[pos]
		child := q.Ranges
		// "No action is taken since all referenced tables are either magic
		// tables or stored tables." Cycle members other than a fixpoint
		// root are also skipped (they are transformed with their root).
		if child.Kind == qgm.KindBaseTable || child.IsMagic() {
			continue
		}
		if !child.Recursive && qgm.InCycle(child) {
			continue
		}
		eligible := fq[:pos]
		bindings := pushable(child, adornQuantifier(b, q, eligible))
		if len(bindings) == 0 {
			continue
		}

		// Step 4a: supplementary-magic-box, when desirable.
		if !e.NoSupplementary && e.suppDesirable(b, eligible) {
			e.buildSupplementary(ctx, b, eligible)
			// The box's expressions were rewritten over the supplementary
			// quantifier: recompute position, eligibility, and bindings.
			fq = orderedF(b)
			pos = indexOfQuant(fq, q)
			eligible = fq[:pos]
			bindings = pushable(child, adornQuantifier(b, q, eligible))
			if len(bindings) == 0 {
				continue
			}
		}

		adornment := adornmentString(len(child.Output), bindings)
		if allFree(adornment) {
			continue
		}
		var eq, cond []Binding
		for _, bd := range bindings {
			if bd.Eq {
				eq = append(eq, bd)
			} else {
				cond = append(cond, bd)
			}
		}

		// Step 4b: magic-box for the equality bindings (built before the
		// adorned copy is chosen so cycle detection below can inspect it).
		var m *qgm.Box
		if len(eq) > 0 {
			m = e.buildMagicBox(ctx, b, eligible, eq, qgm.RoleMagic, "M_"+child.Name)
		}

		// Step 3: make q range over an adorned copy (possibly shared with
		// other consumers carrying the same pure-equality adornment).
		// Sharing is abandoned when feeding this consumer's magic into the
		// shared copy would make the graph recursive — the phenomenon the
		// paper notes in §1 ("the magic-sets transformation can rewrite a
		// nonrecursive query into a recursive query"). Recursion is
		// evaluated only for the components of recursive views, so such
		// consumers get a private copy instead of a new cycle.
		cacheable := len(cond) == 0
		cp, fresh := e.adornedCopy(ctx, child, adornment, cacheable)
		if !fresh && m != nil && reachesBox(m, cp) {
			cp, fresh = e.adornedCopy(ctx, child, adornment, false)
		}
		q.Ranges = cp
		changed = true

		// Step 4c: attach the magic-box.
		if m != nil {
			e.attachMagic(ctx, cp, m, eq, fresh)
		}
		// Condition-magic-box for 'c' bindings (ground magic-sets: tuples
		// stay ground; the condition is checked as a semi-join against the
		// set of bound values, which is implied by the original predicate
		// that remains in b).
		if len(cond) > 0 && IsAMQ(cp.Kind) {
			cm := e.buildMagicBox(ctx, b, eligible, cond, qgm.RoleCondMagic, "CM_"+cp.Name)
			e.attachCondition(ctx, cp, cm, cond)
		}
	}
	return changed, nil
}

// processNMQ passes the restriction of an NMQ box's linked magic table down
// into the box's quantifiers (§4.2: an NMQ box "may be able to pass the
// restriction represented by the magic table down into its quantifiers").
func (e *EMSTRule) processNMQ(ctx *rewrite.Context, b *qgm.Box) (bool, error) {
	if b.MagicBox == nil || len(b.MagicCols) == 0 {
		return false, nil
	}
	type bind struct{ childOrd, magicOrd int }
	perQuant := map[*qgm.Quantifier][]bind{}
	for _, mc := range b.MagicCols {
		for _, qb := range nmqBindings(b, mc.BoxOrd) {
			perQuant[qb.Quant] = append(perQuant[qb.Quant], bind{qb.ChildOrd, mc.MagicOrd})
		}
	}
	changed := false
	for _, q := range b.Quantifiers {
		binds := perQuant[q]
		if len(binds) == 0 {
			continue
		}
		child := q.Ranges
		if child.Kind == qgm.KindBaseTable || child.IsMagic() ||
			child.Recursive || qgm.InCycle(child) {
			continue
		}
		// The derived bindings are all equalities against magic columns.
		bindings := make([]Binding, 0, len(binds))
		for _, bd := range binds {
			bindings = append(bindings, Binding{Ord: bd.childOrd, Op: datum.EQ, Eq: true})
		}
		bindings = receivable(child, bindings)
		if len(bindings) == 0 {
			continue
		}
		adornment := adornmentString(len(child.Output), bindings)

		// Magic-box: a projection of b's own magic table onto the mapped
		// columns (the paper's MD4: m_mgrSal selects workdept from
		// m_avgMgrSal).
		m := ctx.G.NewBox(qgm.KindSelect, e.genName("M_"+child.Name))
		m.Role = qgm.RoleMagic
		m.Distinct = qgm.DistinctEnforce
		mq := ctx.G.AddQuantifier(m, qgm.ForEach, "m", b.MagicBox)
		// Align magic outputs with the binding order used below.
		kept := map[int]bool{}
		var aligned []Binding
		for _, bd := range binds {
			if kept[bd.childOrd] {
				continue
			}
			kept[bd.childOrd] = true
			m.Output = append(m.Output, qgm.OutputCol{
				Name: fmt.Sprintf("mc%d", len(m.Output)),
				Expr: mq.Col(bd.magicOrd),
				Type: b.MagicBox.Output[bd.magicOrd].Type,
			})
			aligned = append(aligned, Binding{Ord: bd.childOrd, Op: datum.EQ, Eq: true})
		}
		cp, fresh := e.adornedCopy(ctx, child, adornment, true)
		if !fresh && reachesBox(m, cp) {
			cp, fresh = e.adornedCopy(ctx, child, adornment, false)
		}
		q.Ranges = cp
		changed = true
		e.attachMagic(ctx, cp, m, aligned, fresh)
	}
	return changed, nil
}

// reachesBox reports whether target is reachable from b through quantifiers
// or magic links.
func reachesBox(b, target *qgm.Box) bool {
	seen := map[*qgm.Box]bool{}
	var walk func(box *qgm.Box) bool
	walk = func(box *qgm.Box) bool {
		if box == nil || seen[box] {
			return false
		}
		if box == target {
			return true
		}
		seen[box] = true
		for _, q := range box.Quantifiers {
			if walk(q.Ranges) {
				return true
			}
		}
		return walk(box.MagicBox)
	}
	return walk(b)
}

// recursionBoundInvariant reports whether output column ord of the
// fixpoint root flows unchanged through every recursive derivation: in
// every select box of the component, any ForEach quantifier over a
// component member must project that quantifier's own column ord at output
// position ord, and no subquery (E/A/S) quantifier may read a member —
// a subquery over the recursion sees rows of every binding, not only of the
// row it derives. Union members are positional by construction. When this
// holds, every row of the component carries in column ord the value of the
// exit row it derives from, so σ_ord(fixpoint) = fixpoint(σ_ord(exits)):
// a magic quantifier may be attached to the root and the exit branches
// seeded with the same magic table (attachMagic).
func recursionBoundInvariant(root *qgm.Box, ord int) bool {
	members := qgm.SCCBoxes(root)
	inSCC := map[*qgm.Box]bool{}
	for _, m := range members {
		inSCC[m] = true
	}
	for _, x := range members {
		switch x.Kind {
		case qgm.KindUnion:
			// positional pass-through
		case qgm.KindSelect:
			for _, q := range x.Quantifiers {
				if !inSCC[q.Ranges] {
					continue
				}
				if q.Type != qgm.ForEach {
					return false
				}
				if ord >= len(x.Output) {
					return false
				}
				cr, ok := x.Output[ord].Expr.(*qgm.ColRef)
				if !ok || cr.Q != q || cr.Ord != ord {
					return false
				}
			}
		default:
			return false
		}
	}
	return true
}

// pushable filters bindings to those magic may push into child: the
// receivable ones, and into a fixpoint root only equality bindings on
// columns invariant through the recursive derivations (the classic
// transitive-closure shape, where the bound argument is passed down
// unchanged) — there filtering the fixpoint equals seeding it with the
// filter. Conditions are not pushed into recursions.
func pushable(child *qgm.Box, bindings []Binding) []Binding {
	bindings = receivable(child, bindings)
	if !child.Recursive {
		return bindings
	}
	var inv []Binding
	for _, bd := range bindings {
		if bd.Eq && recursionBoundInvariant(child, bd.Ord) {
			inv = append(inv, bd)
		}
	}
	return inv
}

// receivable filters bindings to those the child box can accept: AMQ
// children take both 'b' and 'c' bindings on any output with a defining
// expression; NMQ children take only 'b' bindings on ordinals their kind
// can pass down.
func receivable(child *qgm.Box, bindings []Binding) []Binding {
	var out []Binding
	for _, bd := range bindings {
		if bd.Ord >= len(child.Output) {
			continue
		}
		if IsAMQ(child.Kind) {
			if child.Output[bd.Ord].Expr != nil {
				out = append(out, bd)
			}
			continue
		}
		if bd.Eq && len(nmqBindings(child, bd.Ord)) > 0 {
			out = append(out, bd)
		}
	}
	return out
}

// suppDesirable applies the paper's desirability conditions (step 4a): not
// just before the magic quantifier, not before the first non-magic
// quantifier, and not for a single quantifier with no predicates.
func (e *EMSTRule) suppDesirable(b *qgm.Box, eligible []*qgm.Quantifier) bool {
	nonMagic := 0
	for _, q := range eligible {
		if !q.Ranges.IsMagic() {
			nonMagic++
		}
	}
	if nonMagic == 0 {
		return false
	}
	if len(eligible) >= 2 {
		return true
	}
	// Single eligible quantifier: require at least one predicate to move.
	return len(movablePreds(b, eligible)) > 0
}

// movablePreds returns the predicates of b referencing only the eligible
// quantifiers (references to quantifiers of ancestor boxes — correlation —
// are permitted: they are bound before b evaluates).
func movablePreds(b *qgm.Box, eligible []*qgm.Quantifier) []qgm.Expr {
	set := map[*qgm.Quantifier]bool{}
	for _, q := range eligible {
		set[q] = true
	}
	local := map[*qgm.Quantifier]bool{}
	for _, q := range b.Quantifiers {
		local[q] = true
	}
	var out []qgm.Expr
	for _, p := range b.Preds {
		refs := qgm.RefsQuantifiers(p)
		if len(refs) == 0 {
			continue
		}
		hasEligible, hasIneligibleLocal := false, false
		for q := range refs {
			switch {
			case set[q]:
				hasEligible = true
			case local[q]:
				hasIneligibleLocal = true
			}
		}
		if hasEligible && !hasIneligibleLocal {
			out = append(out, p)
		}
	}
	return out
}

// buildSupplementary factors the eligible join-order prefix of b into a
// supplementary-magic-box (a common subexpression shared by b and the
// magic-boxes built from it), replacing the prefix in b with a single
// quantifier (step 4a; the paper's sm_QUERY, statement SD5).
func (e *EMSTRule) buildSupplementary(ctx *rewrite.Context, b *qgm.Box, eligible []*qgm.Quantifier) *qgm.Quantifier {
	g := ctx.G
	sm := g.NewBox(qgm.KindSelect, e.genName("SM_"+b.Name))
	sm.Role = qgm.RoleSuppMagic
	sm.Distinct = qgm.DistinctPreserve // multiplicities must flow into b

	moved := map[*qgm.Quantifier]bool{}
	for _, q := range eligible {
		moved[q] = true
	}
	// Move the eligible quantifiers, keeping their join order.
	for _, q := range eligible {
		q.Parent = sm
		sm.Quantifiers = append(sm.Quantifiers, q)
	}
	// Move the predicates referencing only the moved quantifiers.
	movedPreds := map[qgm.Expr]bool{}
	for _, p := range movablePreds(b, eligible) {
		movedPreds[p] = true
	}
	var keptPreds []qgm.Expr
	for _, p := range b.Preds {
		if movedPreds[p] {
			sm.Preds = append(sm.Preds, p)
		} else {
			keptPreds = append(keptPreds, p)
		}
	}
	b.Preds = keptPreds

	// Rebuild b's quantifier list: supplementary quantifier first, then the
	// remaining quantifiers in their previous join order.
	prevOrder := b.OrderedQuantifiers()
	var remaining []*qgm.Quantifier
	for _, q := range prevOrder {
		if !moved[q] {
			remaining = append(remaining, q)
		}
	}
	b.Quantifiers = nil
	b.JoinOrder = nil
	smQ := g.AddQuantifier(b, qgm.ForEach, "sm", sm)
	b.Quantifiers = append(b.Quantifiers, remaining...)
	for _, q := range remaining {
		q.Parent = b
	}

	// Expose every column of the moved quantifiers still referenced from
	// b's subtree, and rewrite those references onto the supplementary
	// quantifier.
	type src struct {
		q   *qgm.Quantifier
		ord int
	}
	outOrd := map[src]int{}
	addOutput := func(s src) int {
		if ord, ok := outOrd[s]; ok {
			return ord
		}
		ord := len(sm.Output)
		outOrd[s] = ord
		name := fmt.Sprintf("c%d", ord)
		if s.ord < len(s.q.Ranges.Output) && s.q.Ranges.Output[s.ord].Name != "" {
			name = s.q.Ranges.Output[s.ord].Name
		}
		sm.Output = append(sm.Output, qgm.OutputCol{
			Name: name,
			Expr: &qgm.ColRef{Q: s.q, Ord: s.ord},
			Type: s.q.Ranges.Output[s.ord].Type,
		})
		return ord
	}
	// Rewrite b's subtree, but never descend into the supplementary box
	// itself: its predicates and outputs legitimately reference the moved
	// quantifiers.
	rewriteFn := func(expr qgm.Expr) qgm.Expr {
		return qgm.RewriteRefs(expr, func(c *qgm.ColRef) qgm.Expr {
			if moved[c.Q] {
				return &qgm.ColRef{Q: smQ, Ord: addOutput(src{c.Q, c.Ord})}
			}
			return nil
		})
	}
	seen := map[*qgm.Box]bool{sm: true}
	var walk func(box *qgm.Box)
	walk = func(box *qgm.Box) {
		if box == nil || seen[box] {
			return
		}
		seen[box] = true
		qgm.RewriteBoxExprs(box, rewriteFn)
		for _, q := range box.Quantifiers {
			walk(q.Ranges)
		}
		walk(box.MagicBox)
	}
	walk(b)
	// Guarantee at least one output (a supplementary box none of whose
	// columns are referenced can still feed a magic box via predicates).
	if len(sm.Output) == 0 && len(eligible) > 0 {
		q0 := eligible[0]
		if len(q0.Ranges.Output) > 0 {
			addOutput(src{q0, 0})
		}
	}
	return smQ
}

// buildMagicBox constructs a magic-box (or condition-magic-box) for the
// given bindings: a select box joining copies of the eligible quantifiers
// (after supplementary factoring this is typically the single
// supplementary quantifier) restricted by the predicates over them, and
// projecting the binding expressions. DISTINCT is enforced; the distinct
// pull-up rule later infers when it can be dropped.
func (e *EMSTRule) buildMagicBox(ctx *rewrite.Context, b *qgm.Box, eligible []*qgm.Quantifier, bindings []Binding, role qgm.MagicRole, name string) *qgm.Box {
	g := ctx.G
	m := g.NewBox(qgm.KindSelect, e.genName(name))
	m.Role = role
	m.Distinct = qgm.DistinctEnforce

	remap := map[*qgm.Quantifier]*qgm.Quantifier{}
	for _, q := range eligible {
		nq := g.AddQuantifier(m, q.Type, q.Name, q.Ranges)
		remap[q] = nq
	}
	// Copy the predicates of b over eligible quantifiers (when a
	// supplementary box was built they were moved there, so this is
	// usually empty).
	for _, p := range movablePreds(b, eligible) {
		m.Preds = append(m.Preds, qgm.CopyExpr(p, remap))
	}
	for k, bd := range bindings {
		m.Output = append(m.Output, qgm.OutputCol{
			Name: fmt.Sprintf("mc%d", k),
			Expr: qgm.CopyExpr(bd.Other, remap),
			Type: qgm.TypeOf(bd.Other),
		})
	}
	return m
}

// attachMagic wires magic box m into adorned copy cp (step 4c): AMQ copies
// get a magic quantifier first in the join order plus the equality
// predicates tying magic columns to the copy's output-defining expressions;
// NMQ copies get the box linked (and its restriction is passed down when
// EMST processes them). When cp was reused from the copy cache, the new
// contribution is unioned into the existing magic feed in place.
func (e *EMSTRule) attachMagic(ctx *rewrite.Context, cp *qgm.Box, m *qgm.Box, bindings []Binding, fresh bool) {
	g := ctx.G
	if !fresh {
		if old := e.feed[cp]; old != nil {
			e.extendUnion(ctx, old, m)
			return
		}
	}
	e.feed[cp] = m
	if IsAMQ(cp.Kind) {
		mq := g.AddQuantifier(cp, qgm.ForEach, "mg", m)
		// Magic quantifier goes first in the join order.
		reordered := append([]*qgm.Quantifier{mq}, cp.Quantifiers[:len(cp.Quantifiers)-1]...)
		cp.Quantifiers = reordered
		cp.JoinOrder = nil
		for k, bd := range bindings {
			cp.Preds = append(cp.Preds, &qgm.Cmp{
				Op: datum.EQ,
				L:  mq.Col(k),
				R:  qgm.CopyExpr(cp.Output[bd.Ord].Expr, nil),
			})
		}
		if cp.Recursive {
			e.seedExits(ctx, cp, m, bindings)
		}
		return
	}
	cp.MagicBox = m
	cp.MagicCols = nil
	for k, bd := range bindings {
		cp.MagicCols = append(cp.MagicCols, qgm.MagicCol{BoxOrd: bd.Ord, MagicOrd: k})
	}
}

// seedExits filters every exit branch of the recursive component rooted at
// root — a union branch that does not reach the root — by magic table m,
// through a new select box joining the branch with m on the bound columns.
// The root keeps its own magic quantifier. processAMQ admits only bindings
// recursionBoundInvariant proves invariant, under which every component row
// carries its exit row's bound values, so the filtered exits derive exactly
// the rows the root's filter keeps: the fixpoint starts from the magic set
// instead of computing the whole relation and discarding most of it. A feed
// later extended in place (extendUnion) widens the exit filters with it.
func (e *EMSTRule) seedExits(ctx *rewrite.Context, root, m *qgm.Box, bindings []Binding) {
	g := ctx.G
	members := qgm.SCCBoxes(root)
	inSCC := map[*qgm.Box]bool{}
	for _, x := range members {
		inSCC[x] = true
	}
	for _, x := range members {
		if x.Kind != qgm.KindUnion {
			continue
		}
		for _, q := range x.Quantifiers {
			exit := q.Ranges
			if inSCC[exit] {
				continue
			}
			f := g.NewBox(qgm.KindSelect, e.genName("SEED_"+exit.Name))
			f.Distinct = qgm.DistinctPreserve
			mq := g.AddQuantifier(f, qgm.ForEach, "mg", m)
			xq := g.AddQuantifier(f, qgm.ForEach, "x", exit)
			for i, oc := range exit.Output {
				f.Output = append(f.Output, qgm.OutputCol{Name: oc.Name, Expr: xq.Col(i), Type: oc.Type})
			}
			for k, bd := range bindings {
				f.Preds = append(f.Preds, &qgm.Cmp{Op: datum.EQ, L: mq.Col(k), R: xq.Col(bd.Ord)})
			}
			q.Ranges = f
		}
	}
}

// attachCondition wires a condition-magic-box into an AMQ copy as a
// semi-join: the copy keeps a row iff some bound tuple satisfies all the
// conditions. This keeps every tuple ground (the paper's GMST requirement)
// while pushing non-equality predicates.
func (e *EMSTRule) attachCondition(ctx *rewrite.Context, cp *qgm.Box, cm *qgm.Box, bindings []Binding) {
	g := ctx.G
	eq := g.AddQuantifier(cp, qgm.Exists, "cm", cm)
	for k, bd := range bindings {
		cp.Preds = append(cp.Preds, &qgm.Cmp{
			Op: bd.Op,
			L:  qgm.CopyExpr(cp.Output[bd.Ord].Expr, nil),
			R:  eq.Col(k),
		})
	}
}

// extendUnion folds the new contribution into the existing magic feed IN
// PLACE, so descendants already referencing the feed box see the union: if
// the feed is a select box it is converted into a union box whose first
// branch is a clone of its old self.
func (e *EMSTRule) extendUnion(ctx *rewrite.Context, feedBox *qgm.Box, m *qgm.Box) {
	g := ctx.G
	if feedBox.Kind != qgm.KindUnion {
		branch := g.NewBox(feedBox.Kind, feedBox.Name+"_b0")
		branch.Role = feedBox.Role
		branch.Distinct = qgm.DistinctPreserve
		branch.Quantifiers = feedBox.Quantifiers
		for _, q := range branch.Quantifiers {
			q.Parent = branch
		}
		branch.Preds = feedBox.Preds
		branch.Output = feedBox.Output

		feedBox.Kind = qgm.KindUnion
		feedBox.Quantifiers = nil
		feedBox.Preds = nil
		feedBox.JoinOrder = nil
		feedBox.Output = nil
		for _, oc := range branch.Output {
			feedBox.Output = append(feedBox.Output, qgm.OutputCol{Name: oc.Name, Type: oc.Type})
		}
		g.AddQuantifier(feedBox, qgm.ForEach, "u0", branch)
	}
	// A new consumer's values may introduce duplicates across branches:
	// re-enforce distinctness (pull-up may relax it again if provable).
	feedBox.Distinct = qgm.DistinctEnforce
	g.AddQuantifier(feedBox, qgm.ForEach, fmt.Sprintf("u%d", len(feedBox.Quantifiers)), m)
}

// adornedCopy returns the adorned copy of box child for the adornment,
// reusing a cached copy for pure-equality adornments (condition adornments
// are consumer-specific). fresh reports whether the copy is new (the
// caller then attaches a new magic feed rather than extending).
func (e *EMSTRule) adornedCopy(ctx *rewrite.Context, child *qgm.Box, adornment string, cacheable bool) (cp *qgm.Box, fresh bool) {
	key := copyKey{origin: child, adornment: adornment}
	if cacheable {
		if cached, ok := e.copies[key]; ok {
			return cached, false
		}
	}
	if child.Recursive {
		cp, _ = ctx.G.CopySCC(child)
	} else {
		cp, _ = ctx.G.CopyBox(child)
	}
	cp.Adornment = adornment
	cp.Origin = child
	if cacheable {
		e.copies[key] = cp
	}
	return cp, true
}

func (e *EMSTRule) genName(prefix string) string {
	e.seq++
	return fmt.Sprintf("%s#%d", prefix, e.seq)
}

func indexOfQuant(qs []*qgm.Quantifier, q *qgm.Quantifier) int {
	for i, qq := range qs {
		if qq == q {
			return i
		}
	}
	return len(qs)
}

package plan

import (
	"fmt"
	"strings"

	"starmagic/internal/datum"
	"starmagic/internal/opt"
	"starmagic/internal/qgm"
)

// Lower turns an optimized QGM graph into a physical plan. Each box becomes
// an operator subtree; select boxes consume the optimizer's JoinOrder to lay
// out pipeline stages with explicit access paths. A recursive view whose
// component is linear lowers to a semi-naive fixpoint over seed and delta
// trees (see lowerFixpoint), and a closed box with more than one consumer
// to one spool node every consumer shares (see spool). Boxes the streaming
// executor cannot stream — correlated subtrees, extension kinds, non-linear
// recursion — lower to bridge operators that evaluate through the classic
// box-at-a-time evaluator, so every graph the evaluator accepts has a plan.
func Lower(g *qgm.Graph) *Plan {
	return LowerWith(g, opt.NewEstimator())
}

// LowerWith is Lower with a caller-supplied estimator, so operator EstRows
// annotations reflect feedback cardinality hints when a plan is re-optimized
// from observed actuals.
func LowerWith(g *qgm.Graph, est *opt.Estimator) *Plan {
	lw := &lowerer{
		p:         &Plan{Graph: g},
		est:       est,
		uses:      map[*qgm.Box]int{},
		freeCache: map[*qgm.Box]bool{},
		visiting:  map[*qgm.Box]bool{},
		spools:    map[*qgm.Box]*Node{},
	}
	for _, b := range g.Boxes {
		for _, q := range b.Quantifiers {
			lw.uses[q.Ranges]++
		}
		if b.MagicBox != nil {
			lw.uses[b.MagicBox]++
		}
	}
	lw.uses[g.Top]++

	root := lw.lowerBox(g.Top)
	if len(g.OrderBy) > 0 {
		s := lw.p.newNode(OpSort, nil, "sort")
		s.OrderBy = g.OrderBy
		s.Detail = orderDetail(g.OrderBy)
		s.EstRows = root.EstRows
		s.EstMem = root.EstMem
		s.Children = []*Node{root}
		root = s
	}
	if g.Limit >= 0 {
		l := lw.p.newNode(OpLimit, nil, fmt.Sprintf("limit %d", g.Limit))
		l.N = g.Limit
		l.EstRows = float64(g.Limit)
		l.Children = []*Node{root}
		root = l
	}
	if g.HiddenCols > 0 {
		t := lw.p.newNode(OpTrim, nil, "trim")
		t.Hidden = g.HiddenCols
		t.Detail = fmt.Sprintf("%d hidden cols", g.HiddenCols)
		t.EstRows = root.EstRows
		t.EstMem = root.EstMem
		t.Children = []*Node{root}
		root = t
	}
	lw.p.Root = root
	return lw.p
}

type lowerer struct {
	p         *Plan
	est       *opt.Estimator
	uses      map[*qgm.Box]int
	freeCache map[*qgm.Box]bool
	visiting  map[*qgm.Box]bool
	// spools holds the spool node of each shared box lowered so far.
	spools map[*qgm.Box]*Node
}

// hasFree reports whether b's subtree references quantifiers declared
// outside it (correlation). Mirrors the evaluator's closedness test.
func (lw *lowerer) hasFree(b *qgm.Box) bool {
	if v, ok := lw.freeCache[b]; ok {
		return v
	}
	owned := map[*qgm.Quantifier]bool{}
	seen := map[*qgm.Box]bool{}
	var collect func(box *qgm.Box)
	collect = func(box *qgm.Box) {
		if box == nil || seen[box] {
			return
		}
		seen[box] = true
		for _, q := range box.Quantifiers {
			owned[q] = true
			collect(q.Ranges)
		}
		collect(box.MagicBox)
	}
	collect(b)

	free := false
	check := func(e qgm.Expr) {
		if e == nil || free {
			return
		}
		qgm.VisitRefs(e, func(c *qgm.ColRef) {
			if !owned[c.Q] {
				free = true
			}
		})
	}
	for box := range seen {
		for _, e := range box.Preds {
			check(e)
		}
		for _, oc := range box.Output {
			check(oc.Expr)
		}
		for _, e := range box.GroupBy {
			check(e)
		}
		for _, a := range box.Aggs {
			check(a.Arg)
		}
	}
	lw.freeCache[b] = free
	return free
}

// bridge creates a box-eval operator: the box is materialized through the
// classic evaluator (memoized when closed).
func (lw *lowerer) bridge(b *qgm.Box, reason string) *Node {
	n := lw.p.newNode(OpBoxEval, b, "materialize "+boxName(b))
	n.Detail = reason
	n.EstRows = lw.est.Card(b)
	n.EstMem = n.EstRows * estWidth(b)
	return n
}

// estWidth is a coarse per-row byte estimate (datum struct size per output
// column plus a slice header) used for EstMem.
func estWidth(b *qgm.Box) float64 {
	cols := 4
	if b != nil && len(b.Output) > 0 {
		cols = len(b.Output)
	}
	return float64(24 + 40*cols)
}

func (lw *lowerer) lowerBox(b *qgm.Box) *Node {
	switch {
	case lw.visiting[b]:
		return lw.bridge(b, "cyclic")
	case b.Recursive:
		return lw.lowerFixpoint(b)
	case lw.hasFree(b):
		return lw.bridge(b, "correlated")
	case lw.uses[b] > 1 && b.Kind != qgm.KindBaseTable:
		return lw.spool(b)
	}
	return lw.lowerBody(b)
}

// spool returns the spool node of shared box b, lowering b's body under it
// at the first reference; later references get the same node. Members of a
// recursive component never come here (lowerMember lowers them in place,
// once per reference and round), so a spooled body is constant within an
// execution.
func (lw *lowerer) spool(b *qgm.Box) *Node {
	if n := lw.spools[b]; n != nil {
		return n
	}
	n := lw.p.newNode(OpSpool, b, "spool "+boxName(b))
	n.Children = []*Node{lw.lowerBody(b)}
	lw.spools[b] = n
	return n
}

// lowerBody lowers box b itself into an operator subtree whose root
// completes the box's semantics (BoxRoot).
func (lw *lowerer) lowerBody(b *qgm.Box) *Node {
	lw.visiting[b] = true
	defer delete(lw.visiting, b)

	var n *Node
	switch b.Kind {
	case qgm.KindBaseTable:
		n = lw.p.newNode(OpScan, b, "scan "+b.Table.Name)
	case qgm.KindSelect:
		n = lw.lowerSelect(b, nil, nil)
	case qgm.KindGroupBy:
		n = lw.p.newNode(OpGroupBy, b, "group-by "+boxName(b))
		n.Detail = fmt.Sprintf("%d keys, %d aggs", len(b.GroupBy), len(b.Aggs))
		n.Children = []*Node{lw.lowerBox(b.Quantifiers[0].Ranges)}
	case qgm.KindUnion:
		n = lw.p.newNode(OpUnion, b, "union "+boxName(b))
		for _, q := range b.Quantifiers {
			n.Children = append(n.Children, lw.lowerBox(q.Ranges))
		}
	case qgm.KindIntersect:
		n = lw.p.newNode(OpIntersect, b, "intersect "+boxName(b))
		n.Detail = setDetail(b)
		n.Children = []*Node{lw.lowerBox(b.Quantifiers[0].Ranges), lw.lowerBox(b.Quantifiers[1].Ranges)}
	case qgm.KindExcept:
		n = lw.p.newNode(OpExcept, b, "except "+boxName(b))
		n.Detail = setDetail(b)
		n.Children = []*Node{lw.lowerBox(b.Quantifiers[0].Ranges), lw.lowerBox(b.Quantifiers[1].Ranges)}
	default:
		return lw.bridge(b, "extension kind")
	}
	n.EstRows = lw.est.Card(b)
	n.EstMem = n.EstRows * estWidth(b)

	// Duplicate elimination of select and union boxes is a distinct wrapper
	// (intersect/except handle their distinct variants inline — EXCEPT
	// DISTINCT is not distinct-of-EXCEPT-ALL).
	if b.Distinct != qgm.DistinctPreserve && (b.Kind == qgm.KindSelect || b.Kind == qgm.KindUnion) {
		d := lw.p.newNode(OpDistinct, b, "distinct")
		d.EstRows = n.EstRows
		d.EstMem = n.EstMem
		d.Children = []*Node{n}
		d.BoxRoot = true
		return d
	}
	n.BoxRoot = true
	return n
}

// lowerSelect lays out a select box's join pipeline: predicate staging and
// equality-key extraction mirror the evaluator's per-box planning, but are
// resolved once at lowering time against the optimizer's join order. For a
// member of a recursive component, comp is its quantifier into the
// component and compChild the operator reading it: comp becomes the
// streamed stage 0 and the other quantifiers follow in deltaOrder.
func (lw *lowerer) lowerSelect(b *qgm.Box, comp *qgm.Quantifier, compChild *Node) *Node {
	n := lw.p.newNode(OpSelect, b, "select "+boxName(b))

	var fQ, sQ, qQ []*qgm.Quantifier
	for _, q := range b.OrderedQuantifiers() {
		switch {
		case q == comp:
		case q.Type == qgm.ForEach:
			fQ = append(fQ, q)
		case q.Type == qgm.Scalar:
			sQ = append(sQ, q)
		default:
			qQ = append(qQ, q)
		}
	}
	if comp != nil {
		fQ = deltaOrder(b, comp, fQ)
	}

	pos := map[*qgm.Quantifier]int{} // F quantifier -> position+1
	for i, q := range fQ {
		pos[q] = i + 1
	}
	isScalar := map[*qgm.Quantifier]bool{}
	for _, q := range sQ {
		isScalar[q] = true
	}
	isEA := map[*qgm.Quantifier]bool{}
	for _, q := range qQ {
		isEA[q] = true
	}

	// stagePreds[i] holds predicates evaluable once fQ[:i] are bound.
	stagePreds := make([][]qgm.Expr, len(fQ)+1)
	matchPreds := map[*qgm.Quantifier][]qgm.Expr{}
	for _, pred := range b.Preds {
		var ea *qgm.Quantifier
		stage := 0
		needsScalar := false
		unbound := false
		qgm.VisitRefs(pred, func(c *qgm.ColRef) {
			switch {
			case isEA[c.Q]:
				ea = c.Q
			case isScalar[c.Q]:
				needsScalar = true
			case pos[c.Q] > 0:
				if pos[c.Q] > stage {
					stage = pos[c.Q]
				}
			default:
				unbound = true
			}
		})
		switch {
		case unbound:
			n.PostPreds = append(n.PostPreds, pred)
		case ea != nil:
			matchPreds[ea] = append(matchPreds[ea], pred)
		case needsScalar:
			n.PostPreds = append(n.PostPreds, pred)
		default:
			stagePreds[stage] = append(stagePreds[stage], pred)
		}
	}
	n.ConstPreds = stagePreds[0]

	var detail []string
	for i, q := range fQ {
		st := Stage{Quant: q}
		preds := stagePreds[i+1]
		childBox := q.Ranges
		corr := q != comp && lw.hasFree(childBox)
		lowerChild := func() *Node {
			if q == comp {
				return compChild
			}
			return lw.lowerBox(childBox)
		}

		// Split stage predicates into strict equality keys (one side
		// references only q, the other only earlier stages) and residual
		// filters.
		var residual []qgm.Expr
		if !corr {
			earlier := map[*qgm.Quantifier]bool{}
			for _, eq := range fQ[:i] {
				earlier[eq] = true
			}
			for _, pred := range preds {
				if cmp, ok := pred.(*qgm.Cmp); ok && cmp.Op == datum.EQ {
					switch {
					case refsOnly(cmp.L, q) && refsWithin(cmp.R, earlier):
						st.KeyMine = append(st.KeyMine, cmp.L)
						st.KeyOther = append(st.KeyOther, cmp.R)
						continue
					case refsOnly(cmp.R, q) && refsWithin(cmp.L, earlier):
						st.KeyMine = append(st.KeyMine, cmp.R)
						st.KeyOther = append(st.KeyOther, cmp.L)
						continue
					}
				}
				residual = append(residual, pred)
			}
		}

		// An index probe needs an index over exactly the key columns.
		// Without one, stage 0 streams with its equalities as filters and
		// a later stage hash-joins; the executor's downgrade of an index
		// stage is only the fallback for a store that lacks an index its
		// catalog declares.
		indexable := len(st.KeyMine) > 0 && childBox.Kind == qgm.KindBaseTable
		if indexable {
			for _, m := range st.KeyMine {
				cr, ok := m.(*qgm.ColRef)
				if !ok || cr.Q != q {
					indexable = false
					break
				}
				st.IndexCols = append(st.IndexCols, cr.Ord)
			}
			if !indexable || childBox.Table == nil || !childBox.Table.HasIndex(st.IndexCols) {
				indexable = false
				st.IndexCols = nil
			}
		}

		switch {
		case corr:
			st.Access = AccessCorr
			st.Residual = preds
			st.Child = lw.bridge(childBox, "correlated")
		case indexable:
			st.Access = AccessIndex
			st.Residual = residual
			st.Child = lowerChild()
		case i == 0:
			st.Access = AccessStream
			st.Residual = preds
			st.KeyMine, st.KeyOther = nil, nil
			st.Child = lowerChild()
		case len(st.KeyMine) > 0:
			st.Access = AccessHash
			st.Residual = residual
			st.Child = lowerChild()
		default:
			st.Access = AccessScan
			st.Residual = preds
			st.Child = lowerChild()
		}
		n.Stages = append(n.Stages, st)
		n.Children = append(n.Children, st.Child)
		detail = append(detail, q.Name+":"+st.Access.String())
	}

	n.Scalars = sQ
	for _, q := range sQ {
		reason := "scalar, memoized"
		if lw.hasFree(q.Ranges) {
			reason = "scalar, correlated"
		}
		child := lw.bridge(q.Ranges, reason)
		n.Children = append(n.Children, child)
		detail = append(detail, q.Name+":scalar")
	}

	for _, q := range qQ {
		sq := Subquery{Quant: q, Match: matchPreds[q], Mode: SubqBridge}
		closed := !lw.hasFree(q.Ranges)
		onlyQ := true
		allowed := map[*qgm.Quantifier]bool{q: true}
		for _, m := range sq.Match {
			if !qgm.OnlyRefs(m, allowed) {
				onlyQ = false
				break
			}
		}
		kind := "semi"
		if q.Type == qgm.ForAll {
			kind = "anti"
		}
		if closed && onlyQ {
			// The check's outcome is independent of the outer bindings:
			// stream the subquery and stop at the first decisive row.
			sq.Mode = SubqFirstMatch
			sq.Child = lw.lowerBox(q.Ranges)
			detail = append(detail, q.Name+":"+kind+"-first-match")
		} else {
			reason := kind + "-join, memoized"
			if !closed {
				reason = kind + "-join, correlated"
			}
			sq.Child = lw.bridge(q.Ranges, reason)
			detail = append(detail, q.Name+":"+kind)
		}
		n.Subqs = append(n.Subqs, sq)
		n.Children = append(n.Children, sq.Child)
	}

	n.Detail = strings.Join(detail, ", ")
	n.Vec = vectorizableSelect(n)
	return n
}

// deltaOrder is the join order of a recursive member's pipeline: comp
// first, then the other ForEach quantifiers in the optimizer's relative
// order — except that each next stage is the first one an equality joins to
// the stages already placed, when there is one. The optimizer ordered them
// for a pipeline comp did not drive; taken as is, its order could leave a
// cross product behind the delta.
func deltaOrder(b *qgm.Box, comp *qgm.Quantifier, rest []*qgm.Quantifier) []*qgm.Quantifier {
	order := []*qgm.Quantifier{comp}
	placed := map[*qgm.Quantifier]bool{comp: true}
	joinable := func(q *qgm.Quantifier) bool {
		for _, pred := range b.Preds {
			cmp, ok := pred.(*qgm.Cmp)
			if ok && cmp.Op == datum.EQ &&
				(refsOnly(cmp.L, q) && refsWithin(cmp.R, placed) ||
					refsOnly(cmp.R, q) && refsWithin(cmp.L, placed)) {
				return true
			}
		}
		return false
	}
	for len(rest) > 0 {
		pick := 0
		for i, q := range rest {
			if joinable(q) {
				pick = i
				break
			}
		}
		q := rest[pick]
		order = append(order, q)
		placed[q] = true
		rest = append(rest[:pick:pick], rest[pick+1:]...)
	}
	return order
}

// fixLowering is the context of lowering one linear recursive component.
type fixLowering struct {
	root    *qgm.Box
	node    *Node // the OpFixpoint node
	members map[*qgm.Box]bool
}

// lowerFixpoint lowers the fixpoint root of a recursive view. A linear
// component (linearComponent) becomes a semi-naive fixpoint with two
// children: the seed tree — the body with every reference to the root read
// as empty, so recursive union branches drop out — and the delta tree — the
// recursive branches only, each reference to the root an OpDelta leaf
// streaming the previous round's new rows. Because every derivation reads
// the root at most once, the rows a round derives from the whole set are
// those of the seed plus those derived from each round's delta, so the
// executor's loop reaches the same set as naive iteration. Any other
// component keeps the bridge to the evaluator's naive iteration.
func (lw *lowerer) lowerFixpoint(b *qgm.Box) *Node {
	n := lw.p.newNode(OpFixpoint, b, "fixpoint "+boxName(b))
	n.EstRows = lw.est.Card(b)
	n.EstMem = n.EstRows * estWidth(b)
	members, why := lw.linearComponent(b)
	if why != "" {
		n.Detail = "naive, bridged: " + why
		return n
	}
	fx := &fixLowering{root: b, node: n, members: members}
	seed := lw.lowerMember(fx, b, false)
	if seed == nil {
		seed = lw.p.newNode(OpUnion, nil, "empty")
	}
	delta := lw.lowerMember(fx, b, true)
	seed.Label = "seed: " + seed.Label
	delta.Label = "delta: " + delta.Label
	n.Children = []*Node{seed, delta}
	n.Detail = "semi-naive"
	return n
}

// linearComponent returns the member set of root's recursive component when
// the component is linear: every member is a select or union box, each
// select member has exactly one quantifier into the component, of type
// ForEach, and every cycle passes through the root. Otherwise it returns
// why not. Members must also be closed and unlinked from magic boxes, as
// the seed and delta trees stream them directly.
func (lw *lowerer) linearComponent(root *qgm.Box) (map[*qgm.Box]bool, string) {
	members := qgm.SCCBoxes(root)
	in := make(map[*qgm.Box]bool, len(members))
	for _, x := range members {
		in[x] = true
	}
	for _, x := range members {
		switch {
		case lw.hasFree(x):
			return nil, "correlated member"
		case x.MagicBox != nil:
			return nil, "magic-linked member"
		case x.Kind == qgm.KindUnion:
			continue
		case x.Kind != qgm.KindSelect:
			return nil, x.Kind.String() + " member"
		}
		refs := 0
		for _, q := range x.Quantifiers {
			if !in[q.Ranges] {
				continue
			}
			if q.Type != qgm.ForEach {
				return nil, "subquery over the recursion"
			}
			refs++
		}
		switch {
		case refs == 0:
			return nil, "no recursive reference"
		case refs > 1:
			return nil, "non-linear"
		}
	}
	// A cycle avoiding the root would make the delta tree infinite.
	state := map[*qgm.Box]int{} // 1 on the DFS stack, 2 done
	var cyclic func(x *qgm.Box) bool
	cyclic = func(x *qgm.Box) bool {
		state[x] = 1
		for _, q := range x.Quantifiers {
			c := q.Ranges
			if c == root || !in[c] || state[c] == 2 {
				continue
			}
			if state[c] == 1 || cyclic(c) {
				return true
			}
		}
		state[x] = 2
		return false
	}
	if cyclic(root) {
		return nil, "cycle avoiding the root"
	}
	return in, ""
}

// lowerMember lowers member box b of a linear component into the seed tree
// (delta false) or the delta tree. It returns nil for a box the seed reads
// as empty: every derivation of it reads the root. Members lower without
// distinct wrappers — the fixpoint's seen-set gives the whole component set
// semantics — and exit branches (union inputs outside the component) appear
// in the seed tree only.
func (lw *lowerer) lowerMember(fx *fixLowering, b *qgm.Box, delta bool) *Node {
	var n *Node
	if b.Kind == qgm.KindUnion {
		var kids []*Node
		for _, q := range b.Quantifiers {
			var c *Node
			switch {
			case fx.members[q.Ranges]:
				c = lw.memberInput(fx, q.Ranges, delta)
			case !delta:
				c = lw.lowerBox(q.Ranges)
			}
			if c != nil {
				kids = append(kids, c)
			}
		}
		if len(kids) == 0 {
			return nil
		}
		n = lw.p.newNode(OpUnion, b, "union "+boxName(b))
		n.Children = kids
	} else {
		var comp *qgm.Quantifier
		for _, q := range b.Quantifiers {
			if fx.members[q.Ranges] {
				comp = q
			}
		}
		child := lw.memberInput(fx, comp.Ranges, delta)
		if child == nil {
			return nil
		}
		n = lw.lowerSelect(b, comp, child)
	}
	n.Fixpoint = fx.node
	n.BoxRoot = true
	return n
}

// memberInput lowers the input a member reads from member box c: the root
// is an OpDelta leaf in the delta tree and empty in the seed tree; any
// other member lowers in place.
func (lw *lowerer) memberInput(fx *fixLowering, c *qgm.Box, delta bool) *Node {
	if c != fx.root {
		return lw.lowerMember(fx, c, delta)
	}
	if !delta {
		return nil
	}
	d := lw.p.newNode(OpDelta, c, "delta "+boxName(c))
	d.Fixpoint = fx.node
	return d
}

// vectorizableSelect is the lowering-time vectorizability decision for a
// select pipeline: the driving stage streams a base-table scan whose
// residual filters are kernel-compilable, every later stage is a hash join
// keyed on at most vec.MaxKeyCols plain column/constant expressions, and
// nothing forces row-at-a-time finishing (scalar subqueries, semi/anti
// checks, post-predicates). The executor re-verifies at build time against
// runtime types and the memory mode; this flag is the shared structural
// judgment surfaced in EXPLAIN.
func vectorizableSelect(n *Node) bool {
	if len(n.Scalars) > 0 || len(n.Subqs) > 0 || len(n.PostPreds) > 0 || len(n.Stages) == 0 {
		return false
	}
	for i := range n.Stages {
		st := &n.Stages[i]
		if i == 0 {
			if st.Access != AccessStream || st.Child.Kind != OpScan {
				return false
			}
			for _, e := range st.Residual {
				if !vecFilterable(e, st.Quant) {
					return false
				}
			}
			continue
		}
		if st.Access != AccessHash || len(st.KeyMine) == 0 || len(st.KeyMine) > maxVecKeys {
			return false
		}
		for _, e := range st.KeyMine {
			if cr, ok := e.(*qgm.ColRef); !ok || cr.Q != st.Quant {
				return false
			}
		}
		for _, e := range st.KeyOther {
			switch e.(type) {
			case *qgm.ColRef, *qgm.Const, *qgm.Param:
			default:
				return false
			}
		}
	}
	return true
}

// maxVecKeys mirrors vec.MaxKeyCols without importing the executor's vec
// package into the plan layer.
const maxVecKeys = 4

// vecFilterable reports whether a driving-stage filter can compile to
// column kernels: comparisons, three-valued logic, IS [NOT] NULL, and
// numeric arithmetic over the stage's own columns, constants, and
// parameters. Functions, LIKE, CASE, concatenation, and references to other
// quantifiers force the row pipeline.
func vecFilterable(e qgm.Expr, q *qgm.Quantifier) bool {
	switch x := e.(type) {
	case *qgm.Const, *qgm.Param:
		return true
	case *qgm.ColRef:
		return x.Q == q
	case *qgm.Cmp:
		return vecFilterable(x.L, q) && vecFilterable(x.R, q)
	case *qgm.Logic:
		for _, a := range x.Args {
			if !vecFilterable(a, q) {
				return false
			}
		}
		return true
	case *qgm.Not:
		return vecFilterable(x.X, q)
	case *qgm.IsNull:
		return vecFilterable(x.X, q)
	case *qgm.Arith:
		return vecFilterable(x.L, q) && vecFilterable(x.R, q)
	case *qgm.Neg:
		return vecFilterable(x.X, q)
	}
	return false
}

// refsOnly reports whether e references quantifier q and nothing else.
func refsOnly(e qgm.Expr, q *qgm.Quantifier) bool {
	found, only := false, true
	qgm.VisitRefs(e, func(c *qgm.ColRef) {
		if c.Q == q {
			found = true
		} else {
			only = false
		}
	})
	return found && only
}

// refsWithin reports whether every reference in e targets a quantifier in
// allowed (constant expressions qualify).
func refsWithin(e qgm.Expr, allowed map[*qgm.Quantifier]bool) bool {
	ok := true
	qgm.VisitRefs(e, func(c *qgm.ColRef) {
		if !allowed[c.Q] {
			ok = false
		}
	})
	return ok
}

func boxName(b *qgm.Box) string {
	if b.Name != "" {
		return b.Name
	}
	return fmt.Sprintf("%s#%d", b.Kind, b.ID)
}

func orderDetail(specs []qgm.OrderSpec) string {
	parts := make([]string, len(specs))
	for i, s := range specs {
		dir := "asc"
		if s.Desc {
			dir = "desc"
		}
		parts[i] = fmt.Sprintf("c%d %s", s.Ord, dir)
	}
	return strings.Join(parts, ", ")
}

func setDetail(b *qgm.Box) string {
	if b.Distinct != qgm.DistinctPreserve {
		return "distinct"
	}
	return "all"
}

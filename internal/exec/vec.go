// Vectorized execution of select pipelines: when lowering marked a node
// Vec (driving base-table scan with kernel-compilable filters, hash stages
// keyed on plain columns/constants), the executor compiles the filters to
// typed column kernels over the storage layer's zero-copy columnar
// snapshot and keys the hash joins on fixed-width normalized words instead
// of AppendKey byte strings. String columns carry intern ids, so string
// equality, hashing, and join keys are integer compares.
//
// The compiled operator is a drop-in replacement for selectPipeOp with
// identical semantics and counter accounting (BaseRows, BoxEvals,
// HashBuilds/HashProbes, OutputRows, MaxRows, cancellation): any
// expression or type the compiler cannot prove kernel-safe fails the
// compile and the node silently falls back to the row pipeline. Div/Mod
// stay row-at-a-time on purpose — their data-dependent divide-by-zero
// errors must surface exactly when the row is reached, which chunked
// evaluation cannot reproduce.
package exec

import (
	"fmt"
	"sync"

	"starmagic/internal/datum"
	"starmagic/internal/plan"
	"starmagic/internal/qgm"
	"starmagic/internal/storage"
	"starmagic/internal/vec"
)

// vecBatch is the vectorized chunk size: large enough to amortize kernel
// dispatch, small enough that a LIMIT consumer over-reads at most one
// chunk beyond the row pipeline's 64-row batches.
const vecBatch = 512

// tickN is the bulk form of tick for chunked loops: it advances the
// amortized cancellation counter by n rows and polls if a poll boundary
// was crossed, so a vectorized scan keeps the row pipeline's cancellation
// latency without a per-row call.
func (ev *Evaluator) tickN(n int) error {
	if ev.ctxDone == nil {
		return nil
	}
	before := ev.ticks / ctxPollInterval
	ev.ticks += n
	if ev.ticks/ctxPollInterval == before {
		return nil
	}
	return ev.ctxErr()
}

// vecClass partitions types into key-comparability classes: 1 numeric,
// 2 string, 3 boolean, 0 unknown/unsupported. Only same-class operands
// compile — it is what keeps NormNum float bits and intern ids from ever
// meeting in one hash-key position.
func vecClass(t datum.Type) int {
	switch t {
	case datum.TInt, datum.TFloat:
		return 1
	case datum.TString:
		return 2
	case datum.TBool:
		return 3
	}
	return 0
}

// vecPred is one compiled driving-stage predicate: eval fills tvs[k] with
// the three-valued verdict for scan row sel[k]. Compiled predicates cannot
// fail at runtime — anything that could (unbound params, type errors,
// Div/Mod) fails the compile instead.
type vecPred interface {
	eval(o *vecSelectOp, sel vec.Sel, tvs []datum.TV)
}

// constTVPred is a predicate folded to a constant at compile time.
type constTVPred struct{ tv datum.TV }

func (p *constTVPred) eval(o *vecSelectOp, sel vec.Sel, tvs []datum.TV) {
	for k := range sel {
		tvs[k] = p.tv
	}
}

// isNullPred is IS [NOT] NULL over a scan column.
type isNullPred struct {
	col    int
	negate bool
}

func (p *isNullPred) eval(o *vecSelectOp, sel vec.Sel, tvs []datum.TV) {
	vec.IsNullTV(o.tbl.Cols[p.col].Nulls, p.negate, sel, tvs)
}

// notPred is NOT over a compiled predicate.
type notPred struct{ x vecPred }

func (p *notPred) eval(o *vecSelectOp, sel vec.Sel, tvs []datum.TV) {
	p.x.eval(o, sel, tvs)
	vec.NotTV(tvs[:len(sel)])
}

// boolColPred treats a BOOLEAN column as a predicate (WHERE flag).
type boolColPred struct{ col int }

func (p *boolColPred) eval(o *vecSelectOp, sel vec.Sel, tvs []datum.TV) {
	c := &o.tbl.Cols[p.col]
	vec.CmpBoolConst(c.Bs, c.Nulls, datum.EQ, true, sel, tvs)
}

// logicPred is n-ary AND/OR. Later arguments are evaluated only over the
// sub-selection where the accumulator is not yet decisive, reproducing the
// row pipeline's short-circuit exactly — including which rows never see
// later arguments at all.
type logicPred struct {
	and  bool
	args []vecPred

	subSel vec.Sel
	idx    []int32
	subTVs []datum.TV
}

func (p *logicPred) eval(o *vecSelectOp, sel vec.Sel, tvs []datum.TV) {
	p.args[0].eval(o, sel, tvs)
	decisive := datum.True
	if p.and {
		decisive = datum.False
	}
	for _, a := range p.args[1:] {
		sub := p.subSel[:0]
		idx := p.idx[:0]
		for k, i := range sel {
			if tvs[k] != decisive {
				sub = append(sub, i)
				idx = append(idx, int32(k))
			}
		}
		if len(sub) == 0 {
			break
		}
		subTVs := p.subTVs[:len(sub)]
		a.eval(o, sub, subTVs)
		if p.and {
			for j, k := range idx {
				tvs[k] = tvs[k].And(subTVs[j])
			}
		} else {
			for j, k := range idx {
				tvs[k] = tvs[k].Or(subTVs[j])
			}
		}
	}
}

// Numeric comparison predicates over plain columns and constants dispatch
// straight to the typed kernels.

type cmpNumColConstPred struct {
	col int
	op  datum.CmpOp
	ci  int64
	cf  float64
	// rhsInt: the constant is integral and the column is INT, so the
	// compare runs on int64 (exact for values beyond 2^53).
	rhsInt bool
}

func (p *cmpNumColConstPred) eval(o *vecSelectOp, sel vec.Sel, tvs []datum.TV) {
	c := &o.tbl.Cols[p.col]
	switch {
	case p.rhsInt:
		vec.CmpI64Const(c.I64, c.Nulls, p.op, p.ci, sel, tvs)
	case c.T == datum.TInt:
		vec.CmpI64ConstF(c.I64, c.Nulls, p.op, p.cf, sel, tvs)
	default:
		vec.CmpF64Const(c.F64, c.Nulls, p.op, p.cf, sel, tvs)
	}
}

type cmpNumColColPred struct {
	a, b int
	op   datum.CmpOp
}

func (p *cmpNumColColPred) eval(o *vecSelectOp, sel vec.Sel, tvs []datum.TV) {
	ca, cb := &o.tbl.Cols[p.a], &o.tbl.Cols[p.b]
	vec.CmpNumNum(ca.I64, ca.F64, ca.Nulls, p.op, cb.I64, cb.F64, cb.Nulls, sel, tvs)
}

// cmpStrColConstPred compares a string column against a constant. Equality
// runs purely on intern ids; ordering resolves through the shared string
// snapshot. The constant's id is resolved lazily through Lookup — a miss
// proves no stored string equals it.
type cmpStrColConstPred struct {
	col      int
	op       datum.CmpOp
	rhs      string
	resolved bool
	rhsID    uint32
	present  bool
}

func (p *cmpStrColConstPred) eval(o *vecSelectOp, sel vec.Sel, tvs []datum.TV) {
	if !p.resolved {
		p.rhsID, p.present = o.tab.Lookup(p.rhs)
		p.resolved = true
	}
	c := &o.tbl.Cols[p.col]
	switch p.op {
	case datum.EQ, datum.NE:
		vec.CmpIDConstEQ(c.IDs, c.Nulls, p.rhsID, p.present, p.op == datum.NE, sel, tvs)
	default:
		vec.CmpStrConstOrd(c.IDs, c.Nulls, o.strs, p.op, p.rhs, p.rhsID, p.present, sel, tvs)
	}
}

type cmpStrColColPred struct {
	a, b int
	op   datum.CmpOp
}

func (p *cmpStrColColPred) eval(o *vecSelectOp, sel vec.Sel, tvs []datum.TV) {
	ca, cb := &o.tbl.Cols[p.a], &o.tbl.Cols[p.b]
	switch p.op {
	case datum.EQ, datum.NE:
		vec.CmpIDIDEQ(ca.IDs, ca.Nulls, cb.IDs, cb.Nulls, p.op == datum.NE, sel, tvs)
	default:
		vec.CmpStrStrOrd(ca.IDs, ca.Nulls, cb.IDs, cb.Nulls, o.strs, p.op, sel, tvs)
	}
}

type cmpBoolColConstPred struct {
	col int
	op  datum.CmpOp
	rhs bool
}

func (p *cmpBoolColConstPred) eval(o *vecSelectOp, sel vec.Sel, tvs []datum.TV) {
	c := &o.tbl.Cols[p.col]
	vec.CmpBoolConst(c.Bs, c.Nulls, p.op, p.rhs, sel, tvs)
}

type cmpBoolColColPred struct {
	a, b int
	op   datum.CmpOp
}

func (p *cmpBoolColColPred) eval(o *vecSelectOp, sel vec.Sel, tvs []datum.TV) {
	ca, cb := &o.tbl.Cols[p.a], &o.tbl.Cols[p.b]
	vec.CmpBoolBool(ca.Bs, ca.Nulls, cb.Bs, cb.Nulls, p.op, sel, tvs)
}

// numExpr is one node of the compiled arithmetic VM (Add/Sub/Mul/Neg over
// columns, constants, and resolved parameters). isInt tracks the static
// result type with datum.Arith's promotion rule: int-int stays int64
// (wrapping like the row path), anything else runs in float64.
type numExpr struct {
	kind  int // numCol, numConst, numArith, numNeg
	isInt bool
	col   int
	null  bool // constant NULL
	ci    int64
	cf    float64
	aop   datum.ArithOp
	l, r  *numExpr

	bi  []int64
	bf  []float64
	bln []bool
}

// withBufs gives a VM node the scratch its parent evaluates it into.
func (n *numExpr) withBufs() *numExpr {
	n.bi = make([]int64, vecBatch)
	n.bf = make([]float64, vecBatch)
	n.bln = make([]bool, vecBatch)
	return n
}

const (
	numCol = iota
	numConst
	numArith
	numNeg
)

func (n *numExpr) evalI(o *vecSelectOp, sel vec.Sel, out []int64, nulls []bool) {
	switch n.kind {
	case numCol:
		c := &o.tbl.Cols[n.col]
		for k, i := range sel {
			out[k] = c.I64[i]
			nulls[k] = c.Nulls[i]
		}
	case numConst:
		for k := range sel {
			out[k] = n.ci
			nulls[k] = n.null
		}
	case numNeg:
		n.l.evalI(o, sel, out, nulls)
		for k := range sel {
			out[k] = -out[k]
		}
	case numArith:
		lb, rb := n.l.bi[:len(sel)], n.r.bi[:len(sel)]
		ln, rn := n.l.bln[:len(sel)], n.r.bln[:len(sel)]
		n.l.evalI(o, sel, lb, ln)
		n.r.evalI(o, sel, rb, rn)
		switch n.aop {
		case datum.Add:
			for k := range sel {
				out[k] = lb[k] + rb[k]
				nulls[k] = ln[k] || rn[k]
			}
		case datum.Sub:
			for k := range sel {
				out[k] = lb[k] - rb[k]
				nulls[k] = ln[k] || rn[k]
			}
		case datum.Mul:
			for k := range sel {
				out[k] = lb[k] * rb[k]
				nulls[k] = ln[k] || rn[k]
			}
		}
	}
}

func (n *numExpr) evalF(o *vecSelectOp, sel vec.Sel, out []float64, nulls []bool) {
	switch n.kind {
	case numCol:
		c := &o.tbl.Cols[n.col]
		if c.T == datum.TInt {
			for k, i := range sel {
				out[k] = float64(c.I64[i])
				nulls[k] = c.Nulls[i]
			}
		} else {
			for k, i := range sel {
				out[k] = c.F64[i]
				nulls[k] = c.Nulls[i]
			}
		}
	case numConst:
		for k := range sel {
			out[k] = n.cf
			nulls[k] = n.null
		}
	case numNeg:
		n.l.evalF(o, sel, out, nulls)
		for k := range sel {
			out[k] = -out[k]
		}
	case numArith:
		if n.isInt {
			// Int-int arithmetic truncates in int64 before any float use.
			ib := n.bi[:len(sel)]
			n.evalI(o, sel, ib, nulls)
			for k := range sel {
				out[k] = float64(ib[k])
			}
			return
		}
		lb, rb := n.l.bf[:len(sel)], n.r.bf[:len(sel)]
		ln, rn := n.l.bln[:len(sel)], n.r.bln[:len(sel)]
		n.l.evalF(o, sel, lb, ln)
		n.r.evalF(o, sel, rb, rn)
		switch n.aop {
		case datum.Add:
			for k := range sel {
				out[k] = lb[k] + rb[k]
				nulls[k] = ln[k] || rn[k]
			}
		case datum.Sub:
			for k := range sel {
				out[k] = lb[k] - rb[k]
				nulls[k] = ln[k] || rn[k]
			}
		case datum.Mul:
			for k := range sel {
				out[k] = lb[k] * rb[k]
				nulls[k] = ln[k] || rn[k]
			}
		}
	}
}

// numCmpPred compares two compiled arithmetic expressions: int64 compare
// when both sides are statically int (exact), float64 otherwise (matching
// datum.Compare's mixed-numeric promotion).
type numCmpPred struct {
	l, r *numExpr
	op   datum.CmpOp
}

func (p *numCmpPred) eval(o *vecSelectOp, sel vec.Sel, tvs []datum.TV) {
	ltv, eqv, gtv := vec.SignTVs(p.op)
	n := len(sel)
	if p.l.isInt && p.r.isInt {
		lb, rb := p.l.bi[:n], p.r.bi[:n]
		ln, rn := p.l.bln[:n], p.r.bln[:n]
		p.l.evalI(o, sel, lb, ln)
		p.r.evalI(o, sel, rb, rn)
		for k := 0; k < n; k++ {
			switch {
			case ln[k] || rn[k]:
				tvs[k] = datum.Unknown
			case lb[k] < rb[k]:
				tvs[k] = ltv
			case lb[k] > rb[k]:
				tvs[k] = gtv
			default:
				tvs[k] = eqv
			}
		}
		return
	}
	lb, rb := p.l.bf[:n], p.r.bf[:n]
	ln, rn := p.l.bln[:n], p.r.bln[:n]
	p.l.evalF(o, sel, lb, ln)
	p.r.evalF(o, sel, rb, rn)
	for k := 0; k < n; k++ {
		switch {
		case ln[k] || rn[k]:
			tvs[k] = datum.Unknown
		case lb[k] < rb[k]:
			tvs[k] = ltv
		case lb[k] > rb[k]:
			tvs[k] = gtv
		default:
			tvs[k] = eqv
		}
	}
}

// Probe-source kinds for hash-stage key positions.
const (
	probeDrive = iota // column of the driving scan, read from the columnar snapshot
	probeStage        // column of an earlier hash stage's current row
	probeConst        // literal or resolved parameter
)

// probeSrc produces one 64-bit key word of a hash-stage probe.
type probeSrc struct {
	kind  int
	ord   int
	stage int // probeStage: index into o.hashStages
	class int

	d        datum.D // probeConst raw value
	resolved bool
	word     uint64
	null     bool
	missing  bool // string constant not interned: probes, never matches
}

// vecStage is one compiled hash-join stage: build rows keyed by normalized
// fixed-width words (single-word map for one key column, vec.Key for up to
// four).
type vecStage struct {
	st      *plan.Stage
	quant   *qgm.Quantifier
	keyOrds []int
	probes  []probeSrc
	filters []qgm.Expr

	built bool
	rows  []datum.Row
	ht1   map[uint64][]int32
	htN   map[vec.Key][]int32

	bucket []int32
	bi     int
	cur    datum.Row
}

// vecProjSrc is one output column of the gather fast path: a plain column
// of the driving scan (stage -1) or of a hash stage's current row.
type vecProjSrc struct {
	stage int
	ord   int
}

// vecSelectOp is the vectorized replacement for selectPipeOp: a chunked
// kernel-filtered scan drives an odometer over fixed-width-keyed hash
// stages. Compiled by tryVecSelect; any structural or type obstacle falls
// back to the row pipeline before the operator is ever constructed.
type vecSelectOp struct {
	r  *planRun
	n  *plan.Node
	ev *Evaluator

	q0       *qgm.Quantifier
	scanNode *plan.Node
	preds    []vecPred
	stages   []*vecStage
	projSrcs []vecProjSrc // nil: project through env + projectRow

	// alwaysBind keeps env bindings live on every advance (needed when any
	// hash stage has residual filters); otherwise bindings happen only at
	// emit time for env-based projection.
	alwaysBind bool

	rel  *storage.RelView
	tbl  vec.Table
	rows []datum.Row
	vis  []int32 // visibility selection; nil when every stored version is visible
	tab  *vec.Intern
	strs []string

	env        Env
	chunkStart int
	visPos     int
	sel        vec.Sel
	selPos     int
	scratch    *vecScratch // selA, selB and tvs come from it
	selA, selB vec.Sel
	tvs        []datum.TV
	cur        int
	depth      int
	done       bool
	out        []datum.Row
}

// tryVecSelect compiles a Vec-marked select node, returning nil when the
// node must run on the row pipeline (memory budget, NoVec, or a compile
// obstacle the lowering's structural check could not see, like unknown
// column classes or Div/Mod in a filter).
func (r *planRun) tryVecSelect(n *plan.Node) operator {
	ev := r.ev
	if !n.Vec || ev.Mem != nil || ev.NoVec {
		return nil
	}
	if len(n.Stages) == 0 || len(n.Scalars) > 0 || len(n.Subqs) > 0 || len(n.PostPreds) > 0 {
		return nil
	}
	st0 := &n.Stages[0]
	if st0.Access != plan.AccessStream || st0.Child.Kind != plan.OpScan || st0.Child.Box.Table == nil {
		return nil
	}
	o := &vecSelectOp{r: r, n: n, ev: ev, q0: st0.Quant, scanNode: st0.Child}
	colTypes := make([]datum.Type, len(st0.Child.Box.Table.Columns))
	for i, c := range st0.Child.Box.Table.Columns {
		colTypes[i] = c.Type
	}
	for _, e := range st0.Residual {
		p, ok := o.compilePred(e, colTypes)
		if !ok {
			return nil
		}
		o.preds = append(o.preds, p)
	}
	for i := 1; i < len(n.Stages); i++ {
		vs, ok := o.compileStage(&n.Stages[i], colTypes)
		if !ok {
			return nil
		}
		if len(vs.filters) > 0 {
			o.alwaysBind = true
		}
		o.stages = append(o.stages, vs)
	}
	o.compileProj()
	if o.projSrcs == nil {
		o.alwaysBind = true
	}
	o.scratch = vecScratchPool.Get().(*vecScratch)
	o.selA, o.selB, o.tvs = o.scratch.selA, o.scratch.selB, o.scratch.tvs
	o.out = make([]datum.Row, 0, streamBatch)
	return o
}

// vecScratch is the selection and truth-value scratch of one vectorized
// select. It never leaves the operator, so close hands it back to
// vecScratchPool for the next run instead of every run allocating its own.
// (The output batch does leave: a consumer may still hold it after close.)
type vecScratch struct {
	selA, selB vec.Sel
	tvs        []datum.TV
}

var vecScratchPool = sync.Pool{New: func() any {
	return &vecScratch{
		selA: make(vec.Sel, 0, vecBatch),
		selB: make(vec.Sel, 0, vecBatch),
		tvs:  make([]datum.TV, vecBatch),
	}
}}

// compileProj compiles the projection to a plain column gather when every
// output expression is a ColRef of a bound quantifier; otherwise emission
// binds env and uses projectRow.
func (o *vecSelectOp) compileProj() {
	srcs := make([]vecProjSrc, len(o.n.Box.Output))
	for i, oc := range o.n.Box.Output {
		cr, ok := oc.Expr.(*qgm.ColRef)
		if !ok {
			return
		}
		if cr.Q == o.q0 {
			srcs[i] = vecProjSrc{stage: -1, ord: cr.Ord}
			continue
		}
		found := false
		for s, vs := range o.stages {
			if vs.quant == cr.Q {
				srcs[i] = vecProjSrc{stage: s, ord: cr.Ord}
				found = true
				break
			}
		}
		if !found {
			return
		}
	}
	o.projSrcs = srcs
}

// compileStage compiles one hash stage: key classes must pair up statically
// (numeric/string/boolean) so normalized words can never collide across
// classes, and every probe source must be a driving column, an earlier
// stage's column, or a constant.
func (o *vecSelectOp) compileStage(st *plan.Stage, colTypes []datum.Type) (*vecStage, bool) {
	if st.Access != plan.AccessHash || len(st.KeyMine) == 0 || len(st.KeyMine) > vec.MaxKeyCols {
		return nil, false
	}
	vs := &vecStage{st: st, quant: st.Quant, filters: st.Residual}
	for j := range st.KeyMine {
		cr, ok := st.KeyMine[j].(*qgm.ColRef)
		if !ok || cr.Q != st.Quant {
			return nil, false
		}
		mc := vecClass(qgm.TypeOf(cr))
		if mc == 0 {
			return nil, false
		}
		ps, ok := o.compileProbe(st.KeyOther[j], colTypes)
		if !ok || ps.class != mc {
			return nil, false
		}
		vs.keyOrds = append(vs.keyOrds, cr.Ord)
		vs.probes = append(vs.probes, ps)
	}
	return vs, true
}

func (o *vecSelectOp) compileProbe(e qgm.Expr, colTypes []datum.Type) (probeSrc, bool) {
	switch x := e.(type) {
	case *qgm.ColRef:
		if x.Q == o.q0 {
			if x.Ord >= len(colTypes) {
				return probeSrc{}, false
			}
			c := vecClass(colTypes[x.Ord])
			if c == 0 {
				return probeSrc{}, false
			}
			return probeSrc{kind: probeDrive, ord: x.Ord, class: c}, true
		}
		for s := range o.stages {
			if o.stages[s].quant == x.Q {
				c := vecClass(qgm.TypeOf(x))
				if c == 0 {
					return probeSrc{}, false
				}
				return probeSrc{kind: probeStage, stage: s, ord: x.Ord, class: c}, true
			}
		}
		return probeSrc{}, false
	case *qgm.Const:
		return o.compileConstProbe(x.Val)
	case *qgm.Param:
		if x.Ord >= len(o.ev.Params) {
			return probeSrc{}, false
		}
		return o.compileConstProbe(o.ev.Params[x.Ord])
	}
	return probeSrc{}, false
}

func (o *vecSelectOp) compileConstProbe(d datum.D) (probeSrc, bool) {
	if d.IsNull() {
		// A NULL key component never matches; class is irrelevant but must
		// pair with the build side, so take it from the declared type.
		c := vecClass(d.T)
		if c == 0 {
			// Untyped NULL: probes always come up empty whatever the class.
			c = -1
		}
		return probeSrc{kind: probeConst, class: c, d: d, null: true, resolved: true}, true
	}
	c := vecClass(d.T)
	if c == 0 {
		return probeSrc{}, false
	}
	return probeSrc{kind: probeConst, class: c, d: d}, true
}

// compileVal classifies a comparison operand: a plain column (col >= 0), a
// constant (isConst), or a compiled arithmetic tree (num != nil).
type compiledVal struct {
	class   int
	col     int
	isConst bool
	d       datum.D
	num     *numExpr
}

func (o *vecSelectOp) compileVal(e qgm.Expr, colTypes []datum.Type) (compiledVal, bool) {
	switch x := e.(type) {
	case *qgm.ColRef:
		if x.Q != o.q0 || x.Ord >= len(colTypes) {
			return compiledVal{}, false
		}
		c := vecClass(colTypes[x.Ord])
		if c == 0 {
			return compiledVal{}, false
		}
		return compiledVal{class: c, col: x.Ord}, true
	case *qgm.Const:
		return compiledVal{class: vecClass(x.Val.T), col: -1, isConst: true, d: x.Val}, true
	case *qgm.Param:
		if x.Ord >= len(o.ev.Params) {
			return compiledVal{}, false
		}
		d := o.ev.Params[x.Ord]
		return compiledVal{class: vecClass(d.T), col: -1, isConst: true, d: d}, true
	case *qgm.Arith, *qgm.Neg:
		num, ok := o.compileNum(e, colTypes)
		if !ok {
			return compiledVal{}, false
		}
		return compiledVal{class: 1, col: -1, num: num}, true
	}
	return compiledVal{}, false
}

// compileNum compiles an arithmetic tree to the numeric VM. Div and Mod
// are rejected: their divide-by-zero errors are data-dependent and must
// fire lazily in row order, which the row pipeline provides.
func (o *vecSelectOp) compileNum(e qgm.Expr, colTypes []datum.Type) (*numExpr, bool) {
	switch x := e.(type) {
	case *qgm.ColRef:
		if x.Q != o.q0 || x.Ord >= len(colTypes) {
			return nil, false
		}
		t := colTypes[x.Ord]
		if t != datum.TInt && t != datum.TFloat {
			return nil, false
		}
		return (&numExpr{kind: numCol, col: x.Ord, isInt: t == datum.TInt}).withBufs(), true
	case *qgm.Const:
		n, ok := o.compileNumConst(x.Val)
		if !ok {
			return nil, false
		}
		return n.withBufs(), true
	case *qgm.Param:
		if x.Ord >= len(o.ev.Params) {
			return nil, false
		}
		n, ok := o.compileNumConst(o.ev.Params[x.Ord])
		if !ok {
			return nil, false
		}
		return n.withBufs(), true
	case *qgm.Neg:
		l, ok := o.compileNum(x.X, colTypes)
		if !ok {
			return nil, false
		}
		return (&numExpr{kind: numNeg, l: l, isInt: l.isInt}).withBufs(), true
	case *qgm.Arith:
		if x.Op != datum.Add && x.Op != datum.Sub && x.Op != datum.Mul {
			return nil, false
		}
		l, ok := o.compileNum(x.L, colTypes)
		if !ok {
			return nil, false
		}
		r, ok := o.compileNum(x.R, colTypes)
		if !ok {
			return nil, false
		}
		return (&numExpr{kind: numArith, aop: x.Op, l: l, r: r, isInt: l.isInt && r.isInt}).withBufs(), true
	}
	return nil, false
}

func (o *vecSelectOp) compileNumConst(d datum.D) (*numExpr, bool) {
	switch {
	case d.IsNull():
		// NULL arithmetic propagates NULL whatever the other side; the
		// comparison then yields Unknown, so typing does not matter.
		return &numExpr{kind: numConst, null: true, isInt: d.T != datum.TFloat}, true
	case d.T == datum.TInt:
		return &numExpr{kind: numConst, ci: d.I, cf: float64(d.I), isInt: true}, true
	case d.T == datum.TFloat:
		return &numExpr{kind: numConst, cf: d.F}, true
	}
	return nil, false
}

func (o *vecSelectOp) compilePred(e qgm.Expr, colTypes []datum.Type) (vecPred, bool) {
	switch x := e.(type) {
	case *qgm.Cmp:
		return o.compileCmp(x, colTypes)
	case *qgm.Logic:
		if len(x.Args) == 0 {
			return nil, false
		}
		p := &logicPred{
			and:    x.Op == qgm.And,
			subSel: make(vec.Sel, 0, vecBatch),
			idx:    make([]int32, 0, vecBatch),
			subTVs: make([]datum.TV, vecBatch),
		}
		for _, a := range x.Args {
			ap, ok := o.compilePred(a, colTypes)
			if !ok {
				return nil, false
			}
			p.args = append(p.args, ap)
		}
		return p, true
	case *qgm.Not:
		xp, ok := o.compilePred(x.X, colTypes)
		if !ok {
			return nil, false
		}
		return &notPred{x: xp}, true
	case *qgm.IsNull:
		cr, ok := x.X.(*qgm.ColRef)
		if !ok || cr.Q != o.q0 || cr.Ord >= len(colTypes) {
			return nil, false
		}
		return &isNullPred{col: cr.Ord, negate: x.Negate}, true
	case *qgm.ColRef:
		if x.Q != o.q0 || x.Ord >= len(colTypes) || colTypes[x.Ord] != datum.TBool {
			return nil, false
		}
		return &boolColPred{col: x.Ord}, true
	case *qgm.Const:
		return o.compileConstPred(x.Val)
	case *qgm.Param:
		if x.Ord >= len(o.ev.Params) {
			return nil, false
		}
		return o.compileConstPred(o.ev.Params[x.Ord])
	}
	return nil, false
}

func (o *vecSelectOp) compileConstPred(d datum.D) (vecPred, bool) {
	if d.IsNull() {
		return &constTVPred{tv: datum.Unknown}, true
	}
	if d.T != datum.TBool {
		return nil, false // row pipeline reports the type error
	}
	return &constTVPred{tv: datum.FromBool(d.B)}, true
}

func (o *vecSelectOp) compileCmp(x *qgm.Cmp, colTypes []datum.Type) (vecPred, bool) {
	l, ok := o.compileVal(x.L, colTypes)
	if !ok {
		return nil, false
	}
	r, ok := o.compileVal(x.R, colTypes)
	if !ok {
		return nil, false
	}
	// NULL literal on either side: the comparison is Unknown for every row
	// (the compiled subset's other side cannot error).
	if l.isConst && l.d.IsNull() || r.isConst && r.d.IsNull() {
		return &constTVPred{tv: datum.Unknown}, true
	}
	if l.isConst && r.isConst {
		if l.class != r.class {
			return nil, false
		}
		return &constTVPred{tv: datum.CompareTV(x.Op, l.d, r.d)}, true
	}
	if l.class != r.class || l.class == 0 {
		return nil, false
	}
	// Arithmetic on either side routes through the VM (no flip needed: it
	// evaluates both sides symmetrically).
	if l.num != nil || r.num != nil {
		ln, ok := o.asNum(l, colTypes)
		if !ok {
			return nil, false
		}
		rn, ok := o.asNum(r, colTypes)
		if !ok {
			return nil, false
		}
		return &numCmpPred{l: ln, r: rn, op: x.Op}, true
	}
	op := x.Op
	// Normalize const-vs-col to col-vs-const by flipping the operator.
	if l.isConst {
		l, r = r, l
		op = op.Flip()
	}
	switch l.class {
	case 1:
		if r.isConst {
			p := &cmpNumColConstPred{col: l.col, op: op}
			if r.d.T == datum.TInt {
				if colTypes[l.col] == datum.TInt {
					p.rhsInt, p.ci = true, r.d.I
				} else {
					p.cf = float64(r.d.I)
				}
			} else {
				p.cf = r.d.F
			}
			return p, true
		}
		return &cmpNumColColPred{a: l.col, b: r.col, op: op}, true
	case 2:
		if r.isConst {
			return &cmpStrColConstPred{col: l.col, op: op, rhs: r.d.S}, true
		}
		return &cmpStrColColPred{a: l.col, b: r.col, op: op}, true
	case 3:
		if r.isConst {
			return &cmpBoolColConstPred{col: l.col, op: op, rhs: r.d.B}, true
		}
		return &cmpBoolColColPred{a: l.col, b: r.col, op: op}, true
	}
	return nil, false
}

// asNum lifts a compiled numeric value into the VM (plain columns and
// constants become leaf nodes with scratch buffers).
func (o *vecSelectOp) asNum(v compiledVal, colTypes []datum.Type) (*numExpr, bool) {
	if v.num != nil {
		return v.num, true
	}
	var n *numExpr
	if v.isConst {
		c, ok := o.compileNumConst(v.d)
		if !ok {
			return nil, false
		}
		n = c
	} else {
		n = &numExpr{kind: numCol, col: v.col, isInt: colTypes[v.col] == datum.TInt}
	}
	return n.withBufs(), true
}

func (o *vecSelectOp) open() error {
	ev := o.ev
	if o.n.BoxRoot {
		ev.Counters.BoxEvals++
	}
	o.env = ev.rootEnv()
	o.done = false
	for _, pred := range o.n.ConstPreds {
		tv, err := EvalPred(pred, o.env)
		if err != nil {
			return err
		}
		if tv != datum.True {
			o.done = true
			return nil
		}
	}
	// Same closed-subtree prefetch as the row pipeline (vec only runs with
	// Mem == nil), so parallel counter totals stay identical across paths.
	var pre []*qgm.Box
	for _, vs := range o.stages {
		pre = append(pre, vs.st.Quant.Ranges)
	}
	if err := ev.prefetchBoxes(pre); err != nil {
		return err
	}
	rel, ok := ev.view.Relation(o.scanNode.Box.Table.Name)
	if !ok {
		return fmt.Errorf("exec: no storage for table %q", o.scanNode.Box.Table.Name)
	}
	o.rel = rel
	// Vec hands back the raw columnar arrays (all versions, zero-copy) plus a
	// visibility selection; kernels stay oblivious to MVCC and the pred loop
	// simply starts from o.vis slices instead of Iota ranges.
	o.tbl, o.rows, o.vis, o.tab = rel.Vec()
	// The string snapshot is taken after the table snapshot, so it resolves
	// every id the columns can hold.
	o.strs = o.tab.Strs()
	ev.Counters.BoxEvals++ // driving scan box, same as scanOp.open
	scanStats := &o.r.stats[o.scanNode.ID]
	scanStats.Opens++
	scanStats.Vectorized = true
	o.r.stats[o.n.ID].Vectorized = true
	o.chunkStart = 0
	o.visPos = 0
	o.sel = nil
	o.selPos = 0
	o.depth = 0
	return nil
}

// advanceDrive moves the driving scan to its next filter-surviving row,
// refilling the selection from the next vecBatch chunk when exhausted.
// Counter accounting per chunk matches scanOp per batch: BaseRows and the
// scan box's output budget for every row read, stats batches/rows on the
// scan node.
func (o *vecSelectOp) advanceDrive() (bool, error) {
	ev := o.ev
	for {
		if o.selPos < len(o.sel) {
			o.cur = int(o.sel[o.selPos])
			o.selPos++
			if o.alwaysBind {
				o.env[o.q0] = o.rows[o.cur]
			}
			return true, nil
		}
		// Refill: chunk either the full table (everything visible) or the
		// snapshot's visibility selection. Counters charge visible rows only,
		// matching the row pipeline, which never sees invisible versions.
		var sel vec.Sel
		var n int
		if o.vis != nil {
			if o.visPos >= len(o.vis) {
				if o.alwaysBind {
					delete(o.env, o.q0)
				}
				return false, nil
			}
			lo := o.visPos
			hi := lo + vecBatch
			if hi > len(o.vis) {
				hi = len(o.vis)
			}
			o.visPos = hi
			n = hi - lo
			sel = o.vis[lo:hi]
		} else {
			if o.chunkStart >= o.tbl.N {
				if o.alwaysBind {
					delete(o.env, o.q0)
				}
				return false, nil
			}
			lo := o.chunkStart
			hi := lo + vecBatch
			if hi > o.tbl.N {
				hi = o.tbl.N
			}
			o.chunkStart = hi
			n = hi - lo
			sel = vec.Iota(o.selA[:0], int32(lo), int32(hi))
		}
		ev.Counters.BaseRows += int64(n)
		if err := ev.addOutput(n); err != nil {
			return false, err
		}
		st := &o.r.stats[o.scanNode.ID]
		st.Batches++
		st.Rows += int64(n)
		if err := ev.tickN(n); err != nil {
			return false, err
		}
		for _, p := range o.preds {
			if len(sel) == 0 {
				break
			}
			tvs := o.tvs[:len(sel)]
			p.eval(o, sel, tvs)
			sel = vec.FilterTrue(sel, tvs, o.selB[:0])
			o.selA, o.selB = o.selB, o.selA
		}
		o.sel = sel
		o.selPos = 0
	}
}

// buildStage materializes and keys a hash stage's build side. The child
// materializes through planRun.materialize for exact counter/memo parity
// with the row pipeline; string key values are interned through the shared
// engine table, so any probe-side Lookup miss proves no build key matches.
func (o *vecSelectOp) buildStage(vs *vecStage) error {
	rows, err := o.r.materialize(vs.st.Child)
	if err != nil {
		return err
	}
	o.ev.Counters.HashBuilds++
	vs.rows = rows
	single := len(vs.keyOrds) == 1
	var words []uint64 // one key column
	var keys []vec.Key // several
	if single {
		words = make([]uint64, len(rows))
	} else {
		keys = make([]vec.Key, len(rows))
	}
	null := make([]bool, len(rows)) // equality never matches NULL
	for j, row := range rows {
		for p, ord := range vs.keyOrds {
			d := row[ord]
			if d.IsNull() {
				null[j] = true
				break
			}
			if single {
				words[j] = o.buildWord(d)
			} else {
				keys[j].V[p] = o.buildWord(d)
			}
		}
	}
	if single {
		vs.ht1 = buckets(words, null)
	} else {
		vs.htN = buckets(keys, null)
	}
	vs.built = true
	return nil
}

// buckets groups the positions of the rows not marked null by key, in row
// order within each key. It counts each key's rows first and carves every
// bucket out of one slab, so a build costs one allocation for all buckets
// instead of a doubling slice per key.
func buckets[K comparable](keys []K, null []bool) map[K][]int32 {
	counts := map[K]int32{}
	n := 0
	for j, k := range keys {
		if !null[j] {
			counts[k]++
			n++
		}
	}
	ht := make(map[K][]int32, len(counts))
	slab := make([]int32, n)
	off := 0
	for k, c := range counts {
		ht[k] = slab[off : off : off+int(c)]
		off += int(c)
	}
	for j, k := range keys {
		if !null[j] {
			ht[k] = append(ht[k], int32(j))
		}
	}
	return ht
}

// buildWord normalizes one non-NULL build-side key datum.
func (o *vecSelectOp) buildWord(d datum.D) uint64 {
	switch d.T {
	case datum.TString:
		return uint64(o.tab.Intern(d.S))
	case datum.TBool:
		return vec.NormBool(d.B)
	default:
		return vec.NormNum(d.AsFloat())
	}
}

// probeWord produces one key word of a probe. null reports a NULL
// component (no probe at all); missing reports a string with no interned
// id (probes, never matches).
func (o *vecSelectOp) probeWord(ps *probeSrc) (word uint64, null, missing bool) {
	switch ps.kind {
	case probeDrive:
		c := &o.tbl.Cols[ps.ord]
		i := o.cur
		if c.Nulls[i] {
			return 0, true, false
		}
		switch c.T {
		case datum.TInt:
			return vec.NormNum(float64(c.I64[i])), false, false
		case datum.TFloat:
			return vec.NormNum(c.F64[i]), false, false
		case datum.TBool:
			return vec.NormBool(c.Bs[i]), false, false
		default:
			return uint64(c.IDs[i]), false, false
		}
	case probeStage:
		d := o.stages[ps.stage].cur[ps.ord]
		if d.IsNull() {
			return 0, true, false
		}
		if d.T == datum.TString {
			id, ok := o.tab.Lookup(d.S)
			return uint64(id), false, !ok
		}
		return o.buildWord(d), false, false
	default:
		if !ps.resolved {
			// Constants resolve after the stage build, so every interned
			// build key is visible to the Lookup.
			if ps.d.T == datum.TString {
				id, ok := o.tab.Lookup(ps.d.S)
				ps.word, ps.missing = uint64(id), !ok
			} else {
				ps.word = o.buildWord(ps.d)
			}
			ps.resolved = true
		}
		return ps.word, ps.null, ps.missing
	}
}

// resetHash prepares hash stage si's bucket for the current outer binding,
// with the row pipeline's exact accounting: a NULL key component skips the
// probe entirely; a missing interned string still probes (and misses).
func (o *vecSelectOp) resetHash(si int) error {
	ev := o.ev
	vs := o.stages[si]
	vs.bi = 0
	if !vs.built {
		if err := o.buildStage(vs); err != nil {
			return err
		}
	}
	var key vec.Key
	missing := false
	for p := range vs.probes {
		w, null, miss := o.probeWord(&vs.probes[p])
		if null {
			vs.bucket = nil
			return nil
		}
		if miss {
			missing = true
		}
		key.V[p] = w
	}
	ev.Counters.HashProbes++
	if missing {
		vs.bucket = nil
		return nil
	}
	if vs.ht1 != nil {
		vs.bucket = vs.ht1[key.V[0]]
	} else {
		vs.bucket = vs.htN[key]
	}
	return nil
}

// advanceHash moves hash stage si to its next qualifying build row.
func (o *vecSelectOp) advanceHash(si int) (bool, error) {
	ev := o.ev
	vs := o.stages[si]
	for vs.bi < len(vs.bucket) {
		row := vs.rows[vs.bucket[vs.bi]]
		vs.bi++
		if err := ev.tick(); err != nil {
			return false, err
		}
		vs.cur = row
		if o.alwaysBind {
			o.env[vs.quant] = row
		}
		pass := true
		for _, pred := range vs.filters {
			tv, err := EvalPred(pred, o.env)
			if err != nil {
				return false, err
			}
			if tv != datum.True {
				pass = false
				break
			}
		}
		if pass {
			return true, nil
		}
	}
	if o.alwaysBind {
		delete(o.env, vs.quant)
	}
	return false, nil
}

// emit projects the current full binding into a fresh row.
func (o *vecSelectOp) emit() (datum.Row, error) {
	if o.projSrcs != nil {
		row := make(datum.Row, len(o.projSrcs))
		for j, ps := range o.projSrcs {
			if ps.stage < 0 {
				row[j] = o.rows[o.cur][ps.ord]
			} else {
				row[j] = o.stages[ps.stage].cur[ps.ord]
			}
		}
		return row, nil
	}
	// Env-based projection: alwaysBind keeps all bindings live.
	return o.ev.projectRow(o.n.Box, o.env)
}

func (o *vecSelectOp) next() ([]datum.Row, error) {
	ev := o.ev
	if o.done {
		return nil, nil
	}
	o.out = o.out[:0]
	i := o.depth
	last := len(o.stages)
	for {
		if i < 0 {
			o.done = true
			break
		}
		var ok bool
		var err error
		if i == 0 {
			ok, err = o.advanceDrive()
		} else {
			ok, err = o.advanceHash(i - 1)
		}
		if err != nil {
			return nil, err
		}
		if !ok {
			i--
			continue
		}
		if i < last {
			i++
			if err := o.resetHash(i - 1); err != nil {
				return nil, err
			}
			continue
		}
		row, err := o.emit()
		if err != nil {
			return nil, err
		}
		o.out = append(o.out, row)
		if len(o.out) >= streamBatch {
			break
		}
	}
	o.depth = i
	if o.n.BoxRoot && len(o.out) > 0 {
		if err := ev.addOutput(len(o.out)); err != nil {
			return nil, err
		}
	}
	return o.out, nil
}

func (o *vecSelectOp) close() error {
	if sc := o.scratch; sc != nil {
		// The run swaps selA and selB; either way round both are scratch.
		sc.selA, sc.selB = o.selA[:0], o.selB[:0]
		vecScratchPool.Put(sc)
		o.scratch, o.selA, o.selB, o.tvs = nil, nil, nil, nil
	}
	o.rows = nil
	o.sel = nil
	o.out = nil
	o.env = nil
	for _, vs := range o.stages {
		vs.rows, vs.ht1, vs.htN, vs.bucket, vs.cur = nil, nil, nil, nil, nil
	}
	return nil
}

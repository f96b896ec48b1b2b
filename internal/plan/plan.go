// Package plan is the physical-plan layer between the QGM rewrite graph and
// the executor. Lowering turns each optimized box — together with the join
// order the plan optimizer recorded in Box.JoinOrder — into a typed operator
// tree: scans, join-pipeline stages with explicit access paths, semi/anti
// subquery checks, group-by, set operations, distinct, sort, limit, and the
// recursive fixpoint, and spools over shared common subexpressions. The
// streaming executor (internal/exec) interprets the tree with an
// Open/Next/Close iterator protocol over small row batches; shapes the
// lowering cannot stream fall back to a box-eval bridge operator that
// materializes through the classic evaluator.
//
// The split mirrors the architecture transformation-based optimizers assume
// (a logical rewrite graph above an explicit physical operator tree) and is
// what makes LIMIT and EXISTS/NOT EXISTS true early-exit: a consumer that
// stops pulling stops the whole spine.
package plan

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"starmagic/internal/qgm"
)

// OpKind enumerates physical operators.
type OpKind uint8

// Physical operator kinds.
const (
	// OpScan streams a base table in batches.
	OpScan OpKind = iota
	// OpSelect is the join pipeline of one select box: a streamed driving
	// stage followed by hash/index/nested-loop stages, subquery checks, and
	// projection.
	OpSelect
	// OpGroupBy is a pipeline breaker: it drains its input into grouped
	// aggregate state and streams the groups out.
	OpGroupBy
	// OpUnion streams its inputs in order.
	OpUnion
	// OpIntersect materializes the right input's counts and streams the left.
	OpIntersect
	// OpExcept materializes the right input's counts and streams the left.
	OpExcept
	// OpDistinct filters duplicates with streaming seen-set state.
	OpDistinct
	// OpSort is a pipeline breaker implementing top-level ORDER BY.
	OpSort
	// OpLimit stops pulling from its child once N rows have been delivered;
	// the stop propagates down the streaming spine.
	OpLimit
	// OpTrim drops trailing hidden ORDER BY support columns.
	OpTrim
	// OpFixpoint evaluates a recursive view to its fixpoint (a pipeline
	// breaker) and streams the set out. A linear component has two
	// children, the seed and the delta tree, and is evaluated semi-naively:
	// the seed once, then the delta until a round adds no row. Any other
	// component has no children and bridges to the classic evaluator's
	// naive iteration.
	OpFixpoint
	// OpBoxEval bridges to the classic evaluator: the box is materialized
	// (and memoized when closed) rather than streamed. Used for correlated
	// subtrees and extension box kinds.
	OpBoxEval
	// OpDelta is a leaf of a fixpoint's delta tree standing for a reference
	// to the fixpoint root: it streams the rows the previous round added.
	OpDelta
	// OpSpool reads a closed box with more than one consumer (EMST's
	// supplementary-magic boxes, above all). Its one child is the box's
	// body; the first open in an execution drains it into the memo, and
	// every open replays the memoized rows. The node is shared: each
	// consumer of the box references the same OpSpool node, so the plan is
	// a DAG and the body is lowered once.
	OpSpool
)

func (k OpKind) String() string {
	switch k {
	case OpScan:
		return "scan"
	case OpSelect:
		return "select"
	case OpGroupBy:
		return "group-by"
	case OpUnion:
		return "union"
	case OpIntersect:
		return "intersect"
	case OpExcept:
		return "except"
	case OpDistinct:
		return "distinct"
	case OpSort:
		return "sort"
	case OpLimit:
		return "limit"
	case OpTrim:
		return "trim"
	case OpFixpoint:
		return "fixpoint"
	case OpBoxEval:
		return "materialize"
	case OpDelta:
		return "delta"
	case OpSpool:
		return "spool"
	}
	return "?"
}

// AccessKind is the access path of one join-pipeline stage.
type AccessKind uint8

// Stage access paths.
const (
	// AccessStream pulls the child operator batch by batch (driving stage).
	AccessStream AccessKind = iota
	// AccessIndex probes a base-table hash index per outer binding.
	AccessIndex
	// AccessHash builds a transient hash table once and probes it per outer
	// binding (the build is the stage's pipeline-breaker state).
	AccessHash
	// AccessScan rescans the materialized child rows per outer binding
	// (nested loop).
	AccessScan
	// AccessCorr re-evaluates a correlated child box per outer binding
	// through the classic evaluator.
	AccessCorr
)

func (a AccessKind) String() string {
	switch a {
	case AccessStream:
		return "stream"
	case AccessIndex:
		return "index"
	case AccessHash:
		return "hash"
	case AccessScan:
		return "nested-loop"
	case AccessCorr:
		return "correlated"
	}
	return "?"
}

// Stage is one join-pipeline stage of an OpSelect node: it binds Quant to
// each qualifying row of its child under the bindings of the previous
// stages.
type Stage struct {
	Quant  *qgm.Quantifier
	Access AccessKind
	// IndexCols are the base-table columns probed when Access is AccessIndex.
	IndexCols []int
	// KeyMine/KeyOther are the equality key pairs for hash/index access:
	// KeyMine[i] references only Quant, KeyOther[i] only prior stages.
	KeyMine, KeyOther []qgm.Expr
	// Residual predicates are evaluated with Quant bound (filters).
	Residual []qgm.Expr
	// Child is the operator producing the stage's input rows.
	Child *Node
}

// SubqMode selects how an Exists/ForAll quantifier check executes.
type SubqMode uint8

// Subquery check modes.
const (
	// SubqBridge evaluates the subquery through the classic evaluator
	// (memoized per correlation binding) and applies the match predicates
	// row by row, short-circuiting at the first decisive row.
	SubqBridge SubqMode = iota
	// SubqFirstMatch streams the subquery operator tree and stops pulling at
	// the first decisive row — the semi/anti-join early exit. Only
	// uncorrelated checks (constant across outer bindings) lower to this.
	SubqFirstMatch
)

// Subquery is one Exists (semi-join) or ForAll (anti-join) check of an
// OpSelect node.
type Subquery struct {
	Quant *qgm.Quantifier
	Match []qgm.Expr
	Mode  SubqMode
	// Child is the subquery operator tree (streamed for SubqFirstMatch;
	// display-only for SubqBridge).
	Child *Node
}

// Node is one physical operator. The tree is immutable after lowering; all
// per-execution state (iterators, hash tables, counters) lives in the
// executor, keyed by Node.ID. An OpSpool node is the one node with more than
// one parent: its OpStats sum over its readers, and it carries no estimate
// of its own (its body's root does).
type Node struct {
	ID   int
	Kind OpKind
	// Box is the QGM box this operator implements (nil for the top-level
	// sort/limit/trim wrappers).
	Box *qgm.Box
	// Label and Detail are the EXPLAIN rendering: operator identity and the
	// access-path summary.
	Label  string
	Detail string
	// EstRows is the optimizer's cardinality estimate for this operator's
	// output.
	EstRows float64
	// EstMem is a coarse estimate, in bytes, of the operator's resident
	// output (EstRows × estimated row width). The executor compares it
	// against the query's memory budget to pre-pick spill-capable variants
	// — e.g. a sort whose input estimate already exceeds the budget flushes
	// bounded runs eagerly instead of waiting for the first denied
	// reservation.
	EstMem float64
	// Children are the operator inputs in execution order. For OpSelect they
	// are the stage children followed by streamed subquery children.
	Children []*Node

	// OpSelect payload.
	ConstPreds []qgm.Expr // stage-0 predicates (constant under no bindings)
	Stages     []Stage
	Scalars    []*qgm.Quantifier
	Subqs      []Subquery
	PostPreds  []qgm.Expr

	// OpLimit payload.
	N int64
	// OpSort payload.
	OrderBy []qgm.OrderSpec
	// OpTrim payload.
	Hidden int

	// Fixpoint links the operators of a fixpoint's seed and delta trees
	// that implement boxes of the recursive component, and its OpDelta
	// leaves, to that OpFixpoint node. Such operators are re-opened every
	// round: an OpDelta leaf streams the fixpoint's previous-round rows, a
	// select keeps its build state over inputs outside the component across
	// rounds, and their counters sum over rounds, so they carry no estimate
	// and feedback learns nothing from them.
	Fixpoint *Node

	// BoxRoot marks the node that completes its box's semantics (for a
	// DISTINCT select box that is the distinct wrapper, not the join
	// pipeline). The executor counts BoxEvals/OutputRows and enforces the
	// row budget at box roots, once per box, matching the classic
	// evaluator's accounting.
	BoxRoot bool

	// Vec marks an operator the lowering judged vectorizable: a select
	// pipeline whose driving stage streams a base-table scan, whose later
	// stages are all hash joins on at most vec.MaxKeyCols column/constant
	// keys, and whose driving-stage filters compile to column kernels. The
	// executor makes the final call at build time (it re-verifies against
	// runtime types and the memory mode) and records the outcome in
	// OpStats.Vectorized; a planned-but-not-executed vectorization falls
	// back to the row pipeline with identical semantics.
	Vec bool
}

// Plan is a lowered query: the operator tree plus the flat node list the
// executor uses to allocate per-run counters.
type Plan struct {
	Root  *Node
	Nodes []*Node // indexed by Node.ID
	Graph *qgm.Graph
}

// OpStats are one operator's per-execution counters. The executor allocates
// one slice per run (plans are shared across concurrent executions), so the
// numbers describe exactly one execution.
type OpStats struct {
	Opens   int64
	Batches int64
	Rows    int64
	// Nanos is inclusive wall-clock (children's time included), as in
	// EXPLAIN ANALYZE conventions.
	Nanos int64
	// Spills counts spill-to-disk events attributed to this operator under
	// a memory budget (hash-partition page-outs, sort-run flushes, row-
	// buffer flushes); SpillBytes is the bytes written by those events.
	Spills     int64
	SpillBytes int64
	// Vectorized reports that the operator actually executed on the
	// columnar fast path this run (set by the executor at open; false when
	// a planned vectorization fell back to the row pipeline).
	Vectorized bool
	// Rounds counts the rounds a semi-naive fixpoint ran, the seed round
	// included.
	Rounds int64
}

// newNode allocates a node registered in the plan.
func (p *Plan) newNode(kind OpKind, box *qgm.Box, label string) *Node {
	n := &Node{ID: len(p.Nodes), Kind: kind, Box: box, Label: label}
	p.Nodes = append(p.Nodes, n)
	return n
}

// Format renders the operator tree. With stats (one entry per node, from an
// execution) each line carries actual rows/batches/time; with nil stats the
// estimates alone are shown.
//
// A spool is rendered in full where it is first reached; later references
// print as one line marked "reused", without counters or children.
func (p *Plan) Format(stats []OpStats) string {
	var sb strings.Builder
	var shown []*Node // spools rendered so far
	var walk func(n *Node, prefix string, last bool, top bool)
	walk = func(n *Node, prefix string, last bool, top bool) {
		line := prefix
		childPrefix := prefix
		if !top {
			if last {
				line += "└─ "
				childPrefix += "   "
			} else {
				line += "├─ "
				childPrefix += "│  "
			}
		}
		line += n.Label
		if n.Kind == OpSpool {
			if slices.Contains(shown, n) {
				sb.WriteString(line + " [reused]\n")
				return
			}
			shown = append(shown, n)
		}
		if n.Detail != "" {
			line += " [" + n.Detail + "]"
		}
		if n.EstRows > 0 && (stats == nil || n.ID >= len(stats)) {
			line += fmt.Sprintf(" (est %.0f)", n.EstRows)
		}
		if stats != nil && n.ID < len(stats) {
			st := stats[n.ID]
			line += fmt.Sprintf("  rows=%d", st.Rows)
			if n.EstRows > 0 {
				line += fmt.Sprintf(" est_rows=%.0f", n.EstRows)
				if q := qError(n.EstRows, st.Rows); q > 0 {
					line += fmt.Sprintf(" q=%.1f", q)
				}
			}
			line += fmt.Sprintf(" batches=%d", st.Batches)
			if st.Batches > 0 {
				line += fmt.Sprintf(" rows_per_batch=%.1f", float64(st.Rows)/float64(st.Batches))
			}
			if n.Vec || st.Vectorized {
				line += fmt.Sprintf(" vectorized=%v", st.Vectorized)
			}
			if st.Nanos > 0 {
				line += fmt.Sprintf(" time=%v", time.Duration(st.Nanos).Round(time.Microsecond))
			}
			if st.Spills > 0 {
				line += fmt.Sprintf(" spills=%d spill_bytes=%d", st.Spills, st.SpillBytes)
			}
			if st.Rounds > 0 {
				line += fmt.Sprintf(" rounds=%d", st.Rounds)
			}
		} else if n.Vec {
			line += " [vectorizable]"
		}
		sb.WriteString(line)
		sb.WriteByte('\n')
		for i, c := range n.Children {
			walk(c, childPrefix, i == len(n.Children)-1, false)
		}
	}
	walk(p.Root, "", true, true)
	if stats != nil {
		if q := p.MaxQError(stats); q > 0 {
			fmt.Fprintf(&sb, "max q-error: %.1fx\n", q)
		}
	}
	return sb.String()
}

// String renders the tree without execution counters.
func (p *Plan) String() string { return p.Format(nil) }

// qError is the symmetric estimation error max(est/actual, actual/est), the
// standard measure of cardinality-estimate quality; both sides are floored
// at one row so an empty operator does not divide by zero. 1.0 is a perfect
// estimate.
func qError(est float64, actual int64) float64 {
	a := float64(actual)
	if a < 1 {
		a = 1
	}
	if est < 1 {
		est = 1
	}
	if est > a {
		return est / a
	}
	return a / est
}

// MaxQError returns the worst per-operator q-error of one execution: the
// plan-level signal execution feedback compares against its re-optimization
// threshold, and the number EXPLAIN prints after the operator tree. Operators
// that never opened (short-circuited subtrees) and operators without an
// estimate are skipped; 0 means no operator qualified.
func (p *Plan) MaxQError(stats []OpStats) float64 {
	maxQ := 0.0
	for _, n := range p.Nodes {
		if n.ID >= len(stats) || n.EstRows <= 0 || stats[n.ID].Opens == 0 {
			continue
		}
		if q := qError(n.EstRows, stats[n.ID].Rows); q > maxQ {
			maxQ = q
		}
	}
	return maxQ
}

// HasLimit reports whether the plan contains a LIMIT operator. Execution
// feedback skips such plans: a truncated run's actual row counts describe the
// early exit, not the operators' true cardinalities, and learning from them
// would poison the estimates.
func (p *Plan) HasLimit() bool {
	for _, n := range p.Nodes {
		if n.Kind == OpLimit {
			return true
		}
	}
	return false
}

// OpReport is one operator's flattened explain entry (depth-first order),
// the structured counterpart of Format for tools and metrics.
type OpReport struct {
	ID      int
	Depth   int
	Kind    string
	Label   string
	Detail  string
	EstRows float64
	Rows    int64
	Batches int64
	Nanos   int64
	// Spills/SpillBytes mirror OpStats: spill-to-disk events attributed to
	// this operator under a memory budget.
	Spills     int64
	SpillBytes int64
	// Vectorized reports the columnar fast path actually ran for this
	// operator; RowsPerBatch is the operator's mean output batch size (0
	// when it produced no batches).
	Vectorized   bool
	RowsPerBatch float64
	// Rounds mirrors OpStats.Rounds (semi-naive fixpoints only).
	Rounds int64
	// Reused marks a later reference to a spool reported earlier in the
	// list: it has no counters and no children of its own.
	Reused bool
}

// Report flattens the tree (with optional per-run stats) into OpReports. A
// spool is reported with its counters and body where it is first reached,
// and as a Reused entry at every later reference.
func (p *Plan) Report(stats []OpStats) []OpReport {
	var out []OpReport
	var shown []*Node // spools reported so far
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		r := OpReport{
			ID: n.ID, Depth: depth, Kind: n.Kind.String(),
			Label: n.Label, Detail: n.Detail, EstRows: n.EstRows,
		}
		if n.Kind == OpSpool {
			if slices.Contains(shown, n) {
				r.Reused = true
				out = append(out, r)
				return
			}
			shown = append(shown, n)
		}
		if stats != nil && n.ID < len(stats) {
			r.Rows = stats[n.ID].Rows
			r.Batches = stats[n.ID].Batches
			r.Nanos = stats[n.ID].Nanos
			r.Spills = stats[n.ID].Spills
			r.SpillBytes = stats[n.ID].SpillBytes
			r.Vectorized = stats[n.ID].Vectorized
			r.Rounds = stats[n.ID].Rounds
			if r.Batches > 0 {
				r.RowsPerBatch = float64(r.Rows) / float64(r.Batches)
			}
		}
		out = append(out, r)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(p.Root, 0)
	return out
}

// Package qgm implements the Query Graph Model of Pirahesh, Hellerstein and
// Hasan [PHH92], as described in §2 of the paper. A query is a graph of
// boxes; each box is a unit of evaluation (select, group-by, union,
// intersect, except, or base table) containing quantifiers that range over
// other boxes. Predicates and output columns are expressions over quantifier
// columns; correlation is an expression in one box referencing a quantifier
// of an ancestor box.
//
// The magic-sets transformation (internal/core) annotates boxes with
// adornments and magic roles; the rewrite rules (internal/rewrite), plan
// optimizer (internal/opt) and executor (internal/exec) all operate on this
// representation.
package qgm

import (
	"fmt"

	"starmagic/internal/catalog"
)

// BoxKind enumerates box operation types. New kinds may be registered by
// extensions; see the AMQ/NMQ registry in internal/core.
type BoxKind uint8

// Built-in box kinds.
const (
	KindBaseTable BoxKind = iota
	KindSelect
	KindGroupBy
	KindUnion
	KindIntersect
	KindExcept
	// KindExtensionStart is the first kind value available to extensions.
	KindExtensionStart BoxKind = 64
)

func (k BoxKind) String() string {
	switch k {
	case KindBaseTable:
		return "base"
	case KindSelect:
		return "select"
	case KindGroupBy:
		return "groupby"
	case KindUnion:
		return "union"
	case KindIntersect:
		return "intersect"
	case KindExcept:
		return "except"
	}
	return fmt.Sprintf("ext(%d)", uint8(k))
}

// MagicRole classifies the special box types introduced by the EMST rule
// (§4.1). Regular boxes have RoleNone.
type MagicRole uint8

// Magic roles.
const (
	RoleNone MagicRole = iota
	// RoleMagic marks a magic-box: it feeds the magic table of an adorned
	// box and is never itself processed by the EMST rule.
	RoleMagic
	// RoleCondMagic marks a condition-magic-box, created when the adornment
	// contains a 'c'; unlike a magic-box it IS processed by EMST and may be
	// grounded later.
	RoleCondMagic
	// RoleSuppMagic marks a supplementary-magic-box, a common subexpression
	// holding the prefix of a join order.
	RoleSuppMagic
)

func (r MagicRole) String() string {
	switch r {
	case RoleNone:
		return ""
	case RoleMagic:
		return "magic"
	case RoleCondMagic:
		return "cond-magic"
	case RoleSuppMagic:
		return "supp-magic"
	}
	return "?"
}

// DistinctMode is the duplicate-handling property of a box output.
type DistinctMode uint8

// Distinct modes. The distinction between Enforce and Permit is what lets
// the distinct pull-up rule drop the DISTINCT from magic tables when
// duplicates provably cannot occur (paper, Example 4.1 phase 3).
const (
	// DistinctPreserve: duplicates in equal measure must be preserved
	// (SQL bag semantics; the default).
	DistinctPreserve DistinctMode = iota
	// DistinctEnforce: the box must eliminate duplicates.
	DistinctEnforce
	// DistinctPermit: duplicates may be eliminated or kept freely — the
	// consumer is insensitive (e.g. a magic table).
	DistinctPermit
)

func (m DistinctMode) String() string {
	switch m {
	case DistinctPreserve:
		return "preserve"
	case DistinctEnforce:
		return "enforce"
	case DistinctPermit:
		return "permit"
	}
	return "?"
}

// QType is a quantifier type: F (for-each, i.e. join), E (existential — the
// box row qualifies if some subquery row satisfies the quantifier's match
// predicates), A (universal — the row qualifies if every subquery row
// satisfies them), and S (scalar — the subquery must yield at most one row,
// whose columns are read like a table's).
type QType uint8

// Quantifier types.
const (
	ForEach QType = iota
	Exists
	ForAll
	Scalar
)

func (t QType) String() string {
	switch t {
	case ForEach:
		return "F"
	case Exists:
		return "E"
	case ForAll:
		return "A"
	case Scalar:
		return "S"
	}
	return "?"
}

// Quantifier is a table reference inside a box (§2): a vertex of the box's
// mini-graph, ranging over another box.
type Quantifier struct {
	ID     int
	Name   string // display name (SQL alias)
	Type   QType
	Ranges *Box
	Parent *Box
}

// Col returns a column-reference expression over output ordinal ord of the
// quantifier's ranged box.
func (q *Quantifier) Col(ord int) *ColRef { return &ColRef{Q: q, Ord: ord} }

// OutputCol is one output column of a box. Expr defines the column for
// select boxes; base-table, group-by, and set-operation boxes compute
// outputs positionally (Expr nil) and carry only the Type. For group-by
// boxes the convention is: outputs 0..len(GroupBy)-1 are the grouping
// expressions, followed by one output per AggSpec.
type OutputCol struct {
	Name string
	Expr Expr
	Type typeAlias
}

// AggSpec is one aggregate computed by a group-by box.
type AggSpec struct {
	Kind     AggKind
	Arg      Expr // nil for COUNT(*)
	Distinct bool
}

// AggKind re-exports the datum aggregate kinds to keep qgm's surface
// self-contained.
type AggKind = aggKindAlias

// Box is one QGM box: a unit of evaluation.
type Box struct {
	ID   int
	Kind BoxKind
	Name string

	// Quantifiers are the table references of this box, in FROM-clause
	// order. The plan optimizer's join order for the box is stored
	// separately (JoinOrder).
	Quantifiers []*Quantifier

	// Preds is the conjunctive predicate set (WHERE clause for select
	// boxes). Group-by boxes carry no predicates (the paper's group-by
	// triplet keeps selections out of the grouping box).
	Preds []Expr

	// Output is the projection. For base tables: the table columns. For
	// set-operation boxes: positional columns typed from the first input.
	Output []OutputCol

	Distinct DistinctMode

	// GroupBy and Aggs are set for group-by boxes; Output of a group-by box
	// must be exactly the grouping columns followed by the aggregates.
	GroupBy []Expr
	Aggs    []AggSpec

	// Table is set for base-table boxes.
	Table *catalog.Table

	// JoinOrder, when non-nil, is the quantifier order chosen by the plan
	// optimizer (indexes into Quantifiers). The EMST rule consumes it
	// (§3.2); the executor uses it for pipelined joins.
	JoinOrder []int

	// Magic-sets metadata (§4.1):
	Role      MagicRole
	Adornment string
	// MagicBox links an NMQ box to its magic box so descendants can pull
	// the restriction down (§4.4 step 4c). For AMQ boxes the magic
	// quantifier is inserted directly instead.
	MagicBox *Box
	// MagicCols maps each bound ('b' or 'c') position of the adornment to
	// the output ordinal of MagicBox (or of the magic quantifier's box)
	// that carries it.
	MagicCols []MagicCol

	// Recursive marks the fixpoint root of a recursive view: the box's
	// subtree references the box itself, and the executor iterates it to a
	// fixpoint with set semantics (semi-naively for linear components,
	// naively otherwise). Rewrite rules that would detach or duplicate the
	// fixpoint root skip recursive boxes.
	Recursive bool

	// Origin points to the box this one was copied from when EMST created
	// an adorned copy; the copy cache uses it to share copies (and union
	// their magic tables) across consumers with the same adornment.
	Origin *Box
}

// MagicCol says: output column BoxOrd of the adorned box is restricted by
// output column MagicOrd of the magic table, with the given comparison
// (always EQ for 'b' adornments; 'c' adornments carry conditions).
type MagicCol struct {
	BoxOrd   int
	MagicOrd int
}

// IsMagic reports whether the box is one of the three special EMST box
// types.
func (b *Box) IsMagic() bool { return b.Role != RoleNone }

// QuantifierByName finds a quantifier by display name.
func (b *Box) QuantifierByName(name string) *Quantifier {
	for _, q := range b.Quantifiers {
		if q.Name == name {
			return q
		}
	}
	return nil
}

// OutputIndex returns the ordinal of the named output column, or -1.
func (b *Box) OutputIndex(name string) int {
	for i, c := range b.Output {
		if equalFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// OrderedQuantifiers returns the quantifiers in optimizer join order when
// one is recorded, else declaration order.
func (b *Box) OrderedQuantifiers() []*Quantifier {
	if b.JoinOrder == nil {
		return b.Quantifiers
	}
	out := make([]*Quantifier, 0, len(b.Quantifiers))
	for _, i := range b.JoinOrder {
		out = append(out, b.Quantifiers[i])
	}
	return out
}

// Graph is a whole query: a set of boxes with a designated top box plus the
// top-level ordering spec.
type Graph struct {
	Boxes []*Box
	Top   *Box

	// OrderBy holds top-level ordering over the Top box's output ordinals.
	OrderBy []OrderSpec
	Limit   int64 // -1 = none
	// HiddenCols counts trailing Top outputs that exist only to support
	// ORDER BY on non-projected expressions; the executor trims them after
	// sorting.
	HiddenCols int
	// NumParams is the number of `?` placeholder slots expressions of this
	// graph reference; executions must bind exactly this many values.
	NumParams int

	nextBoxID int
	nextQID   int
}

// OrderSpec orders by an output ordinal of the top box.
type OrderSpec struct {
	Ord  int
	Desc bool
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{Limit: -1} }

// NewBox allocates a box registered in the graph.
func (g *Graph) NewBox(kind BoxKind, name string) *Box {
	b := &Box{ID: g.nextBoxID, Kind: kind, Name: name}
	g.nextBoxID++
	g.Boxes = append(g.Boxes, b)
	return b
}

// AddQuantifier creates a quantifier of type t named name in box parent,
// ranging over box over.
func (g *Graph) AddQuantifier(parent *Box, t QType, name string, over *Box) *Quantifier {
	q := &Quantifier{ID: g.nextQID, Name: name, Type: t, Ranges: over, Parent: parent}
	g.nextQID++
	parent.Quantifiers = append(parent.Quantifiers, q)
	return q
}

// RemoveQuantifier deletes q from its parent box. The caller is responsible
// for having removed all references to q first.
func RemoveQuantifier(q *Quantifier) {
	b := q.Parent
	for i, qq := range b.Quantifiers {
		if qq == q {
			b.Quantifiers = append(b.Quantifiers[:i], b.Quantifiers[i+1:]...)
			return
		}
	}
}

// GC removes boxes unreachable from Top. Rewrite rules and EMST orphan
// boxes (e.g. un-adorned originals after all users switch to adorned
// copies); the paper's phase 3 relies on cleaning these up.
func (g *Graph) GC() {
	live := map[*Box]bool{}
	var mark func(b *Box)
	mark = func(b *Box) {
		if b == nil || live[b] {
			return
		}
		live[b] = true
		for _, q := range b.Quantifiers {
			mark(q.Ranges)
		}
		mark(b.MagicBox)
	}
	mark(g.Top)
	var kept []*Box
	for _, b := range g.Boxes {
		if live[b] {
			kept = append(kept, b)
		}
	}
	g.Boxes = kept
}

// Uses returns, for every box, the list of quantifiers ranging over it.
func (g *Graph) Uses() map[*Box][]*Quantifier {
	uses := make(map[*Box][]*Quantifier)
	for _, b := range g.Boxes {
		for _, q := range b.Quantifiers {
			uses[q.Ranges] = append(uses[q.Ranges], q)
		}
	}
	return uses
}

// UseCount returns the number of quantifiers ranging over box b, plus one
// if b is the top box (the query consumes it) and one for each MagicBox
// link pointing at it.
func (g *Graph) UseCount(b *Box) int {
	n := 0
	for _, bb := range g.Boxes {
		for _, q := range bb.Quantifiers {
			if q.Ranges == b {
				n++
			}
		}
		if bb.MagicBox == b {
			n++
		}
	}
	if g.Top == b {
		n++
	}
	return n
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

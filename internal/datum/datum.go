// Package datum implements the SQL value model used throughout starmagic:
// typed scalar values, NULL, three-valued logic for predicate evaluation,
// SQL comparison semantics, and hashing for join/aggregation operators.
//
// The paper (§1, §6) stresses strict adherence to SQL semantics — duplicates,
// NULLs, and aggregation behave as in SQL, not as in Datalog. This package is
// the single source of truth for those semantics.
package datum

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
)

// Type enumerates the SQL types supported by the engine.
type Type uint8

// Supported SQL types. TNull is the type of an untyped NULL literal; a NULL
// value of a known column type keeps that column's type with Null set.
const (
	TNull Type = iota
	TInt
	TFloat
	TString
	TBool
)

// String returns the SQL spelling of the type.
func (t Type) String() string {
	switch t {
	case TNull:
		return "NULL"
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	case TString:
		return "VARCHAR"
	case TBool:
		return "BOOLEAN"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// TypeFromName parses a SQL type name (as accepted by CREATE TABLE) into a
// Type. Common synonyms are accepted.
func TypeFromName(name string) (Type, error) {
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return TInt, nil
	case "FLOAT", "REAL", "DOUBLE", "DECIMAL", "NUMERIC":
		return TFloat, nil
	case "VARCHAR", "CHAR", "TEXT", "STRING":
		return TString, nil
	case "BOOLEAN", "BOOL":
		return TBool, nil
	}
	return TNull, fmt.Errorf("unknown type name %q", name)
}

// D is a single SQL value. The zero value of D is the untyped NULL.
//
// D is a small value type; pass it by value. Only the field matching T is
// meaningful. Null may be true for any T, representing a typed NULL. The
// one-byte fields sit together ahead of the 8-byte ones so the struct packs
// into 40 bytes rather than 48.
type D struct {
	T    Type
	Null bool
	B    bool
	I    int64
	F    float64
	S    string
}

// Null returns the untyped NULL datum.
func Null() D { return D{T: TNull, Null: true} }

// NullOf returns a NULL datum carrying type t.
func NullOf(t Type) D { return D{T: t, Null: true} }

// Int returns an INT datum.
func Int(v int64) D { return D{T: TInt, I: v} }

// Float returns a FLOAT datum.
func Float(v float64) D { return D{T: TFloat, F: v} }

// String returns a VARCHAR datum.
func String(v string) D { return D{T: TString, S: v} }

// Bool returns a BOOLEAN datum.
func Bool(v bool) D { return D{T: TBool, B: v} }

// IsNull reports whether the datum is NULL (typed or untyped).
func (d D) IsNull() bool { return d.Null || d.T == TNull }

// AsFloat converts a numeric datum to float64. It panics on non-numeric
// types; callers must have type-checked first.
func (d D) AsFloat() float64 {
	switch d.T {
	case TInt:
		return float64(d.I)
	case TFloat:
		return d.F
	}
	panic(fmt.Sprintf("datum: AsFloat on %s", d.T))
}

// Format renders the datum the way the result printer and tests expect:
// SQL-style literals with NULL spelled out.
func (d D) Format() string {
	if d.IsNull() {
		return "NULL"
	}
	switch d.T {
	case TInt:
		return strconv.FormatInt(d.I, 10)
	case TFloat:
		return strconv.FormatFloat(d.F, 'g', -1, 64)
	case TString:
		return d.S
	case TBool:
		if d.B {
			return "TRUE"
		}
		return "FALSE"
	}
	return "?"
}

// GoString implements fmt.GoStringer for readable test failures.
func (d D) GoString() string {
	if d.IsNull() {
		return "NULL:" + d.T.String()
	}
	return fmt.Sprintf("%s:%s", d.Format(), d.T)
}

// numeric reports whether the type participates in arithmetic.
func numeric(t Type) bool { return t == TInt || t == TFloat }

// Comparable reports whether values of types a and b may be compared with
// the SQL comparison operators.
func Comparable(a, b Type) bool {
	if a == TNull || b == TNull {
		return true // NULL literal compares (to UNKNOWN) with anything
	}
	if a == b {
		return true
	}
	return numeric(a) && numeric(b)
}

// Compare totally orders two non-NULL datums of comparable types, returning
// -1, 0, or +1. INT and FLOAT compare numerically. Compare panics if either
// operand is NULL or the types are incomparable; predicate evaluation must
// route NULLs through CompareTV instead. Sorting and grouping, which need a
// total order including NULLs, use SortCompare.
func Compare(a, b D) int {
	if a.IsNull() || b.IsNull() {
		panic("datum: Compare on NULL; use CompareTV or SortCompare")
	}
	switch {
	case a.T == TInt && b.T == TInt:
		return cmpOrdered(a.I, b.I)
	case numeric(a.T) && numeric(b.T):
		return cmpOrdered(a.AsFloat(), b.AsFloat())
	case a.T == TString && b.T == TString:
		return strings.Compare(a.S, b.S)
	case a.T == TBool && b.T == TBool:
		return cmpOrdered(b2i(a.B), b2i(b.B))
	}
	panic(fmt.Sprintf("datum: incomparable types %s and %s", a.T, b.T))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func cmpOrdered[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// SortCompare totally orders datums for ORDER BY and duplicate grouping.
// NULL sorts before every non-NULL value and equals other NULLs (SQL's
// "NULLs are not distinct" grouping rule).
func SortCompare(a, b D) int {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	return Compare(a, b)
}

// TV is a three-valued logic truth value.
type TV uint8

// Truth values of SQL three-valued logic.
const (
	False TV = iota
	True
	Unknown
)

// String returns the spelling used in EXPLAIN output and tests.
func (v TV) String() string {
	switch v {
	case False:
		return "FALSE"
	case True:
		return "TRUE"
	}
	return "UNKNOWN"
}

// FromBool lifts a Go bool into a TV.
func FromBool(b bool) TV {
	if b {
		return True
	}
	return False
}

// And is SQL AND over three-valued logic.
func (v TV) And(o TV) TV {
	if v == False || o == False {
		return False
	}
	if v == True && o == True {
		return True
	}
	return Unknown
}

// Or is SQL OR over three-valued logic.
func (v TV) Or(o TV) TV {
	if v == True || o == True {
		return True
	}
	if v == False && o == False {
		return False
	}
	return Unknown
}

// Not is SQL NOT over three-valued logic.
func (v TV) Not() TV {
	switch v {
	case True:
		return False
	case False:
		return True
	}
	return Unknown
}

// CmpOp is a SQL comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	}
	return "?"
}

// Negate returns the complement operator (op such that a N b == NOT(a op b)
// for non-NULL operands).
func (op CmpOp) Negate() CmpOp {
	switch op {
	case EQ:
		return NE
	case NE:
		return EQ
	case LT:
		return GE
	case LE:
		return GT
	case GT:
		return LE
	case GE:
		return LT
	}
	return op
}

// Flip returns the operator with sides exchanged (a op b == b Flip(op) a).
func (op CmpOp) Flip() CmpOp {
	switch op {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	}
	return op
}

// CompareTV evaluates "a op b" under SQL semantics: any NULL operand yields
// UNKNOWN.
func CompareTV(op CmpOp, a, b D) TV {
	if a.IsNull() || b.IsNull() {
		return Unknown
	}
	c := Compare(a, b)
	switch op {
	case EQ:
		return FromBool(c == 0)
	case NE:
		return FromBool(c != 0)
	case LT:
		return FromBool(c < 0)
	case LE:
		return FromBool(c <= 0)
	case GT:
		return FromBool(c > 0)
	case GE:
		return FromBool(c >= 0)
	}
	return Unknown
}

// DistinctEqual reports whether a and b are equal under SQL's IS NOT
// DISTINCT FROM semantics: NULLs equal each other. This is the equality used
// by GROUP BY, DISTINCT, and set operations.
func DistinctEqual(a, b D) bool { return SortCompare(a, b) == 0 }

// ArithOp is a SQL arithmetic operator.
type ArithOp uint8

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
	Mod
)

// String returns the SQL spelling of the operator.
func (op ArithOp) String() string {
	switch op {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	case Mod:
		return "%"
	}
	return "?"
}

// Arith evaluates "a op b". NULL operands yield NULL. Integer division by
// zero and modulo by zero return an error, as does arithmetic on non-numeric
// operands.
func Arith(op ArithOp, a, b D) (D, error) {
	if a.IsNull() || b.IsNull() {
		t := TFloat
		if a.T == TInt && b.T == TInt {
			t = TInt
		}
		return NullOf(t), nil
	}
	if !numeric(a.T) || !numeric(b.T) {
		return Null(), fmt.Errorf("arithmetic on non-numeric types %s and %s", a.T, b.T)
	}
	if a.T == TInt && b.T == TInt {
		switch op {
		case Add:
			return Int(a.I + b.I), nil
		case Sub:
			return Int(a.I - b.I), nil
		case Mul:
			return Int(a.I * b.I), nil
		case Div:
			if b.I == 0 {
				return Null(), fmt.Errorf("division by zero")
			}
			return Int(a.I / b.I), nil
		case Mod:
			if b.I == 0 {
				return Null(), fmt.Errorf("modulo by zero")
			}
			return Int(a.I % b.I), nil
		}
	}
	x, y := a.AsFloat(), b.AsFloat()
	switch op {
	case Add:
		return Float(x + y), nil
	case Sub:
		return Float(x - y), nil
	case Mul:
		return Float(x * y), nil
	case Div:
		if y == 0 {
			return Null(), fmt.Errorf("division by zero")
		}
		return Float(x / y), nil
	case Mod:
		if y == 0 {
			return Null(), fmt.Errorf("modulo by zero")
		}
		return Float(math.Mod(x, y)), nil
	}
	return Null(), fmt.Errorf("unknown arithmetic operator")
}

// Neg returns -a. NULL yields NULL.
func Neg(a D) (D, error) {
	if a.IsNull() {
		return a, nil
	}
	switch a.T {
	case TInt:
		return Int(-a.I), nil
	case TFloat:
		return Float(-a.F), nil
	}
	return Null(), fmt.Errorf("unary minus on %s", a.T)
}

// Hash returns a hash of the datum consistent with DistinctEqual: datums for
// which DistinctEqual returns true hash identically (in particular all NULLs
// share one hash, and INT 3 hashes like FLOAT 3.0).
func (d D) Hash() uint64 {
	h := fnv.New64a()
	d.HashInto(h)
	return h.Sum64()
}

// hashWriter is the subset of hash.Hash64 that HashInto needs.
type hashWriter interface {
	Write(p []byte) (int, error)
}

// HashInto writes the datum's DistinctEqual-compatible hash bytes into h.
func (d D) HashInto(h hashWriter) {
	if d.IsNull() {
		h.Write([]byte{0xff})
		return
	}
	switch d.T {
	case TInt, TFloat:
		// Hash all numerics through float64 so cross-type equality holds.
		f := d.AsFloat()
		if f == 0 {
			f = 0 // normalize -0.0
		}
		var buf [9]byte
		buf[0] = 1
		bits := math.Float64bits(f)
		for i := 0; i < 8; i++ {
			buf[1+i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	case TString:
		h.Write([]byte{2})
		h.Write([]byte(d.S))
	case TBool:
		if d.B {
			h.Write([]byte{3, 1})
		} else {
			h.Write([]byte{3, 0})
		}
	}
}

// Row is a tuple of datums.
type Row []D

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	c := make(Row, len(r))
	copy(c, r)
	return c
}

// Key encoding: each datum is rendered as a self-delimiting binary record,
// so the concatenation over a row is injective up to DistinctEqual — two rows
// share a key iff they are column-wise DistinctEqual. Tags:
//
//	0x00                     NULL (all NULLs, typed or not, encode alike)
//	0x01 <8 bytes LE>        numeric, as normalized float64 bits (INT 3 == FLOAT 3.0)
//	0x02 <uvarint n> <n b>   string, length-prefixed (no escaping, no terminator)
//	0x03 / 0x04              FALSE / TRUE
//
// The length prefix (rather than a terminator + escaping) is what makes the
// encoding collision-safe: the fixed-width numeric payload may contain any
// byte, so a terminator-based scheme cannot delimit it unambiguously.
const (
	keyTagNull   = 0x00
	keyTagNum    = 0x01
	keyTagString = 0x02
	keyTagFalse  = 0x03
	keyTagTrue   = 0x04
)

// AppendKey appends d's key encoding to buf and returns the extended buffer.
// Hot paths reuse one buffer per evaluator (`buf = d.AppendKey(buf[:0])`) and
// index maps with string(buf), which Go compiles to an allocation-free lookup.
func (d D) AppendKey(buf []byte) []byte {
	if d.IsNull() {
		return append(buf, keyTagNull)
	}
	switch d.T {
	case TInt, TFloat:
		f := d.AsFloat()
		bits := math.Float64bits(f + 0) // normalize -0.0
		return append(buf, keyTagNum,
			byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24),
			byte(bits>>32), byte(bits>>40), byte(bits>>48), byte(bits>>56))
	case TString:
		buf = append(buf, keyTagString)
		buf = appendUvarint(buf, uint64(len(d.S)))
		return append(buf, d.S...)
	case TBool:
		if d.B {
			return append(buf, keyTagTrue)
		}
		return append(buf, keyTagFalse)
	}
	return append(buf, keyTagNull)
}

func appendUvarint(buf []byte, v uint64) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

// AppendKey appends the row's key encoding to buf and returns the extended
// buffer. The encoding is collision-safe under DistinctEqual semantics; see
// the tag table above.
func AppendKey(buf []byte, r Row) []byte {
	for _, d := range r {
		buf = d.AppendKey(buf)
	}
	return buf
}

// AppendKeyOf appends the key encoding of the selected columns of the row.
func AppendKeyOf(buf []byte, r Row, cols []int) []byte {
	for _, c := range cols {
		buf = r[c].AppendKey(buf)
	}
	return buf
}

// Key returns a string key for the row under DistinctEqual semantics,
// suitable for map-based grouping, distinct, and hash joins. Hot paths
// should prefer AppendKey with a reused buffer.
func (r Row) Key() string {
	return string(AppendKey(make([]byte, 0, 16*len(r)), r))
}

// KeyOf returns the grouping key of the selected columns of the row.
func (r Row) KeyOf(cols []int) string {
	return string(AppendKeyOf(make([]byte, 0, 16*len(cols)), r, cols))
}

// CompareRows orders rows lexicographically with SortCompare per column.
func CompareRows(a, b Row) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := SortCompare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return cmpOrdered(int64(len(a)), int64(len(b)))
}

package datum

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// randomDatum generates an arbitrary datum for property tests.
func randomDatum(r *rand.Rand) D {
	switch r.Intn(6) {
	case 0:
		return Null()
	case 1:
		return NullOf(TInt)
	case 2:
		return Int(int64(r.Intn(21) - 10))
	case 3:
		return Float(float64(r.Intn(21)-10) / 2)
	case 4:
		return String(string(rune('a' + r.Intn(5))))
	default:
		return Bool(r.Intn(2) == 0)
	}
}

// Generate implements quick.Generator so D can appear in quick.Check
// signatures directly.
func (D) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randomDatum(r))
}

func TestTypeFromName(t *testing.T) {
	cases := []struct {
		in   string
		want Type
		ok   bool
	}{
		{"INT", TInt, true},
		{"integer", TInt, true},
		{"BIGINT", TInt, true},
		{"FLOAT", TFloat, true},
		{"decimal", TFloat, true},
		{"VARCHAR", TString, true},
		{"text", TString, true},
		{"BOOLEAN", TBool, true},
		{"bogus", TNull, false},
	}
	for _, c := range cases {
		got, err := TypeFromName(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("TypeFromName(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("TypeFromName(%q) succeeded; want error", c.in)
		}
	}
}

func TestCompareBasics(t *testing.T) {
	cases := []struct {
		a, b D
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Int(2), Float(2.0), 0},
		{Float(1.5), Int(2), -1},
		{String("abc"), String("abd"), -1},
		{Bool(false), Bool(true), -1},
		{Bool(true), Bool(true), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%#v, %#v) = %d; want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestComparePanicsOnNull(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Compare(NULL, 1) did not panic")
		}
	}()
	Compare(Null(), Int(1))
}

func TestSortCompareNulls(t *testing.T) {
	if SortCompare(Null(), Int(-999)) != -1 {
		t.Error("NULL should sort before all values")
	}
	if SortCompare(Null(), NullOf(TInt)) != 0 {
		t.Error("NULLs should compare equal under SortCompare")
	}
	if SortCompare(Int(0), Null()) != 1 {
		t.Error("values should sort after NULL")
	}
}

func TestThreeValuedLogicTables(t *testing.T) {
	// Truth tables straight from the SQL standard.
	and := [3][3]TV{
		//         F        T        U
		False: {False, False, False},
		True:  {False, True, Unknown},
		Unknown: {False, Unknown,
			Unknown},
	}
	or := [3][3]TV{
		False:   {False, True, Unknown},
		True:    {True, True, True},
		Unknown: {Unknown, True, Unknown},
	}
	vals := []TV{False, True, Unknown}
	for _, a := range vals {
		for _, b := range vals {
			if got := a.And(b); got != and[a][b] {
				t.Errorf("%v AND %v = %v; want %v", a, b, got, and[a][b])
			}
			if got := a.Or(b); got != or[a][b] {
				t.Errorf("%v OR %v = %v; want %v", a, b, got, or[a][b])
			}
		}
	}
	if False.Not() != True || True.Not() != False || Unknown.Not() != Unknown {
		t.Error("NOT truth table wrong")
	}
}

func TestCompareTVNullGivesUnknown(t *testing.T) {
	ops := []CmpOp{EQ, NE, LT, LE, GT, GE}
	for _, op := range ops {
		if got := CompareTV(op, Null(), Int(1)); got != Unknown {
			t.Errorf("NULL %v 1 = %v; want UNKNOWN", op, got)
		}
		if got := CompareTV(op, Int(1), NullOf(TInt)); got != Unknown {
			t.Errorf("1 %v NULL = %v; want UNKNOWN", op, got)
		}
	}
	if CompareTV(EQ, Int(3), Float(3)) != True {
		t.Error("3 = 3.0 should be TRUE")
	}
	if CompareTV(NE, Int(3), Float(3)) != False {
		t.Error("3 <> 3.0 should be FALSE")
	}
}

func TestCmpOpNegateFlip(t *testing.T) {
	for _, op := range []CmpOp{EQ, NE, LT, LE, GT, GE} {
		if op.Negate().Negate() != op {
			t.Errorf("double negate of %v changed it", op)
		}
		if op.Flip().Flip() != op {
			t.Errorf("double flip of %v changed it", op)
		}
	}
	if LT.Flip() != GT || LE.Flip() != GE || EQ.Flip() != EQ {
		t.Error("flip table wrong")
	}
	if LT.Negate() != GE || EQ.Negate() != NE {
		t.Error("negate table wrong")
	}
}

// Property: Negate is semantically NOT for non-NULL operands.
func TestNegateSemantics(t *testing.T) {
	f := func(a, b D) bool {
		if a.IsNull() || b.IsNull() || !Comparable(a.T, b.T) {
			return true
		}
		for _, op := range []CmpOp{EQ, NE, LT, LE, GT, GE} {
			if CompareTV(op, a, b).Not() != CompareTV(op.Negate(), a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Flip is semantically side-exchange.
func TestFlipSemantics(t *testing.T) {
	f := func(a, b D) bool {
		if !Comparable(a.T, b.T) {
			return true
		}
		for _, op := range []CmpOp{EQ, NE, LT, LE, GT, GE} {
			if CompareTV(op, a, b) != CompareTV(op.Flip(), b, a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: SortCompare is a total order — antisymmetric and transitive.
func TestSortCompareTotalOrder(t *testing.T) {
	comparableAll := func(ds ...D) bool {
		for _, a := range ds {
			for _, b := range ds {
				if !a.IsNull() && !b.IsNull() && !Comparable(a.T, b.T) {
					return false
				}
				// string vs int etc. are not comparable; skip such triples
				if !a.IsNull() && !b.IsNull() && a.T != b.T && !(numeric(a.T) && numeric(b.T)) {
					return false
				}
			}
		}
		return true
	}
	f := func(a, b, c D) bool {
		if !comparableAll(a, b, c) {
			return true
		}
		if SortCompare(a, b) != -SortCompare(b, a) {
			return false
		}
		if SortCompare(a, b) <= 0 && SortCompare(b, c) <= 0 && SortCompare(a, c) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: hashing is consistent with DistinctEqual.
func TestHashConsistentWithDistinctEqual(t *testing.T) {
	f := func(a, b D) bool {
		if !a.IsNull() && !b.IsNull() && a.T != b.T && !(numeric(a.T) && numeric(b.T)) {
			return true
		}
		if DistinctEqual(a, b) && a.Hash() != b.Hash() {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if Int(3).Hash() != Float(3).Hash() {
		t.Error("INT 3 and FLOAT 3.0 must hash alike")
	}
	if Null().Hash() != NullOf(TString).Hash() {
		t.Error("all NULLs must hash alike")
	}
}

// Property: Row.Key is injective w.r.t. DistinctEqual row equality.
func TestRowKeyMatchesEquality(t *testing.T) {
	pairComparable := func(a, b D) bool {
		return a.IsNull() || b.IsNull() || a.T == b.T || (numeric(a.T) && numeric(b.T))
	}
	f := func(a, b D, c, d D) bool {
		if !pairComparable(a, b) || !pairComparable(c, d) {
			return true
		}
		r1, r2 := Row{a, c}, Row{b, d}
		eq := DistinctEqual(a, b) && DistinctEqual(c, d)
		return eq == (r1.Key() == r2.Key())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRowKeyStringEscaping(t *testing.T) {
	// Adjacent strings with embedded NULs and shifted boundaries must not
	// collide.
	r1 := Row{String("a\x00"), String("b")}
	r2 := Row{String("a"), String("\x00b")}
	if r1.Key() == r2.Key() {
		t.Error("row keys collide across string boundaries")
	}
}

// Regression: the seed's terminator-based encoder collided when a string's
// escaped NUL was followed by bytes that mimicked a numeric record. The row
// ["a\x00bcdefghi"] encoded to exactly the same bytes as ["a", f] where f is
// the float64 whose little-endian bit pattern is "bcdefghi". The
// length-prefixed binary encoder cannot collide: every record is
// self-delimiting.
func TestRowKeyCollisionRegression(t *testing.T) {
	var bits uint64
	for i, c := range []byte("bcdefghi") {
		bits |= uint64(c) << (8 * i)
	}
	r1 := Row{String("a\x00bcdefghi")}
	r2 := Row{String("a"), Float(math.Float64frombits(bits))}
	if r1.Key() == r2.Key() {
		t.Fatalf("row keys collide: %q", r1.Key())
	}
	// The same pair must stay distinct through the allocation-free path.
	var buf []byte
	k1 := string(AppendKey(buf[:0], r1))
	k2 := string(AppendKey(buf[:0], r2))
	if k1 == k2 {
		t.Fatalf("AppendKey keys collide: %q", k1)
	}
}

// AppendKey with a reused buffer must agree with Key and with AppendKeyOf.
func TestAppendKeyMatchesKey(t *testing.T) {
	rows := []Row{
		{},
		{Null(), NullOf(TString)},
		{Int(7), Float(7), String(""), Bool(true), Bool(false)},
		{String("a\x00b"), String(strings.Repeat("x", 200))},
		{Int(-1), Float(math.Inf(1)), Float(-0.0)},
	}
	buf := make([]byte, 0, 8)
	for _, r := range rows {
		buf = AppendKey(buf[:0], r)
		if got, want := string(buf), r.Key(); got != want {
			t.Errorf("AppendKey(%v) = %q; Key = %q", r, got, want)
		}
		cols := make([]int, len(r))
		for i := range cols {
			cols[i] = len(r) - 1 - i
		}
		buf = AppendKeyOf(buf[:0], r, cols)
		if got, want := string(buf), r.KeyOf(cols); got != want {
			t.Errorf("AppendKeyOf(%v) = %q; KeyOf = %q", r, got, want)
		}
	}
	// -0.0 and 0.0 must key identically (DistinctEqual holds).
	if Row.Key(Row{Float(math.Copysign(0, -1))}) != Row.Key(Row{Float(0)}) {
		t.Error("-0.0 and 0.0 must share a key")
	}
}

func TestArith(t *testing.T) {
	cases := []struct {
		op   ArithOp
		a, b D
		want D
	}{
		{Add, Int(2), Int(3), Int(5)},
		{Sub, Int(2), Int(3), Int(-1)},
		{Mul, Int(4), Int(3), Int(12)},
		{Div, Int(7), Int(2), Int(3)},
		{Mod, Int(7), Int(2), Int(1)},
		{Add, Float(1.5), Int(1), Float(2.5)},
		{Div, Float(7), Float(2), Float(3.5)},
	}
	for _, c := range cases {
		got, err := Arith(c.op, c.a, c.b)
		if err != nil {
			t.Fatalf("%v %v %v: %v", c.a, c.op, c.b, err)
		}
		if !DistinctEqual(got, c.want) || got.T != c.want.T {
			t.Errorf("%#v %v %#v = %#v; want %#v", c.a, c.op, c.b, got, c.want)
		}
	}
}

func TestArithNullPropagation(t *testing.T) {
	got, err := Arith(Add, Null(), Int(1))
	if err != nil || !got.IsNull() {
		t.Errorf("NULL + 1 = %#v, %v; want NULL", got, err)
	}
}

func TestArithErrors(t *testing.T) {
	if _, err := Arith(Div, Int(1), Int(0)); err == nil {
		t.Error("integer division by zero should error")
	}
	if _, err := Arith(Mod, Int(1), Int(0)); err == nil {
		t.Error("modulo by zero should error")
	}
	if _, err := Arith(Add, String("x"), Int(1)); err == nil {
		t.Error("string arithmetic should error")
	}
}

func TestNeg(t *testing.T) {
	if got, _ := Neg(Int(5)); got.I != -5 {
		t.Errorf("Neg(5) = %#v", got)
	}
	if got, _ := Neg(Float(2.5)); got.F != -2.5 {
		t.Errorf("Neg(2.5) = %#v", got)
	}
	if got, _ := Neg(Null()); !got.IsNull() {
		t.Errorf("Neg(NULL) = %#v", got)
	}
	if _, err := Neg(String("a")); err == nil {
		t.Error("Neg on string should error")
	}
}

func TestAggStates(t *testing.T) {
	add := func(s *AggState, vs ...D) {
		t.Helper()
		for _, v := range vs {
			if err := s.Add(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	sum := NewAggState(AggSum)
	add(sum, Int(1), Int(2), NullOf(TInt), Int(3))
	if got := sum.Result(); got.I != 6 || got.T != TInt {
		t.Errorf("SUM = %#v; want 6", got)
	}
	avg := NewAggState(AggAvg)
	add(avg, Int(1), Int(2), Null(), Int(3))
	if got := avg.Result(); got.F != 2.0 {
		t.Errorf("AVG = %#v; want 2.0", got)
	}
	cnt := NewAggState(AggCount)
	add(cnt, Int(1), Null(), Int(3))
	if got := cnt.Result(); got.I != 2 {
		t.Errorf("COUNT = %#v; want 2", got)
	}
	cntStar := NewAggState(AggCountStar)
	add(cntStar, Int(1), Null(), Int(3))
	if got := cntStar.Result(); got.I != 3 {
		t.Errorf("COUNT(*) = %#v; want 3", got)
	}
	mn, mx := NewAggState(AggMin), NewAggState(AggMax)
	add(mn, Int(5), Int(2), Null(), Int(9))
	add(mx, Int(5), Int(2), Null(), Int(9))
	if mn.Result().I != 2 || mx.Result().I != 9 {
		t.Errorf("MIN/MAX = %#v/%#v", mn.Result(), mx.Result())
	}
}

func TestAggEmptyGroups(t *testing.T) {
	for _, k := range []AggKind{AggSum, AggAvg, AggMin, AggMax} {
		if got := NewAggState(k).Result(); !got.IsNull() {
			t.Errorf("%v over empty group = %#v; want NULL", k, got)
		}
	}
	for _, k := range []AggKind{AggCount, AggCountStar} {
		if got := NewAggState(k).Result(); got.I != 0 || got.IsNull() {
			t.Errorf("%v over empty group = %#v; want 0", k, got)
		}
	}
}

func TestAggSumFloatPromotion(t *testing.T) {
	s := NewAggState(AggSum)
	s.Add(Int(1))
	s.Add(Float(0.5))
	if got := s.Result(); got.T != TFloat || got.F != 1.5 {
		t.Errorf("SUM(1, 0.5) = %#v; want FLOAT 1.5", got)
	}
}

func TestAggErrorsOnNonNumeric(t *testing.T) {
	s := NewAggState(AggSum)
	if err := s.Add(String("x")); err == nil {
		t.Error("SUM over string should error")
	}
}

func TestAggResultType(t *testing.T) {
	if AggCount.ResultType(TString) != TInt {
		t.Error("COUNT result type should be INT")
	}
	if AggAvg.ResultType(TInt) != TFloat {
		t.Error("AVG result type should be FLOAT")
	}
	if AggSum.ResultType(TInt) != TInt || AggSum.ResultType(TFloat) != TFloat {
		t.Error("SUM result type wrong")
	}
	if AggMin.ResultType(TString) != TString {
		t.Error("MIN result type should follow input")
	}
}

func TestAggKindFromName(t *testing.T) {
	for name, want := range map[string]AggKind{
		"COUNT": AggCount, "SUM": AggSum, "AVG": AggAvg, "MIN": AggMin, "MAX": AggMax,
	} {
		got, ok := AggKindFromName(name)
		if !ok || got != want {
			t.Errorf("AggKindFromName(%q) = %v, %v", name, got, ok)
		}
	}
	if _, ok := AggKindFromName("MEDIAN"); ok {
		t.Error("MEDIAN should not resolve")
	}
}

func TestFormat(t *testing.T) {
	cases := map[string]D{
		"NULL":  Null(),
		"42":    Int(42),
		"2.5":   Float(2.5),
		"hi":    String("hi"),
		"TRUE":  Bool(true),
		"FALSE": Bool(false),
	}
	for want, d := range cases {
		if got := d.Format(); got != want {
			t.Errorf("Format(%#v) = %q; want %q", d, got, want)
		}
	}
}

func TestCompareRows(t *testing.T) {
	a := Row{Int(1), String("b")}
	b := Row{Int(1), String("c")}
	if CompareRows(a, b) != -1 || CompareRows(b, a) != 1 || CompareRows(a, a) != 0 {
		t.Error("CompareRows basic ordering wrong")
	}
	if CompareRows(Row{Int(1)}, Row{Int(1), Int(2)}) != -1 {
		t.Error("shorter row should sort first")
	}
	if CompareRows(Row{Null()}, Row{Int(0)}) != -1 {
		t.Error("NULL-first ordering in rows")
	}
}

func TestRowClone(t *testing.T) {
	r := Row{Int(1), Int(2)}
	c := r.Clone()
	c[0] = Int(99)
	if r[0].I != 1 {
		t.Error("Clone aliases the original")
	}
}

func TestStringers(t *testing.T) {
	for _, tt := range []Type{TNull, TInt, TFloat, TString, TBool} {
		if tt.String() == "" {
			t.Error("type string empty")
		}
	}
	if Type(99).String() == "" {
		t.Error("unknown type string")
	}
	for _, v := range []TV{False, True, Unknown} {
		if v.String() == "" {
			t.Error("tv string")
		}
	}
	for _, op := range []CmpOp{EQ, NE, LT, LE, GT, GE} {
		if op.String() == "?" {
			t.Error("cmp op string")
		}
	}
	for _, op := range []ArithOp{Add, Sub, Mul, Div, Mod} {
		if op.String() == "?" {
			t.Error("arith op string")
		}
	}
	for _, k := range []AggKind{AggCount, AggCountStar, AggSum, AggAvg, AggMin, AggMax} {
		if k.String() == "AGG?" {
			t.Error("agg kind string")
		}
	}
}

func TestGoStringAndHashStability(t *testing.T) {
	if Int(3).GoString() != "3:INT" {
		t.Errorf("GoString = %s", Int(3).GoString())
	}
	if NullOf(TFloat).GoString() != "NULL:FLOAT" {
		t.Errorf("GoString = %s", NullOf(TFloat).GoString())
	}
	// Hash must be deterministic across calls.
	if String("x").Hash() != String("x").Hash() {
		t.Error("hash unstable")
	}
	if Float(0).Hash() != Float(-0.0).Hash() {
		t.Error("-0.0 and 0.0 must hash alike")
	}
}

func TestComparableMatrix(t *testing.T) {
	cases := []struct {
		a, b Type
		want bool
	}{
		{TInt, TFloat, true},
		{TInt, TInt, true},
		{TString, TString, true},
		{TString, TInt, false},
		{TBool, TInt, false},
		{TNull, TString, true},
	}
	for _, c := range cases {
		if got := Comparable(c.a, c.b); got != c.want {
			t.Errorf("Comparable(%v, %v) = %v", c.a, c.b, got)
		}
	}
}

// TestDatumSize pins the packed layout of D: the one-byte fields (T, Null,
// B) share the first word, so a datum is 40 bytes. Rows and batches are
// slices of D, so every byte here is paid once per value held.
func TestDatumSize(t *testing.T) {
	if got := unsafe.Sizeof(D{}); got != 40 {
		t.Fatalf("unsafe.Sizeof(datum.D{}) = %d, want 40", got)
	}
}

package types

import (
	"encoding/binary"
	"math"
	"math/big"
	"testing"
	"testing/quick"
	"time"
)

func TestKindNames(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindBool: "BOOL", KindInt: "INT",
		KindFloat: "FLOAT", KindString: "STRING", KindTime: "TIME", KindBytes: "BYTES",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestKindFromName(t *testing.T) {
	ok := map[string]Kind{
		"int": KindInt, "INTEGER": KindInt, "bigint": KindInt,
		"text": KindString, "VARCHAR": KindString, "string": KindString,
		"real": KindFloat, "double": KindFloat, "FLOAT": KindFloat,
		"bool": KindBool, "boolean": KindBool,
		"timestamp": KindTime, "date": KindTime,
		"blob": KindBytes,
	}
	for name, want := range ok {
		got, err := KindFromName(name)
		if err != nil || got != want {
			t.Errorf("KindFromName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := KindFromName("frobnicate"); err == nil {
		t.Error("KindFromName accepted nonsense type")
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() || v.Kind() != KindNull {
		t.Fatalf("zero Value is not NULL: %v", v)
	}
}

func TestAccessors(t *testing.T) {
	now := time.Now()
	if NewBool(true).Bool() != true {
		t.Error("Bool accessor")
	}
	if NewInt(42).Int() != 42 {
		t.Error("Int accessor")
	}
	if NewFloat(2.5).Float() != 2.5 {
		t.Error("Float accessor")
	}
	if NewString("x").Str() != "x" {
		t.Error("Str accessor")
	}
	if !NewTime(now).Time().Equal(now.Truncate(time.Microsecond)) {
		t.Error("Time accessor")
	}
	if string(NewBytes([]byte{1, 2}).Bytes()) != "\x01\x02" {
		t.Error("Bytes accessor")
	}
}

func TestCompareNumericCoercion(t *testing.T) {
	c, err := Compare(NewInt(3), NewFloat(3.0))
	if err != nil || c != 0 {
		t.Errorf("Compare(3, 3.0) = %d, %v; want 0", c, err)
	}
	c, err = Compare(NewInt(3), NewFloat(3.5))
	if err != nil || c != -1 {
		t.Errorf("Compare(3, 3.5) = %d, %v; want -1", c, err)
	}
	c, err = Compare(NewFloat(4.5), NewInt(4))
	if err != nil || c != 1 {
		t.Errorf("Compare(4.5, 4) = %d, %v; want 1", c, err)
	}
}

func TestCompareNullOrdering(t *testing.T) {
	if c, _ := Compare(Null, NewInt(0)); c != -1 {
		t.Error("NULL must sort before non-NULL")
	}
	if c, _ := Compare(NewString("a"), Null); c != 1 {
		t.Error("non-NULL must sort after NULL")
	}
	if c, _ := Compare(Null, Null); c != 0 {
		t.Error("NULL must compare equal to NULL for sorting")
	}
}

func TestCompareCrossKindError(t *testing.T) {
	if _, err := Compare(NewString("a"), NewInt(1)); err == nil {
		t.Error("expected error comparing STRING with INT")
	}
	if _, err := Compare(NewBool(true), NewTime(time.Now())); err == nil {
		t.Error("expected error comparing BOOL with TIME")
	}
}

func TestCompareStringsTimesBytes(t *testing.T) {
	if c, _ := Compare(NewString("abc"), NewString("abd")); c != -1 {
		t.Error("string compare")
	}
	t0 := time.Unix(100, 0)
	t1 := time.Unix(200, 0)
	if c, _ := Compare(NewTime(t0), NewTime(t1)); c != -1 {
		t.Error("time compare")
	}
	if c, _ := Compare(NewBytes([]byte("b")), NewBytes([]byte("a"))); c != 1 {
		t.Error("bytes compare")
	}
	if c, _ := Compare(NewBool(false), NewBool(true)); c != -1 {
		t.Error("bool compare")
	}
}

// key is v's key as a string, for comparing keys.
func key(v Value) string { return string(AppendKey(nil, v)) }

func TestHashKeyNumericEquivalence(t *testing.T) {
	if key(NewInt(3)) != key(NewFloat(3.0)) {
		t.Error("3 and 3.0 should share a key")
	}
	if key(NewInt(3)) == key(NewInt(4)) {
		t.Error("distinct ints must differ")
	}
	if key(NewString("3")) == key(NewInt(3)) {
		t.Error("string '3' must not collide with int 3")
	}
}

// Property: Equal values always have equal keys.
func TestHashKeyConsistentWithEqual(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		if Equal(va, vb) {
			return key(va) == key(vb)
		}
		return key(va) != key(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Adjacent integers stay apart where float64 no longer can (random
	// pairs never land next to each other).
	for _, base := range []int64{1 << 53, 1<<53 + 1, 1 << 60, math.MaxInt64 - 1, -(1 << 53) - 2, math.MinInt64} {
		if !f(base, base+1) || !f(base, base) {
			t.Errorf("key law broken at %d", base)
		}
	}
	// INT and FLOAT share a key exactly when they are the same number.
	for _, c := range []struct {
		i    int64
		f    float64
		same bool
	}{
		{3, 3.0, true}, {0, math.Copysign(0, -1), true}, {1 << 53, 1 << 53, true}, {1 << 60, 1 << 60, true},
		{1<<53 + 1, 1 << 53, false}, {1, 1.5, false}, {math.MaxInt64, 1 << 63, false}, {math.MinInt64, -1 << 63, true},
	} {
		if got := key(NewInt(c.i)) == key(NewFloat(c.f)); got != c.same {
			t.Errorf("INT %d / FLOAT %v: shared key = %v, want %v", c.i, c.f, got, c.same)
		}
	}
	if key(NewFloat(0)) != key(NewFloat(math.Copysign(0, -1))) {
		t.Error("0.0 and -0.0 are Equal but have different keys")
	}
}

// keyValue builds a value of kind k%7 from fuzzed content: n for the
// fixed-width kinds, s for STRING and BYTES.
func keyValue(k uint8, n uint64, s string) Value {
	switch Kind(k % 7) {
	case KindBool:
		return NewBool(n&1 == 1)
	case KindInt:
		return NewInt(int64(n))
	case KindFloat:
		return NewFloat(math.Float64frombits(n))
	case KindString:
		return NewString(s)
	case KindTime:
		return Value{s: tag(KindTime), n: n}
	case KindBytes:
		return NewBytes([]byte(s))
	}
	return Null
}

// lawSaysEqual is the key law stated without NumKey: same kind and
// Equal, every NaN alike; an INT and a FLOAT when they are the same
// number exactly, decided in arbitrary precision.
func lawSaysEqual(a, b Value) bool {
	ak, bk := a.Kind(), b.Kind()
	if ak == KindFloat && bk == KindFloat && (math.IsNaN(a.Float()) || math.IsNaN(b.Float())) {
		return math.IsNaN(a.Float()) && math.IsNaN(b.Float())
	}
	if ak == bk {
		return Equal(a, b)
	}
	if ak == KindFloat {
		a, b, ak, bk = b, a, bk, ak
	}
	if ak != KindInt || bk != KindFloat || math.IsNaN(b.Float()) {
		return false
	}
	return new(big.Float).SetInt64(a.Int()).Cmp(big.NewFloat(b.Float())) == 0
}

// keyLen is the length of the value key k starts with, read from its tag
// alone: a row key splits at these lengths.
func keyLen(k []byte) int {
	switch Kind(k[0]) {
	case KindNull:
		return 1
	case KindString, KindBytes:
		n, w := binary.Uvarint(k[1:])
		return 1 + w + int(n)
	}
	return 9
}

// FuzzKeyLaw: two values have equal keys iff the key law says so, and a
// key's length is the one its tag implies, so row keys concatenate
// unambiguously.
func FuzzKeyLaw(f *testing.F) {
	nan2 := math.Float64bits(math.NaN()) ^ 1
	for _, c := range []struct {
		ka uint8
		na uint64
		sa string
		kb uint8
		nb uint64
		sb string
	}{
		{uint8(KindInt), 3, "", uint8(KindFloat), math.Float64bits(3), ""},
		{uint8(KindFloat), 0, "", uint8(KindFloat), math.Float64bits(math.Copysign(0, -1)), ""},
		{uint8(KindInt), 0, "", uint8(KindFloat), math.Float64bits(math.Copysign(0, -1)), ""},
		{uint8(KindFloat), math.Float64bits(math.NaN()), "", uint8(KindFloat), nan2, ""},
		{uint8(KindFloat), math.Float64bits(math.NaN()), "", uint8(KindFloat), math.Float64bits(1), ""},
		{uint8(KindInt), 1<<53 + 1, "", uint8(KindFloat), math.Float64bits(1 << 53), ""},
		{uint8(KindInt), math.MaxInt64, "", uint8(KindFloat), math.Float64bits(1 << 63), ""},
		{uint8(KindInt), 1 << 63, "", uint8(KindFloat), math.Float64bits(-1 << 63), ""},
		{uint8(KindInt), 1 << 63, "", uint8(KindFloat), math.Float64bits(1 << 63), ""},
		{uint8(KindFloat), math.Float64bits(math.Inf(1)), "", uint8(KindInt), math.MaxInt64, ""},
		{uint8(KindString), 0, "ab", uint8(KindBytes), 0, "ab"},
		{uint8(KindBool), 1, "", uint8(KindInt), 1, ""},
		{uint8(KindTime), 7, "", uint8(KindInt), 7, ""},
		{uint8(KindNull), 0, "", uint8(KindString), 0, ""},
	} {
		f.Add(c.ka, c.na, c.sa, c.kb, c.nb, c.sb)
	}
	f.Fuzz(func(t *testing.T, ka uint8, na uint64, sa string, kb uint8, nb uint64, sb string) {
		a, b := keyValue(ka, na, sa), keyValue(kb, nb, sb)
		if got, want := key(a) == key(b), lawSaysEqual(a, b); got != want {
			t.Fatalf("%s %v / %s %v: equal keys %v, the law says %v", a.Kind(), a, b.Kind(), b, got, want)
		}
		ab := AppendRowKey(nil, Row{a, b})
		if n := keyLen(ab); string(ab[:n]) != key(a) || string(ab[n:]) != key(b) {
			t.Fatalf("row key %x does not split into %x and %x", ab, key(a), key(b))
		}
	})
}

// Property: Compare is antisymmetric for ints and floats.
func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		c1, err1 := Compare(NewFloat(a), NewFloat(b))
		c2, err2 := Compare(NewFloat(b), NewFloat(a))
		return err1 == nil && err2 == nil && c1 == -c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAsIntCoercions(t *testing.T) {
	cases := []struct {
		v    Value
		want int64
		err  bool
	}{
		{NewInt(7), 7, false},
		{NewFloat(7.9), 7, false},
		{NewBool(true), 1, false},
		{NewBool(false), 0, false},
		{NewString(" 42 "), 42, false},
		{NewString("x"), 0, true},
		{Null, 0, true},
	}
	for _, c := range cases {
		got, err := c.v.AsInt()
		if (err != nil) != c.err || (!c.err && got != c.want) {
			t.Errorf("AsInt(%v) = %d, %v; want %d err=%v", c.v, got, err, c.want, c.err)
		}
	}
}

func TestAsFloatAndBool(t *testing.T) {
	if f, err := NewString("2.5").AsFloat(); err != nil || f != 2.5 {
		t.Errorf("AsFloat('2.5') = %v, %v", f, err)
	}
	if b, err := NewInt(0).AsBool(); err != nil || b {
		t.Errorf("AsBool(0) = %v, %v", b, err)
	}
	if b, err := NewString("true").AsBool(); err != nil || !b {
		t.Errorf("AsBool('true') = %v, %v", b, err)
	}
	if _, err := Null.AsBool(); err == nil {
		t.Error("AsBool(NULL) should error")
	}
}

func TestAsString(t *testing.T) {
	if Null.AsString() != "" {
		t.Error("NULL AsString should be empty")
	}
	if NewInt(5).AsString() != "5" {
		t.Error("int AsString")
	}
	if NewString("hi").AsString() != "hi" {
		t.Error("string AsString")
	}
}

func TestSQLLiteralQuoting(t *testing.T) {
	if got := NewString("o'brien").SQLLiteral(); got != "'o''brien'" {
		t.Errorf("SQLLiteral escaping: %q", got)
	}
	if got := NewInt(-3).SQLLiteral(); got != "-3" {
		t.Errorf("int literal: %q", got)
	}
	if got := Null.SQLLiteral(); got != "NULL" {
		t.Errorf("null literal: %q", got)
	}
}

func TestCoerceTo(t *testing.T) {
	v, err := NewString("2006-01-02").CoerceTo(KindTime)
	if err != nil || v.Kind() != KindTime {
		t.Errorf("CoerceTo TIME: %v, %v", v, err)
	}
	v, err = NewInt(1).CoerceTo(KindBool)
	if err != nil || !v.Bool() {
		t.Errorf("CoerceTo BOOL: %v, %v", v, err)
	}
	v, err = Null.CoerceTo(KindInt)
	if err != nil || !v.IsNull() {
		t.Errorf("NULL CoerceTo must stay NULL: %v, %v", v, err)
	}
	if _, err = NewBool(true).CoerceTo(KindTime); err == nil {
		t.Error("BOOL→TIME should fail")
	}
}

func TestCloneBytesIndependence(t *testing.T) {
	orig := NewBytes([]byte{1, 2, 3})
	c := orig.Clone()
	c.Bytes()[0] = 9
	if orig.Bytes()[0] != 1 {
		t.Error("Clone must deep-copy bytes")
	}
}

func TestRowHelpers(t *testing.T) {
	r := Row{NewInt(1), NewString("a")}
	c := CloneRow(r)
	if !RowsEqual(r, c) {
		t.Error("CloneRow must preserve equality")
	}
	if RowsEqual(r, Row{NewInt(1)}) {
		t.Error("rows of different arity are not equal")
	}
	rowKey := func(r Row) string { return string(AppendRowKey(nil, r)) }
	if rowKey(r) == rowKey(Row{NewInt(1), NewString("b")}) {
		t.Error("distinct rows must have distinct keys")
	}
	// Row keys must be prefix-safe: ("ab","c") vs ("a","bc").
	if rowKey(Row{NewString("ab"), NewString("c")}) == rowKey(Row{NewString("a"), NewString("bc")}) {
		t.Error("row keys must be unambiguous across value boundaries")
	}
	if RowKey(r) != rowKey(r) {
		t.Error("RowKey must be the row's appended key")
	}
}

func TestCoerceToBytesAndTime(t *testing.T) {
	v, err := NewString("payload").CoerceTo(KindBytes)
	if err != nil || string(v.Bytes()) != "payload" {
		t.Fatalf("%v %v", v, err)
	}
	v, err = NewInt(1_000_000_000).CoerceTo(KindTime)
	if err != nil || v.Kind() != KindTime {
		t.Fatalf("%v %v", v, err)
	}
	if _, err := NewFloat(1.5).CoerceTo(KindBytes); err == nil {
		t.Error("FLOAT→BYTES must fail")
	}
	if _, err := NewString("not a time").CoerceTo(KindTime); err == nil {
		t.Error("bad time string must fail")
	}
	// Alternate accepted layouts.
	for _, s := range []string{"2026-07-06", "2026-07-06 12:30:00", "2026-07-06T12:30:00Z"} {
		if _, err := NewString(s).CoerceTo(KindTime); err != nil {
			t.Errorf("layout %q rejected: %v", s, err)
		}
	}
}

func TestSQLLiteralTimeAndBytes(t *testing.T) {
	tv := NewTime(time.Date(2026, 7, 6, 1, 2, 3, 0, time.UTC))
	lit := tv.SQLLiteral()
	if len(lit) < 2 || lit[0] != '\'' {
		t.Fatalf("time literal: %q", lit)
	}
	bv := NewBytes([]byte{0xAB})
	if bv.SQLLiteral() != "x'ab'" {
		t.Fatalf("bytes literal: %q", bv.SQLLiteral())
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind must render something")
	}
}

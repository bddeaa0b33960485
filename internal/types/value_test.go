package types

import (
	"math"
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

func TestHashKeyNumericEquivalence(t *testing.T) {
	if NewInt(3).HashKey() != NewFloat(3.0).HashKey() {
		t.Error("3 and 3.0 should share a hash key")
	}
	if NewInt(3).HashKey() == NewInt(4).HashKey() {
		t.Error("distinct ints must differ")
	}
	if NewString("3").HashKey() == NewInt(3).HashKey() {
		t.Error("string '3' must not collide with int 3")
	}
}

// Property: Equal values always have equal hash keys.
func TestHashKeyConsistentWithEqual(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		if Equal(va, vb) {
			return va.HashKey() == vb.HashKey()
		}
		return va.HashKey() != vb.HashKey()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Adjacent integers stay apart where float64 no longer can (random
	// pairs never land next to each other).
	for _, base := range []int64{1 << 53, 1<<53 + 1, 1 << 60, math.MaxInt64 - 1, -(1 << 53) - 2, math.MinInt64} {
		if !f(base, base+1) || !f(base, base) {
			t.Errorf("HashKey law broken at %d", base)
		}
	}
	// INT and FLOAT share a key exactly when they are the same number.
	for _, c := range []struct {
		i    int64
		f    float64
		same bool
	}{
		{3, 3.0, true}, {0, math.Copysign(0, -1), true}, {1 << 53, 1 << 53, true}, {1 << 60, 1 << 60, true},
		{1<<53 + 1, 1 << 53, false}, {1, 1.5, false}, {math.MaxInt64, 1 << 63, false},
	} {
		if got := NewInt(c.i).HashKey() == NewFloat(c.f).HashKey(); got != c.same {
			t.Errorf("INT %d / FLOAT %v: shared key = %v, want %v", c.i, c.f, got, c.same)
		}
	}
	if NewFloat(0).HashKey() != NewFloat(math.Copysign(0, -1)).HashKey() {
		t.Error("0.0 and -0.0 are Equal but have different keys")
	}
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
	if RowKey(r) == RowKey(Row{NewInt(1), NewString("b")}) {
		t.Error("distinct rows must have distinct keys")
	}
	// RowKey must be prefix-safe: ("ab","c") vs ("a","bc").
	if RowKey(Row{NewString("ab"), NewString("c")}) == RowKey(Row{NewString("a"), NewString("bc")}) {
		t.Error("RowKey must be unambiguous across value boundaries")
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

// Package types defines the typed value model shared by every layer of
// EdiFlow: the SQL engine, the workflow engine, the notification protocol
// and the visualization tables all exchange rows of Value.
//
// A Value is a small tagged union. Integers and floats compare with numeric
// coercion; NULL sorts before everything and never satisfies an equality
// predicate. The model matches the atomic types T of the paper's process
// grammar (Fig. 4): booleans, integers, reals, strings, timestamps and raw
// bytes.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the dynamic type of a Value.
type Kind uint8

// The supported kinds. KindNull is the zero Kind, so the zero Value is NULL.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindTime
	KindBytes
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindTime:
		return "TIME"
	case KindBytes:
		return "BYTES"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// KindFromName parses a column type name as written in schemas and process
// specifications. It accepts the common SQL aliases used by the paper's
// examples (INTEGER, REAL, TEXT, VARCHAR, TIMESTAMP, ...).
func KindFromName(name string) (Kind, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "BOOL", "BOOLEAN":
		return KindBool, nil
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return KindInt, nil
	case "FLOAT", "REAL", "DOUBLE", "NUMERIC", "DECIMAL":
		return KindFloat, nil
	case "STRING", "TEXT", "VARCHAR", "CHAR":
		return KindString, nil
	case "TIME", "TIMESTAMP", "DATE", "DATETIME":
		return KindTime, nil
	case "BYTES", "BLOB", "BINARY":
		return KindBytes, nil
	}
	return KindNull, fmt.Errorf("types: unknown type name %q", name)
}

// Value is a dynamically typed SQL value. The zero Value is NULL.
//
// Value is a value type: copying it copies the content, except for
// KindBytes where the underlying byte slice is shared (callers that mutate
// byte payloads must Clone first).
type Value struct {
	kind Kind
	b    bool
	i    int64
	f    float64
	s    string
	t    time.Time
	raw  []byte
}

// Null is the NULL value.
var Null = Value{}

// NewBool returns a BOOL value.
func NewBool(b bool) Value { return Value{kind: KindBool, b: b} }

// NewInt returns an INT value.
func NewInt(i int64) Value { return Value{kind: KindInt, i: i} }

// NewFloat returns a FLOAT value.
func NewFloat(f float64) Value { return Value{kind: KindFloat, f: f} }

// NewString returns a STRING value.
func NewString(s string) Value { return Value{kind: KindString, s: s} }

// NewTime returns a TIME value, truncated to microseconds so that encoded
// round-trips are exact.
func NewTime(t time.Time) Value { return Value{kind: KindTime, t: t.Truncate(time.Microsecond)} }

// NewBytes returns a BYTES value sharing the given slice.
func NewBytes(b []byte) Value { return Value{kind: KindBytes, raw: b} }

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind { return v.kind }

// The Lane accessors below take pointer receivers on purpose: Value
// has too many fields for the compiler's SSA form, so even an inlined
// value-receiver accessor copies the whole struct per call. In
// per-lane loops (the expression VM's batch fill) that copy dominates
// the loop, so hot paths read single fields through a pointer. They
// carry the same preconditions as their value-receiver counterparts.

// LaneKind reports the dynamic type of *v without copying it.
func (v *Value) LaneKind() Kind { return v.kind }

// LaneInt returns the integer content; Kind must be KindInt.
func (v *Value) LaneInt() int64 { return v.i }

// LaneFloat returns the float content; Kind must be KindFloat.
func (v *Value) LaneFloat() float64 { return v.f }

// LaneBool returns the boolean content; Kind must be KindBool.
func (v *Value) LaneBool() bool { return v.b }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Bool returns the boolean content; it must only be called when Kind is KindBool.
func (v Value) Bool() bool { return v.b }

// Int returns the integer content; it must only be called when Kind is KindInt.
func (v Value) Int() int64 { return v.i }

// Float returns the float content; it must only be called when Kind is KindFloat.
func (v Value) Float() float64 { return v.f }

// Str returns the string content; it must only be called when Kind is KindString.
func (v Value) Str() string { return v.s }

// Time returns the time content; it must only be called when Kind is KindTime.
func (v Value) Time() time.Time { return v.t }

// Bytes returns the raw byte content; it must only be called when Kind is KindBytes.
func (v Value) Bytes() []byte { return v.raw }

// Clone returns a deep copy of v (relevant only for KindBytes).
func (v Value) Clone() Value {
	if v.kind == KindBytes && v.raw != nil {
		c := make([]byte, len(v.raw))
		copy(c, v.raw)
		v.raw = c
	}
	return v
}

// AsInt coerces v to an int64. Floats truncate toward zero; strings parse;
// booleans map to 0/1. NULL and unparsable values return an error.
func (v Value) AsInt() (int64, error) {
	switch v.kind {
	case KindInt:
		return v.i, nil
	case KindFloat:
		return int64(v.f), nil
	case KindBool:
		if v.b {
			return 1, nil
		}
		return 0, nil
	case KindString:
		n, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("types: cannot convert %q to INT", v.s)
		}
		return n, nil
	}
	return 0, fmt.Errorf("types: cannot convert %s to INT", v.kind)
}

// AsFloat coerces v to a float64.
func (v Value) AsFloat() (float64, error) {
	switch v.kind {
	case KindInt:
		return float64(v.i), nil
	case KindFloat:
		return v.f, nil
	case KindBool:
		if v.b {
			return 1, nil
		}
		return 0, nil
	case KindString:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
		if err != nil {
			return 0, fmt.Errorf("types: cannot convert %q to FLOAT", v.s)
		}
		return f, nil
	}
	return 0, fmt.Errorf("types: cannot convert %s to FLOAT", v.kind)
}

// AsString coerces v to its textual form. NULL returns "".
func (v Value) AsString() string {
	switch v.kind {
	case KindNull:
		return ""
	case KindString:
		return v.s
	default:
		return v.String()
	}
}

// AsBool coerces v to a boolean: BOOL is itself, numbers are non-zero,
// strings parse "true"/"false". NULL is an error.
func (v Value) AsBool() (bool, error) {
	switch v.kind {
	case KindBool:
		return v.b, nil
	case KindInt:
		return v.i != 0, nil
	case KindFloat:
		return v.f != 0, nil
	case KindString:
		b, err := strconv.ParseBool(strings.TrimSpace(strings.ToLower(v.s)))
		if err != nil {
			return false, fmt.Errorf("types: cannot convert %q to BOOL", v.s)
		}
		return b, nil
	}
	return false, fmt.Errorf("types: cannot convert %s to BOOL", v.kind)
}

// String renders v for display. Strings are returned verbatim (no quoting);
// use SQLLiteral for a parseable form.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.b {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindTime:
		return v.t.Format(time.RFC3339Nano)
	case KindBytes:
		return fmt.Sprintf("x'%x'", v.raw)
	}
	return "?"
}

// SQLLiteral renders v as a SQL literal that the sqltext parser accepts.
func (v Value) SQLLiteral() string {
	switch v.kind {
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindTime:
		return "'" + v.t.Format(time.RFC3339Nano) + "'"
	default:
		return v.String()
	}
}

// numericKind reports whether k is INT or FLOAT.
func numericKind(k Kind) bool { return k == KindInt || k == KindFloat }

// Compare orders a before b (-1), equal (0) or after (+1).
//
// NULL compares before every non-NULL value and equal to NULL (total order
// for sorting; predicate-level NULL semantics are the evaluator's concern).
// INT and FLOAT compare numerically across kinds. Other cross-kind
// comparisons are errors.
func Compare(a, b Value) (int, error) {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == b.kind:
			return 0, nil
		case a.kind == KindNull:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if numericKind(a.kind) && numericKind(b.kind) {
		if a.kind == KindInt && b.kind == KindInt {
			return cmpInt(a.i, b.i), nil
		}
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		return cmpFloat(af, bf), nil
	}
	if a.kind != b.kind {
		return 0, fmt.Errorf("types: cannot compare %s with %s", a.kind, b.kind)
	}
	switch a.kind {
	case KindBool:
		x, y := 0, 0
		if a.b {
			x = 1
		}
		if b.b {
			y = 1
		}
		return cmpInt(int64(x), int64(y)), nil
	case KindString:
		return strings.Compare(a.s, b.s), nil
	case KindTime:
		switch {
		case a.t.Before(b.t):
			return -1, nil
		case a.t.After(b.t):
			return 1, nil
		}
		return 0, nil
	case KindBytes:
		return strings.Compare(string(a.raw), string(b.raw)), nil
	}
	return 0, fmt.Errorf("types: cannot compare %s", a.kind)
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Equal reports value equality under Compare semantics (NULL equals NULL).
func Equal(a, b Value) bool {
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// HashKey returns a string usable as a map key. The law: two values of
// the same kind have equal keys iff they are Equal (NaN, which Compare
// cannot order, excepted), and an INT and a FLOAT share a key iff they are
// the same number exactly — 3 and 3.0 do, 2^53+1 and float64(2^53) do not.
// Compare agrees with that wherever float64 holds the integer exactly
// (|i| ≤ 2^53); beyond, it rounds the INT and may call equal what the keys
// keep apart. Values of different non-numeric kinds never share a key.
func (v Value) HashKey() string {
	switch v.kind {
	case KindNull:
		return "\x00"
	case KindBool:
		if v.b {
			return "b1"
		}
		return "b0"
	case KindInt:
		return "n" + strconv.FormatInt(v.i, 10)
	case KindFloat:
		if v.f == math.Trunc(v.f) && v.f >= -1<<63 && v.f < 1<<63 {
			return "n" + strconv.FormatInt(int64(v.f), 10)
		}
		return "n" + strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return "s" + v.s
	case KindTime:
		return "t" + strconv.FormatInt(v.t.UnixNano(), 10)
	case KindBytes:
		return "y" + string(v.raw)
	}
	return "?"
}

// CoerceTo converts v to the target kind, or errors when no sensible
// conversion exists. NULL coerces to NULL of any kind.
func (v Value) CoerceTo(k Kind) (Value, error) {
	if v.kind == KindNull || v.kind == k {
		return v, nil
	}
	switch k {
	case KindBool:
		b, err := v.AsBool()
		if err != nil {
			return Null, err
		}
		return NewBool(b), nil
	case KindInt:
		i, err := v.AsInt()
		if err != nil {
			return Null, err
		}
		return NewInt(i), nil
	case KindFloat:
		f, err := v.AsFloat()
		if err != nil {
			return Null, err
		}
		return NewFloat(f), nil
	case KindString:
		return NewString(v.AsString()), nil
	case KindTime:
		if v.kind == KindString {
			for _, layout := range []string{time.RFC3339Nano, time.RFC3339, "2006-01-02 15:04:05", "2006-01-02"} {
				if t, err := time.Parse(layout, v.s); err == nil {
					return NewTime(t), nil
				}
			}
			return Null, fmt.Errorf("types: cannot parse %q as TIME", v.s)
		}
		if v.kind == KindInt {
			return NewTime(time.Unix(0, v.i)), nil
		}
	case KindBytes:
		if v.kind == KindString {
			return NewBytes([]byte(v.s)), nil
		}
	}
	return Null, fmt.Errorf("types: cannot coerce %s to %s", v.kind, k)
}

// Row is a tuple of values.
type Row []Value

// CloneRow returns a deep copy of r.
func CloneRow(r Row) Row {
	c := make(Row, len(r))
	for i, v := range r {
		c[i] = v.Clone()
	}
	return c
}

// RowsEqual reports whether two rows have equal length and pairwise Equal values.
func RowsEqual(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// RowKey concatenates the hash keys of the row's values into a map key.
func RowKey(r Row) string {
	var sb strings.Builder
	for _, v := range r {
		k := v.HashKey()
		sb.WriteString(strconv.Itoa(len(k)))
		sb.WriteByte(':')
		sb.WriteString(k)
	}
	return sb.String()
}

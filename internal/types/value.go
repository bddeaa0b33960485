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
	"unsafe"
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
// A Value is 24 bytes with one pointer word, so a row of values costs the
// collector one pointer per cell to scan:
//
//   - s holds the content of a STRING or BYTES value. For BOOL, INT,
//     FLOAT and TIME it is a one-byte tag string inside the package-level
//     array tags, and the kind is the tag's offset in that array.
//   - n holds the INT, the FLOAT's bits, the BOOL (0/1) or the TIME as
//     unix nanoseconds. For NULL, STRING and BYTES it holds the kind.
//
// A one-byte STRING or BYTES value never reads as a tag: its content lives
// in memory of its own, never inside tags. The zero-length func array keeps
// Value non-comparable; use Equal or Compare.
//
// Value is a value type: copying it copies the content, except for
// KindBytes where the underlying bytes are shared with the slice given to
// NewBytes (callers that mutate byte payloads must Clone first).
type Value struct {
	_ [0]func()
	s string
	n uint64
}

// tags backs the tag strings of the kinds whose payload lives in n; entry
// k is the tag of Kind k. Entries for NULL, STRING and BYTES are never
// referenced.
var tags = [...]byte{0, 1, 2, 3, 4, 5, 6}

// tag returns the one-byte tag string of kind k.
func tag(k Kind) string { return unsafe.String(&tags[k], 1) }

// Null is the NULL value.
var Null = Value{}

// NewBool returns a BOOL value.
func NewBool(b bool) Value {
	var n uint64
	if b {
		n = 1
	}
	return Value{s: tag(KindBool), n: n}
}

// NewInt returns an INT value.
func NewInt(i int64) Value { return Value{s: tag(KindInt), n: uint64(i)} }

// NewFloat returns a FLOAT value.
func NewFloat(f float64) Value { return Value{s: tag(KindFloat), n: math.Float64bits(f)} }

// NewString returns a STRING value.
func NewString(s string) Value { return Value{s: s, n: uint64(KindString)} }

// NewTime returns a TIME value: the instant t, truncated to microseconds
// and held as int64 unix nanoseconds; the location is not kept. An instant
// before 1678 or after 2262 lies outside that range and wraps as
// t.UnixNano does.
func NewTime(t time.Time) Value {
	return Value{s: tag(KindTime), n: uint64(t.Truncate(time.Microsecond).UnixNano())}
}

// NewBytes returns a BYTES value sharing the given slice.
func NewBytes(b []byte) Value {
	return Value{s: unsafe.String(unsafe.SliceData(b), len(b)), n: uint64(KindBytes)}
}

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind {
	if len(v.s) == 1 {
		if d := uintptr(unsafe.Pointer(unsafe.StringData(v.s))) - uintptr(unsafe.Pointer(&tags[0])); d < uintptr(len(tags)) {
			return Kind(d)
		}
	}
	return Kind(v.n)
}

// The Lane accessors below read *v through a pointer and carry the same
// preconditions as their value-receiver counterparts. At 24 bytes a value
// receiver would serve as well; they stay because the expression VM's
// batch fill and the benchmark's generators call them.

// LaneKind reports the dynamic type of *v.
func (v *Value) LaneKind() Kind { return v.Kind() }

// LaneInt returns the integer content; Kind must be KindInt.
func (v *Value) LaneInt() int64 { return v.Int() }

// LaneFloat returns the float content; Kind must be KindFloat.
func (v *Value) LaneFloat() float64 { return v.Float() }

// LaneBool returns the boolean content; Kind must be KindBool.
func (v *Value) LaneBool() bool { return v.Bool() }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.n == uint64(KindNull) && v.s == "" }

// Bool returns the boolean content; it must only be called when Kind is KindBool.
func (v Value) Bool() bool { return v.n != 0 }

// Int returns the integer content; it must only be called when Kind is KindInt.
func (v Value) Int() int64 { return int64(v.n) }

// Float returns the float content; it must only be called when Kind is KindFloat.
func (v Value) Float() float64 { return math.Float64frombits(v.n) }

// Str returns the string content; it must only be called when Kind is
// KindString. Called on another kind it returns "", never a tag.
func (v Value) Str() string {
	if v.Kind() != KindString {
		return ""
	}
	return v.s
}

// Time returns the instant held by v, in the local time zone; it must only
// be called when Kind is KindTime.
func (v Value) Time() time.Time { return time.Unix(0, int64(v.n)) }

// Bytes returns the raw byte content, sharing it; it must only be called
// when Kind is KindBytes. Called on another kind it returns nil.
func (v Value) Bytes() []byte {
	if v.Kind() != KindBytes {
		return nil
	}
	return unsafe.Slice(unsafe.StringData(v.s), len(v.s))
}

// Clone returns a deep copy of v (relevant only for KindBytes).
func (v Value) Clone() Value {
	if v.Kind() == KindBytes && v.s != "" {
		v.s = strings.Clone(v.s)
	}
	return v
}

// AsInt coerces v to an int64. Floats truncate toward zero; strings parse;
// booleans map to 0/1. NULL and unparsable values return an error.
func (v Value) AsInt() (int64, error) {
	switch k := v.Kind(); k {
	case KindInt, KindBool:
		return int64(v.n), nil
	case KindFloat:
		return int64(v.Float()), nil
	case KindString:
		n, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("types: cannot convert %q to INT", v.s)
		}
		return n, nil
	default:
		return 0, fmt.Errorf("types: cannot convert %s to INT", k)
	}
}

// AsFloat coerces v to a float64.
func (v Value) AsFloat() (float64, error) {
	switch k := v.Kind(); k {
	case KindInt, KindBool:
		return float64(int64(v.n)), nil
	case KindFloat:
		return v.Float(), nil
	case KindString:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
		if err != nil {
			return 0, fmt.Errorf("types: cannot convert %q to FLOAT", v.s)
		}
		return f, nil
	default:
		return 0, fmt.Errorf("types: cannot convert %s to FLOAT", k)
	}
}

// AsString coerces v to its textual form. NULL returns "".
func (v Value) AsString() string {
	switch v.Kind() {
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
	switch k := v.Kind(); k {
	case KindBool, KindInt:
		return v.n != 0, nil
	case KindFloat:
		return v.Float() != 0, nil
	case KindString:
		b, err := strconv.ParseBool(strings.TrimSpace(strings.ToLower(v.s)))
		if err != nil {
			return false, fmt.Errorf("types: cannot convert %q to BOOL", v.s)
		}
		return b, nil
	default:
		return false, fmt.Errorf("types: cannot convert %s to BOOL", k)
	}
}

// String renders v for display. Strings are returned verbatim (no quoting);
// use SQLLiteral for a parseable form.
func (v Value) String() string {
	switch v.Kind() {
	case KindNull:
		return "NULL"
	case KindBool:
		return strconv.FormatBool(v.Bool())
	case KindInt:
		return strconv.FormatInt(v.Int(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case KindString:
		return v.s
	case KindTime:
		return v.Time().Format(time.RFC3339Nano)
	case KindBytes:
		return fmt.Sprintf("x'%x'", v.s)
	}
	return "?"
}

// SQLLiteral renders v as a SQL literal that the sqltext parser accepts.
func (v Value) SQLLiteral() string {
	switch v.Kind() {
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindTime:
		return "'" + v.Time().Format(time.RFC3339Nano) + "'"
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
	ak, bk := a.Kind(), b.Kind()
	if ak == KindNull || bk == KindNull {
		switch {
		case ak == bk:
			return 0, nil
		case ak == KindNull:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if numericKind(ak) && numericKind(bk) {
		if ak == KindInt && bk == KindInt {
			return cmpInt(a.Int(), b.Int()), nil
		}
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		return cmpFloat(af, bf), nil
	}
	if ak != bk {
		return 0, fmt.Errorf("types: cannot compare %s with %s", ak, bk)
	}
	switch ak {
	case KindBool, KindTime:
		return cmpInt(int64(a.n), int64(b.n)), nil
	case KindString, KindBytes:
		return strings.Compare(a.s, b.s), nil
	}
	return 0, fmt.Errorf("types: cannot compare %s", ak)
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
	switch v.Kind() {
	case KindNull:
		return "\x00"
	case KindBool:
		if v.Bool() {
			return "b1"
		}
		return "b0"
	case KindInt:
		return "n" + strconv.FormatInt(v.Int(), 10)
	case KindFloat:
		if f := v.Float(); f == math.Trunc(f) && f >= -1<<63 && f < 1<<63 {
			return "n" + strconv.FormatInt(int64(f), 10)
		}
		return "n" + strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case KindString:
		return "s" + v.s
	case KindTime:
		return "t" + strconv.FormatInt(int64(v.n), 10)
	case KindBytes:
		return "y" + v.s
	}
	return "?"
}

// CoerceTo converts v to the target kind, or errors when no sensible
// conversion exists. NULL coerces to NULL of any kind.
func (v Value) CoerceTo(k Kind) (Value, error) {
	vk := v.Kind()
	if vk == KindNull || vk == k {
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
		if vk == KindString {
			for _, layout := range []string{time.RFC3339Nano, time.RFC3339, "2006-01-02 15:04:05", "2006-01-02"} {
				if t, err := time.Parse(layout, v.s); err == nil {
					return NewTime(t), nil
				}
			}
			return Null, fmt.Errorf("types: cannot parse %q as TIME", v.s)
		}
		if vk == KindInt {
			return NewTime(time.Unix(0, v.Int())), nil
		}
	case KindBytes:
		if vk == KindString {
			return NewBytes([]byte(v.s)), nil
		}
	}
	return Null, fmt.Errorf("types: cannot coerce %s to %s", vk, k)
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

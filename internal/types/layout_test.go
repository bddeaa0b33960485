package types

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"
	"unsafe"
)

// TestValueLayout pins the size of a Value, that it stays non-comparable,
// and that no STRING or BYTES content is ever mistaken for a kind tag.
func TestValueLayout(t *testing.T) {
	if sz := unsafe.Sizeof(Value{}); sz > 24 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want ≤ 24", sz)
	}
	if reflect.TypeOf(Value{}).Comparable() {
		t.Error("Value is comparable; == would bypass Equal's semantics")
	}

	check := func(v Value, kind Kind, content string) {
		t.Helper()
		if v.Kind() != kind {
			t.Fatalf("%q: Kind %s, want %s", content, v.Kind(), kind)
		}
		if v.IsNull() {
			t.Fatalf("%q: a %s reads as NULL", content, kind)
		}
		got := v.Str()
		if kind == KindBytes {
			got = string(v.Bytes())
			if v.Str() != "" {
				t.Fatalf("%q: Str of a BYTES value = %q", content, v.Str())
			}
		} else if v.Bytes() != nil {
			t.Fatalf("%q: Bytes of a STRING value = %v", content, v.Bytes())
		}
		if got != content {
			t.Fatalf("%s content %q, want %q", kind, got, content)
		}
	}
	check(NewString(""), KindString, "")
	check(NewBytes(nil), KindBytes, "")
	check(NewBytes([]byte{}), KindBytes, "")

	// Every one-byte content, from a fresh allocation, from a substring of
	// a longer string and from a byte slice, including the bytes that equal
	// the tags' own contents.
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	long := string(all)
	for b := 0; b < 256; b++ {
		one := string([]byte{byte(b)})
		check(NewString(one), KindString, one)
		check(NewString(long[b:b+1]), KindString, one)
		check(NewBytes([]byte{byte(b)}), KindBytes, one)
		check(NewBytes(all[b:b+1]), KindBytes, one)
		// A value decoded from its encoding is a fresh allocation too.
		for _, v := range []Value{NewString(one), NewBytes([]byte(one))} {
			d, _, err := DecodeValue(AppendValue(nil, v))
			if err != nil {
				t.Fatal(err)
			}
			check(d, v.Kind(), one)
		}
	}

	// The kinds whose payload lives in the number word keep their kind for
	// every payload, zero included, and never read as NULL.
	for _, v := range []Value{
		NewBool(false), NewBool(true),
		NewInt(0), NewInt(-1), NewInt(math.MaxInt64), NewInt(math.MinInt64),
		NewInt(int64(KindString)), NewInt(int64(KindBytes)),
		NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(math.NaN()), NewFloat(math.Inf(-1)),
		NewTime(time.Unix(0, 0)), NewTime(time.Unix(-1, 0)),
	} {
		if v.IsNull() {
			t.Errorf("%s %v reads as NULL", v.Kind(), v)
		}
		if v.Str() != "" || v.Bytes() != nil {
			t.Errorf("%s %v leaks its tag: Str %q Bytes %v", v.Kind(), v, v.Str(), v.Bytes())
		}
	}
	if k := NewInt(int64(KindString)).Kind(); k != KindInt {
		t.Errorf("INT %d reads as %s", KindString, k)
	}
	if !Null.IsNull() || Null.Kind() != KindNull || (Value{}).Kind() != KindNull {
		t.Error("the zero Value is not NULL")
	}
}

// TestTimeIsAnInstant: a TIME holds int64 unix nanoseconds, so within that
// range it keeps the instant to the microsecond and drops the location, and
// outside it wraps exactly as its WAL encoding always has.
func TestTimeIsAnInstant(t *testing.T) {
	paris := time.FixedZone("CET", 3600)
	for _, in := range []time.Time{
		time.Date(2024, 3, 1, 12, 30, 45, 123456789, paris),
		time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(1969, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(1900, 6, 15, 8, 0, 0, 500, time.UTC),
		time.Unix(0, math.MinInt64+int64(time.Microsecond)),
		time.Unix(0, math.MaxInt64),
	} {
		v := NewTime(in)
		want := in.Truncate(time.Microsecond)
		if !v.Time().Equal(want) {
			t.Errorf("NewTime(%v).Time() = %v, want %v", in, v.Time(), want)
		}
		d, _, err := DecodeValue(AppendValue(nil, v))
		if err != nil || !d.Time().Equal(want) || d.HashKey() != v.HashKey() {
			t.Errorf("%v: round trip gives %v (%v)", in, d.Time(), err)
		}
	}

	// Before 1678 and after 2262 the nanosecond count wraps. The value is
	// the one a WAL, snapshot or wire round trip gives.
	for _, c := range []struct{ in, want time.Time }{
		{time.Date(1500, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2084, 7, 20, 23, 34, 33, 709551616, time.UTC)},
		{time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(1715, 6, 13, 0, 25, 26, 290448384, time.UTC)},
	} {
		v := NewTime(c.in)
		if !v.Time().Equal(c.want) {
			t.Errorf("NewTime(%v).Time() = %v, want %v", c.in, v.Time().UTC(), c.want)
		}
		d, _, err := DecodeValue(AppendValue(nil, v))
		if err != nil || !d.Time().Equal(v.Time()) {
			t.Errorf("%v: round trip gives %v (%v)", c.in, d.Time(), err)
		}
	}
}

// FuzzValueRoundTrip: the value encoding is canonical. Whatever DecodeValue
// accepts, AppendValue writes back byte for byte, and a second round trip
// keeps the kind, the display form and the hash key.
func FuzzValueRoundTrip(f *testing.F) {
	for _, v := range []Value{
		Null, NewBool(true), NewBool(false), NewInt(-42), NewFloat(2.5), NewFloat(math.NaN()),
		NewString(""), NewString("x"), NewString("héllo"), NewBytes([]byte{0, 1, 2}), NewBytes(nil),
		NewTime(time.Date(2011, 4, 11, 9, 0, 0, 0, time.UTC)),
	} {
		f.Add(AppendValue(nil, v))
	}
	f.Add([]byte{byte(KindBool), 2})           // a BOOL byte other than 0 or 1
	f.Add([]byte{byte(KindString), 0x80, 0})   // a non-minimal length
	f.Add([]byte{byte(KindBytes), 0x81, 0x00}) // ditto
	f.Fuzz(func(t *testing.T, in []byte) {
		v, n, err := DecodeValue(in)
		if err != nil {
			return
		}
		enc := AppendValue(nil, v)
		if !bytes.Equal(enc, in[:n]) {
			t.Fatalf("decoded %x as %s %v; re-encoded as %x", in[:n], v.Kind(), v, enc)
		}
		again, m, err := DecodeValue(enc)
		if err != nil || m != len(enc) {
			t.Fatalf("re-decoding %x: %d bytes, %v", enc, m, err)
		}
		if again.Kind() != v.Kind() || again.String() != v.String() || again.HashKey() != v.HashKey() {
			t.Fatalf("second round trip: %s %q %q, want %s %q %q",
				again.Kind(), again.String(), again.HashKey(), v.Kind(), v.String(), v.HashKey())
		}
	})
}

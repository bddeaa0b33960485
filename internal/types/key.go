package types

import (
	"encoding/binary"
	"math"
)

// Map keys. Every hash structure above this package (index entries,
// groups, join builds, DISTINCT, IN sets, view row indexes, delta
// cancellation) keys a value or a row by its binary key: a probe appends
// the key to a reused buffer and reads the map as m[string(buf)], which
// does not allocate, so a key string is made only when an entry opens.
//
// The law: two values of the same kind have equal keys iff they are Equal,
// every NaN sharing one key; an INT and a FLOAT share a key iff they are
// the same number exactly (NumKey) — 3 and 3.0 do, 2^53+1 and
// float64(2^53) do not. Compare agrees with that wherever float64 holds
// the integer exactly (|i| ≤ 2^53); beyond, it rounds the INT and may call
// equal what the keys keep apart. Values of different non-numeric kinds
// never share a key.
//
// Layout of one value's key: 1 tag byte, the Kind, then
//
//	NULL                   (nothing)
//	INT    8 bytes         the number; also a FLOAT NumKey reads
//	FLOAT  8 bytes         the IEEE-754 bits of any other FLOAT, NaN canonical
//	BOOL   8 bytes         0 or 1
//	TIME   8 bytes         unix nanoseconds
//	STRING uvarint length + bytes
//	BYTES  uvarint length + bytes
//
// Every value's key delimits itself, so a row's key is its values' keys
// concatenated. Keys live in memory only: nothing writes them to disk or
// the wire.

// canonicalNaN is the bits every NaN keys as.
var canonicalNaN = math.Float64bits(math.NaN())

// NumKey returns the integer v keys as: the INT itself, or a FLOAT that
// holds an integer in int64 range exactly (−0 reads as 0). ok is false for
// any other value. It is the one definition of the law's INT ≡ integral
// FLOAT.
func NumKey(v Value) (int64, bool) {
	switch v.Kind() {
	case KindInt:
		return v.Int(), true
	case KindFloat:
		if f := v.Float(); f == math.Trunc(f) && f >= -1<<63 && f < 1<<63 {
			return int64(f), true
		}
	}
	return 0, false
}

// AppendKey appends v's key to dst and returns the extended slice.
func AppendKey(dst []byte, v Value) []byte {
	k, n := v.Kind(), v.n
	switch k {
	case KindNull:
		return append(dst, byte(KindNull))
	case KindString, KindBytes:
		dst = binary.AppendUvarint(append(dst, byte(k)), uint64(len(v.s)))
		return append(dst, v.s...)
	case KindFloat:
		if i, ok := NumKey(v); ok {
			k, n = KindInt, uint64(i)
		} else if f := v.Float(); f != f {
			n = canonicalNaN
		}
	}
	return binary.LittleEndian.AppendUint64(append(dst, byte(k)), n)
}

// AppendRowKey appends the key of row r, its values' keys in order, to
// dst and returns the extended slice.
func AppendRowKey(dst []byte, r Row) []byte {
	for _, v := range r {
		dst = AppendKey(dst, v)
	}
	return dst
}

// RowKey returns r's key as a string. Program code appends keys to a
// reused buffer instead (AppendRowKey); RowKey serves callers that keep
// one key per row anyway.
func RowKey(r Row) string { return string(AppendRowKey(nil, r)) }

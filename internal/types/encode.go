package types

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary encoding of values and rows, used by the WAL and snapshot files.
//
// Layout of one value: 1 byte kind tag, then a kind-specific payload.
//   NULL                  (nothing)
//   BOOL   1 byte (0/1)
//   INT    8 bytes big-endian two's complement
//   FLOAT  8 bytes IEEE-754 bits
//   STRING uvarint length + bytes
//   TIME   8 bytes unix nanos (int64)
//   BYTES  uvarint length + bytes

// AppendValue appends the binary encoding of v to dst and returns the
// extended slice.
func AppendValue(dst []byte, v Value) []byte {
	k := v.Kind()
	dst = append(dst, byte(k))
	switch k {
	case KindBool:
		dst = append(dst, byte(v.n))
	case KindInt, KindFloat, KindTime:
		dst = binary.BigEndian.AppendUint64(dst, v.n)
	case KindString, KindBytes:
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		dst = append(dst, v.s...)
	}
	return dst
}

// DecodeValue decodes one value from buf, returning the value and the number
// of bytes consumed. It accepts only the canonical encoding AppendValue
// writes (a BOOL byte of 0 or 1, minimal length varints), so a value it
// accepts re-encodes to exactly the bytes it consumed.
func DecodeValue(buf []byte) (Value, int, error) {
	if len(buf) == 0 {
		return Null, 0, fmt.Errorf("types: empty buffer")
	}
	k := Kind(buf[0])
	rest := buf[1:]
	switch k {
	case KindNull:
		return Null, 1, nil
	case KindBool:
		if len(rest) < 1 {
			return Null, 0, fmt.Errorf("types: short BOOL")
		}
		if rest[0] > 1 {
			return Null, 0, fmt.Errorf("types: BOOL byte %d", rest[0])
		}
		return NewBool(rest[0] == 1), 2, nil
	case KindInt:
		if len(rest) < 8 {
			return Null, 0, fmt.Errorf("types: short INT")
		}
		return NewInt(int64(binary.BigEndian.Uint64(rest))), 9, nil
	case KindFloat:
		if len(rest) < 8 {
			return Null, 0, fmt.Errorf("types: short FLOAT")
		}
		return NewFloat(math.Float64frombits(binary.BigEndian.Uint64(rest))), 9, nil
	case KindString:
		n, w := uvarintLen(rest)
		if w <= 0 || uint64(len(rest)-w) < n {
			return Null, 0, fmt.Errorf("types: short STRING")
		}
		return NewString(string(rest[w : w+int(n)])), 1 + w + int(n), nil
	case KindTime:
		if len(rest) < 8 {
			return Null, 0, fmt.Errorf("types: short TIME")
		}
		return Value{s: tag(KindTime), n: binary.BigEndian.Uint64(rest)}, 9, nil
	case KindBytes:
		n, w := uvarintLen(rest)
		if w <= 0 || uint64(len(rest)-w) < n {
			return Null, 0, fmt.Errorf("types: short BYTES")
		}
		b := make([]byte, n)
		copy(b, rest[w:w+int(n)])
		return NewBytes(b), 1 + w + int(n), nil
	}
	return Null, 0, fmt.Errorf("types: unknown kind tag %d", buf[0])
}

// uvarintLen reads a length prefix as binary.Uvarint does, but reports a
// non-minimal encoding (a last group of zero after the first) as malformed.
func uvarintLen(buf []byte) (uint64, int) {
	n, w := binary.Uvarint(buf)
	if w > 1 && buf[w-1] == 0 {
		return 0, -w
	}
	return n, w
}

// AppendRow appends the encoding of r (uvarint arity, then each value).
func AppendRow(dst []byte, r Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r)))
	for _, v := range r {
		dst = AppendValue(dst, v)
	}
	return dst
}

// DecodeRow decodes a row from buf, returning the row and bytes consumed.
func DecodeRow(buf []byte) (Row, int, error) {
	n, w := binary.Uvarint(buf)
	if w <= 0 {
		return nil, 0, fmt.Errorf("types: short row header")
	}
	off := w
	// Each value costs at least its kind byte; a row claiming more
	// values than remaining bytes is malformed. Checking before the
	// allocation keeps hostile headers from forcing huge make() calls.
	if n > uint64(len(buf)-off) {
		return nil, 0, fmt.Errorf("types: row claims %d values in %d bytes", n, len(buf)-off)
	}
	row := make(Row, 0, n)
	for i := uint64(0); i < n; i++ {
		v, used, err := DecodeValue(buf[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("types: row value %d: %w", i, err)
		}
		row = append(row, v)
		off += used
	}
	return row, off, nil
}

package wire

import (
	"bytes"
	"reflect"
	"testing"

	"ediflow/internal/engine"
	"ediflow/internal/types"
)

// The decoders face the network: arbitrary bytes must produce errors,
// never panics and never allocations sized by unbacked length claims.
// Run with `go test -fuzz FuzzDecodeFrame ./internal/wire`.

// unaliased decodes a copy of data and then overwrites the copy: what
// decode returned must still equal a decode of data itself. A frame's
// buffer goes back to the pool once its payload is decoded, so no
// decoded value may keep a reference into it.
func unaliased(t *testing.T, data []byte, decode func([]byte) (any, error)) {
	t.Helper()
	frame := bytes.Clone(data)
	got, err := decode(frame)
	if err != nil {
		return
	}
	for i := range frame {
		frame[i] = ^frame[i]
	}
	want, err := decode(data)
	if err != nil {
		t.Fatalf("second decode of the same bytes failed: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("a decoded value aliases its frame:\n got  %v\n want %v", got, want)
	}
}

func FuzzDecodeFrame(f *testing.F) {
	var buf bytes.Buffer
	WriteFrame(&buf, FrameExec, EncodeExec(false, "SELECT 1", nil))
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 1, FramePing})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data), 1<<16)
		if err != nil {
			return
		}
		// A structurally valid frame: its payload must also decode
		// without panicking, whatever the type byte says.
		DecodeHello(payload)
		DecodeWelcome(payload)
		DecodeExec(payload)
		DecodeQuery(payload)
		DecodeResult(payload)
		DecodeExecBatch(payload)
		DecodeBatchResult(payload)
		DecodeError(payload)
		DecodeID(payload)
		DecodeNames(payload)
		DecodeString(payload)
		DecodeSubscribeWAL(payload)
		DecodeReplAck(payload)
		DecodeWALBatch(payload)
		DecodeSnapshotChunk(payload)
		_ = typ
	})
}

func FuzzDecodeExec(f *testing.F) {
	f.Add(EncodeExec(true, "INSERT INTO t VALUES (?, ?)",
		[]types.Value{types.NewInt(1), types.NewString("x")}))
	f.Add([]byte{1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		script, sql, args, err := DecodeExec(data)
		if err != nil {
			return
		}
		// Valid decode must re-encode to a decodable payload with the
		// same statement.
		s2, q2, a2, err := DecodeExec(EncodeExec(script, sql, args))
		if err != nil || s2 != script || q2 != sql || len(a2) != len(args) {
			t.Fatalf("re-encode mismatch: %v %v %q", err, s2, q2)
		}
		unaliased(t, data, func(p []byte) (any, error) {
			script, sql, args, err := DecodeExec(p)
			return []any{script, sql, args}, err
		})
	})
}

func FuzzDecodeQuery(f *testing.F) {
	f.Add(AppendQuery(nil, "SELECT s FROM t WHERE id = ? AND b = ?",
		[]types.Value{types.NewInt(1), types.NewBytes([]byte("xy"))}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		unaliased(t, data, func(p []byte) (any, error) {
			sql, args, err := DecodeQuery(p)
			return []any{sql, args}, err
		})
	})
}

func FuzzDecodeBatchResult(f *testing.F) {
	frame := BatchResultFrame([]*engine.Result{
		{Columns: []string{"a", "b"}, Rows: []types.Row{{types.NewString("x"), types.NewBytes([]byte{1, 2})}}},
		{Affected: 1, TIDs: []int64{7}},
	}, "engine: boom")
	f.Add(frame[HeaderLen:])
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		unaliased(t, data, func(p []byte) (any, error) {
			results, msg, err := DecodeBatchResult(p)
			return []any{results, msg}, err
		})
	})
}

func FuzzDecodeResult(f *testing.F) {
	f.Add(EncodeResult(&engine.Result{
		Columns: []string{"a"},
		Rows:    []types.Row{{types.NewFloat(1.5)}},
		TIDs:    []int64{9},
	}))
	f.Add(EncodeResult(&engine.Result{
		Columns: []string{"s", "b"},
		Rows:    []types.Row{{types.NewString("text"), types.NewBytes([]byte("raw"))}},
	}))
	f.Add([]byte{0x80})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecodeResult(data)
		if err != nil {
			return
		}
		if _, err := DecodeResult(EncodeResult(res)); err != nil {
			t.Fatalf("re-encode of valid result failed: %v", err)
		}
		unaliased(t, data, func(p []byte) (any, error) { return DecodeResult(p) })
	})
}

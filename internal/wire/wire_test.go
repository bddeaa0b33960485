package wire

import (
	"bufio"
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"ediflow/internal/engine"
	"ediflow/internal/types"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{1, 2, 3, 4}
	if err := WriteFrame(&buf, FrameExec, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if typ != FrameExec || !bytes.Equal(got, payload) {
		t.Fatalf("got type 0x%02x payload %v", typ, got)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FramePing, nil); err != nil {
		t.Fatal(err)
	}
	// Rewrite the length header to claim 1 GB.
	b := buf.Bytes()
	b[0], b[1], b[2], b[3] = 0x40, 0, 0, 0
	if _, _, err := ReadFrame(bytes.NewReader(b), 0); err == nil {
		t.Fatal("oversized frame must be refused")
	}
	if _, _, err := ReadFrame(bytes.NewReader(b[:3]), 0); err == nil {
		t.Fatal("truncated header must error")
	}
}

func TestHelloWelcomeRoundTrip(t *testing.T) {
	v, name, err := DecodeHello(EncodeHello(Version, "edisql"))
	if err != nil || v != Version || name != "edisql" {
		t.Fatalf("%d %q %v", v, name, err)
	}
	ver, sid, err := DecodeWelcome(EncodeWelcome(Version, 42))
	if err != nil || ver != Version || sid != 42 {
		t.Fatalf("%d %d %v", ver, sid, err)
	}
}

func TestExecQueryRoundTrip(t *testing.T) {
	args := []types.Value{types.NewInt(7), types.NewString("x"), types.Null,
		types.NewFloat(2.5), types.NewBool(true), types.NewTime(time.Unix(3, 500))}
	script, sql, got, err := DecodeExec(EncodeExec(true, "INSERT INTO t VALUES (?)", args))
	if err != nil {
		t.Fatal(err)
	}
	if !script || sql != "INSERT INTO t VALUES (?)" || len(got) != len(args) {
		t.Fatalf("script=%v sql=%q args=%v", script, sql, got)
	}
	for i := range args {
		if !types.Equal(got[i], args[i]) && !(got[i].IsNull() && args[i].IsNull()) {
			t.Fatalf("arg %d: %v != %v", i, got[i], args[i])
		}
	}
	qsql, qargs, err := DecodeQuery(AppendQuery(nil, "SELECT 1", nil))
	if err != nil || qsql != "SELECT 1" || len(qargs) != 0 {
		t.Fatalf("%q %v %v", qsql, qargs, err)
	}
}

func TestResultRoundTrip(t *testing.T) {
	res := &engine.Result{
		Columns:  []string{"id", "name"},
		Rows:     []types.Row{{types.NewInt(1), types.NewString("a")}, {types.NewInt(2), types.Null}},
		Affected: 2,
		TIDs:     []int64{10, -3},
	}
	got, err := DecodeResult(EncodeResult(res))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Columns) != 2 || got.Columns[1] != "name" {
		t.Fatalf("columns %v", got.Columns)
	}
	if len(got.Rows) != 2 || got.Rows[0][0].Int() != 1 || !got.Rows[1][1].IsNull() {
		t.Fatalf("rows %v", got.Rows)
	}
	if got.Affected != 2 || len(got.TIDs) != 2 || got.TIDs[1] != -3 {
		t.Fatalf("affected %d tids %v", got.Affected, got.TIDs)
	}
	// nil encodes as empty.
	empty, err := DecodeResult(EncodeResult(nil))
	if err != nil || len(empty.Rows) != 0 || len(empty.Columns) != 0 {
		t.Fatalf("%+v %v", empty, err)
	}
}

// TestResultLenExact pins resultLen to the encoder: EncodeResult
// allocates its payload once, so a length that drifts from the encoding
// would either regrow the buffer or leave slack behind it.
func TestResultLenExact(t *testing.T) {
	long := strings.Repeat("x", 200) // a two-byte length varint
	res := &engine.Result{
		Columns: []string{"id", long},
		Rows: []types.Row{
			{types.NewInt(-1), types.NewString(long), types.NewBytes([]byte{0, 1}), types.Null},
			{types.NewFloat(2.5), types.NewBool(true), types.NewTime(time.Unix(3, 500)), types.NewString("")},
		},
		Affected: 300,
		TIDs:     []int64{0, -1, 1 << 40},
	}
	for _, r := range []*engine.Result{nil, {}, res} {
		enc := EncodeResult(r)
		if len(enc) != cap(enc) {
			t.Fatalf("%+v: encoded %d bytes into a buffer of %d", r, len(enc), cap(enc))
		}
	}
}

// TestWriteFrameBuffered: into a bufio.Writer, WriteFrame writes the
// header and the payload separately; the bytes are those it writes to
// any other writer in one call.
func TestWriteFrameBuffered(t *testing.T) {
	for _, payload := range [][]byte{nil, {1, 2, 3}, bytes.Repeat([]byte{7}, 10000)} {
		var want, got bytes.Buffer
		if err := WriteFrame(&want, FrameResult, payload); err != nil {
			t.Fatal(err)
		}
		bw := bufio.NewWriter(&got)
		if err := WriteFrame(bw, FrameResult, payload); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("payload of %d bytes: framed differently", len(payload))
		}
	}
	var sink bytes.Buffer
	if err := WriteFrame(bufio.NewWriter(&sink), FrameResult, make([]byte, MaxFrame)); err == nil {
		t.Fatal("oversized frame must be refused")
	}
}

func TestErrorIDNamesRoundTrip(t *testing.T) {
	msg, err := DecodeError(EncodeError("boom"))
	if err != nil || msg != "boom" {
		t.Fatalf("%q %v", msg, err)
	}
	id, err := DecodeID(EncodeID(-77))
	if err != nil || id != -77 {
		t.Fatalf("%d %v", id, err)
	}
	names, err := DecodeNames(EncodeNames([]string{"a", "bb", ""}))
	if err != nil || len(names) != 3 || names[1] != "bb" {
		t.Fatalf("%v %v", names, err)
	}
	s, err := DecodeString(EncodeString("tbl"))
	if err != nil || s != "tbl" {
		t.Fatalf("%q %v", s, err)
	}
}

func TestDecodersRejectTruncation(t *testing.T) {
	full := EncodeResult(&engine.Result{
		Columns: []string{"c"},
		Rows:    []types.Row{{types.NewString(strings.Repeat("x", 100))}},
	})
	for i := 0; i < len(full); i++ {
		if _, err := DecodeResult(full[:i]); err == nil {
			t.Fatalf("truncation at %d not detected", i)
		}
	}
	fullExec := EncodeExec(false, "SELECT 1", []types.Value{types.NewInt(1)})
	for i := 0; i < len(fullExec); i++ {
		if _, _, _, err := DecodeExec(fullExec[:i]); err == nil {
			t.Fatalf("Exec truncation at %d not detected", i)
		}
	}
}

// A hostile count header must not trigger a huge allocation.
func TestDecodersRejectHostileCounts(t *testing.T) {
	// uvarint for 2^62 rows, then nothing.
	hostile := []byte{0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f}
	if _, err := DecodeResult(hostile); err == nil {
		t.Fatal("hostile row count accepted")
	}
	if _, err := DecodeNames(hostile[1:]); err == nil {
		t.Fatal("hostile name count accepted")
	}
}

// TestPooledFramesMatchEncoders: a frame built in a pooled buffer (a
// request appended to NewFrame, ResultFrame, BatchResultFrame) goes out
// as the same bytes WriteFrame sends for the payload encoded on its own,
// whatever a reused buffer held before.
func TestPooledFramesMatchEncoders(t *testing.T) {
	res := &engine.Result{
		Columns: []string{"id", "s"},
		Rows:    []types.Row{{types.NewInt(1), types.NewString(strings.Repeat("y", 300))}, {types.Null, types.NewBytes([]byte{9})}},
		TIDs:    []int64{4, 5},
	}
	args := []types.Value{types.NewInt(3), types.NewString("q")}
	batch := []BatchStmt{{SQL: "INSERT INTO t VALUES (?)", Args: args}, {SQL: "DELETE FROM t"}}
	for round := 0; round < 3; round++ { // later rounds draw buffers the earlier ones released
		for _, c := range []struct {
			typ     byte
			frame   []byte
			payload []byte
		}{
			{FrameQuery, AppendQuery(NewFrame(0), "SELECT ?", args), AppendQuery(nil, "SELECT ?", args)},
			{FrameExec, AppendExec(NewFrame(0), true, "BEGIN; SELECT 1", args), EncodeExec(true, "BEGIN; SELECT 1", args)},
			{FrameExecBatch, AppendExecBatch(NewFrame(0), batch), AppendExecBatch(nil, batch)},
			{FrameHello, AppendHello(NewFrame(0), Version, "t"), EncodeHello(Version, "t")},
			{FrameResult, ResultFrame(res), EncodeResult(res)},
			{FrameResult, ResultFrame(nil), EncodeResult(nil)},
		} {
			var got, want bytes.Buffer
			if err := SendFrame(&got, c.typ, c.frame); err != nil {
				t.Fatal(err)
			}
			if err := WriteFrame(&want, c.typ, c.payload); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("round %d frame 0x%02x: sent %x, want %x", round, c.typ, got.Bytes(), want.Bytes())
			}
			Release(c.frame)
		}
		frame := BatchResultFrame([]*engine.Result{res, nil}, "engine: boom")
		results, msg, err := DecodeBatchResult(frame[HeaderLen:])
		if err != nil || msg != "engine: boom" || len(results) != 2 || !reflect.DeepEqual(results[0], res) || len(results[1].Rows) != 0 {
			t.Fatalf("BatchResultFrame decodes to %v %q %v", results, msg, err)
		}
		Release(frame)
	}
}

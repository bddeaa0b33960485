package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"ediflow/internal/catalog"
	"ediflow/internal/types"
)

// goldenRecords pins the record format: one record per opcode (two for
// create-index) with the bytes the encode* functions of the commit before
// the Record type produced for it, less the insert's creation stamp (the
// tid is the stamp). The same bytes seed FuzzDecodeRecord.
var goldenRecords = []struct {
	rec Record
	hex string
}{
	{Record{Op: OpCreateTable, Table: "Users", Schema: goldenSchema()},
		"01055573657273050269640201046e616d6504060573636f72650300026f6b010404626c6f620600"},
	{Record{Op: OpDropTable, Table: "Users"},
		"02055573657273"},
	{Record{Op: OpInsert, Table: "Users", TIDs: []int64{7}, Rows: []types.Row{{
		types.NewInt(-7), types.NewString("ann"), types.NewFloat(1.5), types.NewBool(true), types.NewBytes([]byte{0, 1, 0xff})}}},
		"0305557365727300000000000000070502fffffffffffffff90403616e6e033ff8000000000000010106030001ff"},
	{Record{Op: OpUpdate, Table: "Users", TIDs: []int64{7}, Rows: []types.Row{{
		types.NewInt(1 << 40), types.NewString(""), types.Null, types.NewBool(false), types.Null}}},
		"04055573657273000000000000000705020000010000000000040000010000"},
	{Record{Op: OpDelete, Table: "Users", TIDs: []int64{1 << 33}},
		"050555736572730000000200000000"},
	{Record{Op: OpCreateIndex, Table: "Users", Index: IndexDef{Name: "by_name", Cols: []string{"name", "id"}, Unique: true}},
		"060762795f6e616d650555736572730102046e616d65026964"},
	{Record{Op: OpCreateIndex, Table: "t", Index: IndexDef{Name: "g", Cols: []string{"g"}}},
		"060167017400010167"},
	{Record{Op: OpPutMeta, Meta: MetaEntry{Kind: "view", Name: "V", Text: "CREATE MATERIALIZED VIEW V AS SELECT 1"}},
		"070476696577015626435245415445204d4154455249414c495a4544205649455720562041532053454c4543542031"},
	{Record{Op: OpDelMeta, Meta: MetaEntry{Kind: "trigger", Name: "trg"}},
		"08077472696767657203747267"},
}

func goldenSchema() *catalog.TableSchema {
	return &catalog.TableSchema{Name: "Users", Columns: []catalog.Column{
		{Name: "id", Type: types.KindInt, PrimaryKey: true},
		{Name: "name", Type: types.KindString, Unique: true, NotNull: true},
		{Name: "score", Type: types.KindFloat},
		{Name: "ok", Type: types.KindBool, NotNull: true},
		{Name: "blob", Type: types.KindBytes},
	}}
}

func TestRecordGoldenBytes(t *testing.T) {
	seen := map[Op]bool{}
	for _, g := range goldenRecords {
		seen[g.rec.Op] = true
		if got := hex.EncodeToString(g.rec.encode(nil)); got != g.hex {
			t.Errorf("op %d encodes to\n %s, want\n %s", g.rec.Op, got, g.hex)
		}
		want, _ := hex.DecodeString(g.hex)
		got, err := decodeRecord(want)
		if err != nil {
			t.Errorf("op %d: decode: %v", g.rec.Op, err)
		} else if !reflect.DeepEqual(got, g.rec) {
			t.Errorf("op %d decodes to %+v, want %+v", g.rec.Op, got, g.rec)
		}
	}
	for op := OpCreateTable; op <= OpDelMeta; op++ {
		if !seen[op] {
			t.Errorf("no golden record for opcode %d", op)
		}
	}
}

// randRecord generates a record of the given op the way a live operation
// builds it: only that op's fields set.
func randRecord(rng *rand.Rand, op Op) Record {
	str := func() string {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return string(b)
	}
	row := func() types.Row {
		r := make(types.Row, rng.Intn(6))
		for i := range r {
			switch rng.Intn(6) {
			case 0:
				r[i] = types.Null
			case 1:
				r[i] = types.NewInt(rng.Int63() - rng.Int63())
			case 2:
				r[i] = types.NewFloat(rng.NormFloat64())
			case 3:
				r[i] = types.NewString(str())
			case 4:
				r[i] = types.NewBool(rng.Intn(2) == 0)
			default:
				r[i] = types.NewBytes([]byte(str() + "x"))
			}
		}
		return r
	}
	rec := Record{Op: op}
	switch op {
	case OpCreateTable:
		rec.Schema = &catalog.TableSchema{Name: str()}
		for n := rng.Intn(5); n > 0; n-- {
			rec.Schema.Columns = append(rec.Schema.Columns, catalog.Column{
				Name: str(), Type: types.Kind(rng.Intn(7)),
				PrimaryKey: rng.Intn(2) == 0, Unique: rng.Intn(2) == 0, NotNull: rng.Intn(2) == 0,
			})
		}
		rec.Table = rec.Schema.Name
	case OpDropTable:
		rec.Table = str()
	case OpInsert, OpUpdate, OpDelete:
		// Sets of one and of more rows: each has its own frame.
		rec.Table = str()
		for n := 1 + rng.Intn(2)*rng.Intn(5); n > 0; n-- {
			rec.TIDs = append(rec.TIDs, rng.Int63())
			if op != OpDelete {
				rec.Rows = append(rec.Rows, row())
			}
		}
	case OpCreateIndex:
		rec.Table, rec.Index.Name, rec.Index.Unique = str(), str(), rng.Intn(2) == 0
		for n := rng.Intn(4); n > 0; n-- {
			rec.Index.Cols = append(rec.Index.Cols, str())
		}
	case OpPutMeta:
		rec.Meta = MetaEntry{Kind: str(), Name: str(), Text: str()}
	case OpDelMeta:
		rec.Meta = MetaEntry{Kind: str(), Name: str()}
	}
	return rec
}

// TestRecordRoundTrip: decodeRecord(encode(r)) == r for generated records
// of every op, and every strict prefix of an encoding is refused (no
// field is optional), never mis-decoded.
func TestRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 4000; i++ {
		rec := randRecord(rng, Op(1+i%8))
		enc := rec.encode(nil)
		got, err := decodeRecord(enc)
		if err != nil {
			t.Fatalf("op %d: %v (record %+v)", rec.Op, err, rec)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("op %d round trip:\n got %+v\nwant %+v", rec.Op, got, rec)
		}
		if again := got.encode(nil); string(again) != string(enc) {
			t.Fatalf("op %d re-encodes differently", rec.Op)
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, err := decodeRecord(enc[:cut]); err == nil {
				t.Fatalf("op %d: %d-byte prefix of a %d-byte record decoded", rec.Op, cut, len(enc))
			}
		}
	}
	if _, err := decodeRecord([]byte{0}); err == nil {
		t.Fatal("opcode 0 decoded")
	}
	if _, err := decodeRecord([]byte{12}); err == nil {
		t.Fatal("opcode 12 decoded")
	}
}

// FuzzDecodeRecord: bytes from disk or the network never panic the
// decoder and never make it allocate more than the payload's length
// implies; whatever decodes re-encodes to something that decodes to the
// same record.
func FuzzDecodeRecord(f *testing.F) {
	for _, g := range goldenRecords {
		b, _ := hex.DecodeString(g.hex)
		f.Add(b)
	}
	// Headers claiming 2^60 columns / values / index columns.
	f.Add([]byte{1, 1, 't', 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10})
	f.Add([]byte{3, 1, 't', 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10})
	f.Add([]byte{6, 1, 'i', 1, 't', 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10})
	// Set frames: of one row, of three, and one whose count claims more
	// rows than its bytes can hold.
	for _, seed := range setFrameSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, err := decodeRecord(payload)
		runtime.ReadMemStats(&after)
		// A decoded record holds the payload's bytes as strings and
		// values; 64 bytes a payload byte (a one-byte value becomes a
		// types.Value) plus slack for the fixed parts and the fuzz
		// worker's own goroutines is generous, and far below what one
		// unchecked count would allocate.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(64*len(payload)+1<<16) {
			t.Fatalf("decoding %d bytes allocated %d", len(payload), grew)
		}
		if err != nil {
			return
		}
		enc := rec.encode(nil)
		again, err := decodeRecord(enc)
		if err != nil {
			t.Fatalf("re-decode of %+v: %v", rec, err)
		}
		if !bytes.Equal(again.encode(nil), enc) {
			t.Fatalf("re-decode differs:\n got %+v\nwant %+v", again, rec)
		}
	})
}

// setFrameSeeds returns set frames: an insert set of one row (a frame
// the encoder never writes, since a set of one keeps its op's single-row
// frame), an insert set of three, and a delete set whose count of 2^20
// rows exceeds the 16 bytes that follow it.
func setFrameSeeds() [][]byte {
	row := types.Row{types.NewInt(1), types.NewString("a"), types.Null}
	one := appendString([]byte{byte(OpInsert + setFrame)}, "t")
	one = appendStoredRow(binary.AppendUvarint(one, 1), 7, row)
	three := (&Record{Op: OpInsert, Table: "t", TIDs: []int64{1, 2, 3},
		Rows: []types.Row{row, {types.NewFloat(2)}, {}}}).encode(nil)
	over := appendString([]byte{byte(OpDelete + setFrame)}, "t")
	over = binary.BigEndian.AppendUint64(binary.AppendUvarint(over, 1<<20), 1)
	over = binary.BigEndian.AppendUint64(over, 2)
	return [][]byte{one, three, over}
}

// TestSetFrames: a set of one is written in its op's single-row frame, a
// larger set in the set frame, and the set frame of one row decodes to
// the record the single-row frame does. A count the bytes cannot hold is
// refused.
func TestSetFrames(t *testing.T) {
	seeds := setFrameSeeds()
	one, err := decodeRecord(seeds[0])
	if err != nil {
		t.Fatal(err)
	}
	if enc := one.encode(nil); enc[0] != byte(OpInsert) || len(enc) != len(seeds[0])-1 {
		t.Fatalf("a set of one encodes as % x, want the single-row frame", enc)
	}
	if legacy, err := decodeRecord(one.encode(nil)); err != nil || !reflect.DeepEqual(legacy, one) {
		t.Fatalf("single-row frame decodes to %+v (%v), set frame of one to %+v", legacy, err, one)
	}
	three, err := decodeRecord(seeds[1])
	if err != nil || len(three.TIDs) != 3 || seeds[1][0] != byte(OpInsert+setFrame) {
		t.Fatalf("set of three: %+v, %v", three, err)
	}
	if _, err := decodeRecord(seeds[2]); err == nil {
		t.Fatal("a set count larger than its bytes decoded")
	}
	for _, op := range []Op{OpInsert, OpUpdate, OpDelete} {
		if _, err := decodeRecord(append(appendString([]byte{byte(op + setFrame)}, "t"), 0)); err == nil {
			t.Fatalf("op %d: an empty set decoded", op)
		}
	}
}

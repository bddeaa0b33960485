package storage

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"ediflow/internal/catalog"
	"ediflow/internal/types"
)

func userSchema() *catalog.TableSchema {
	return &catalog.TableSchema{
		Name: "users",
		Columns: []catalog.Column{
			{Name: "id", Type: types.KindInt, PrimaryKey: true, NotNull: true},
			{Name: "name", Type: types.KindString, NotNull: true},
			{Name: "email", Type: types.KindString, Unique: true},
		},
	}
}

// pkTID looks v up in the table's first index (the primary key when the
// schema has one) as of asOf.
func pkTID(tbl *Table, v types.Value, asOf int64) (int64, bool) {
	_, tids := tbl.Lookup(tbl.Indexes()[0], types.Row{v}, asOf, nil, nil)
	if len(tids) == 0 {
		return 0, false
	}
	return tids[0], true
}

// namedIndex returns the CREATE INDEX index called name, or nil.
func namedIndex(tbl *Table, name string) *IndexInfo {
	for _, ix := range tbl.Indexes() {
		if ix.Origin == OriginNamed && ix.Name == name {
			return ix
		}
	}
	return nil
}

// indexTIDs looks key up in the named index as of asOf; ok=false when
// the table has no such index.
func indexTIDs(tbl *Table, name string, key types.Row, asOf int64) (tids []int64, ok bool) {
	ix := namedIndex(tbl, name)
	if ix == nil {
		return nil, false
	}
	_, tids = tbl.Lookup(ix, key, asOf, nil, nil)
	return tids, true
}

// writeOne writes one row to a table as a set of one (Table.writeRows):
// an insert stores row as tid, an update gives tid the values row, a
// delete removes tid. It returns the values an update or delete replaced.
func writeOne(tbl *Table, op Op, tid int64, row types.Row) (types.Row, error) {
	old := make([]types.Row, 1)
	_, err := tbl.writeRows(op, []int64{tid}, []types.Row{row}, old, false)
	return old[0], err
}

func TestTableInsertGetDelete(t *testing.T) {
	tbl := NewTable(userSchema(), new(atomic.Int64))
	row := types.Row{types.NewInt(1), types.NewString("ana"), types.NewString("a@x")}
	if _, err := writeOne(tbl, OpInsert, 10, row); err != nil {
		t.Fatal(err)
	}
	got, ok := tbl.Get(10)
	if !ok || !types.RowsEqual(got.Values, row) {
		t.Fatalf("Get: %+v ok=%v", got, ok)
	}
	if tid, ok := pkTID(tbl, types.NewInt(1), SeqLatest); !ok || tid != 10 {
		t.Fatalf("pk lookup: %d, %v", tid, ok)
	}
	old, err := writeOne(tbl, OpDelete, 10, nil)
	if err != nil || !types.RowsEqual(old, row) {
		t.Fatalf("Delete: %v, %v", old, err)
	}
	if _, ok := tbl.Get(10); ok {
		t.Fatal("row still present after delete")
	}
	if _, ok := pkTID(tbl, types.NewInt(1), SeqLatest); ok {
		t.Fatal("pk entry still present after delete")
	}
}

func TestTableConstraints(t *testing.T) {
	tbl := NewTable(userSchema(), new(atomic.Int64))
	ok := types.Row{types.NewInt(1), types.NewString("ana"), types.NewString("a@x")}
	if _, err := writeOne(tbl, OpInsert, 1, ok); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		row  types.Row
	}{
		{"dup pk", types.Row{types.NewInt(1), types.NewString("bob"), types.NewString("b@x")}},
		{"dup unique", types.Row{types.NewInt(2), types.NewString("bob"), types.NewString("a@x")}},
		{"null pk", types.Row{types.Null, types.NewString("bob"), types.NewString("c@x")}},
		{"null not-null", types.Row{types.NewInt(3), types.Null, types.NewString("d@x")}},
		{"bad arity", types.Row{types.NewInt(4)}},
	}
	for _, c := range cases {
		if _, err := writeOne(tbl, OpInsert, 99, c.row); err == nil {
			t.Errorf("%s: expected constraint violation", c.name)
			writeOne(tbl, OpDelete, 99, nil)
		}
	}
	// NULL in a UNIQUE column is always allowed (no uniqueness of NULLs).
	if _, err := writeOne(tbl, OpInsert, 5, types.Row{types.NewInt(5), types.NewString("e"), types.Null}); err != nil {
		t.Errorf("null unique: %v", err)
	}
	if _, err := writeOne(tbl, OpInsert, 6, types.Row{types.NewInt(6), types.NewString("f"), types.Null}); err != nil {
		t.Errorf("second null unique: %v", err)
	}
}

func TestTableUpdate(t *testing.T) {
	tbl := NewTable(userSchema(), new(atomic.Int64))
	writeOne(tbl, OpInsert, 1, types.Row{types.NewInt(1), types.NewString("ana"), types.NewString("a@x")})
	writeOne(tbl, OpInsert, 2, types.Row{types.NewInt(2), types.NewString("bob"), types.NewString("b@x")})
	// Moving pk 1 → 3 must update the index.
	old, err := writeOne(tbl, OpUpdate, 1, types.Row{types.NewInt(3), types.NewString("ana"), types.NewString("a@x")})
	if err != nil {
		t.Fatal(err)
	}
	if old[0].Int() != 1 {
		t.Fatalf("old row: %v", old)
	}
	if _, ok := pkTID(tbl, types.NewInt(1), SeqLatest); ok {
		t.Error("stale pk entry")
	}
	if tid, ok := pkTID(tbl, types.NewInt(3), SeqLatest); !ok || tid != 1 {
		t.Error("new pk entry missing")
	}
	// Updating to a conflicting pk must fail and leave state intact.
	if _, err := writeOne(tbl, OpUpdate, 1, types.Row{types.NewInt(2), types.NewString("x"), types.Null}); err == nil {
		t.Error("pk conflict not detected")
	}
	// Self-update (same pk) is fine.
	if _, err := writeOne(tbl, OpUpdate, 1, types.Row{types.NewInt(3), types.NewString("ana2"), types.NewString("a@x")}); err != nil {
		t.Errorf("self update: %v", err)
	}
}

func TestSecondaryIndex(t *testing.T) {
	tbl := NewTable(userSchema(), new(atomic.Int64))
	for i := int64(1); i <= 10; i++ {
		name := "even"
		if i%2 == 1 {
			name = "odd"
		}
		if _, err := writeOne(tbl, OpInsert, i, types.Row{types.NewInt(i), types.NewString(name), types.Null}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.AddIndex("by_name", []string{"name"}, false); err != nil {
		t.Fatal(err)
	}
	tids, ok := indexTIDs(tbl, "by_name", types.Row{types.NewString("odd")}, SeqLatest)
	if !ok || len(tids) != 5 {
		t.Fatalf("odd lookup: %v, %v", tids, ok)
	}
	// Index stays correct across delete and update.
	writeOne(tbl, OpDelete, 1, nil)
	tids, _ = indexTIDs(tbl, "by_name", types.Row{types.NewString("odd")}, SeqLatest)
	if len(tids) != 4 {
		t.Fatalf("after delete: %v", tids)
	}
	writeOne(tbl, OpUpdate, 2, types.Row{types.NewInt(2), types.NewString("odd"), types.Null})
	tids, _ = indexTIDs(tbl, "by_name", types.Row{types.NewString("odd")}, SeqLatest)
	if len(tids) != 5 {
		t.Fatalf("after update: %v", tids)
	}
	if ix := namedIndex(tbl, "by_name"); ix == nil || len(ix.Cols) != 1 || ix.Cols[0] != tbl.Schema.ColIndex("name") {
		t.Errorf("by_name not listed over name: %+v", ix)
	}
	// Unique secondary index over existing duplicate data must fail.
	if err := tbl.AddIndex("uniq_name", []string{"name"}, true); err == nil {
		t.Error("unique index over duplicates must fail")
	}
}

func TestStoreInMemoryBasics(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Durable() {
		t.Error("in-memory store must not be durable")
	}
	if err := s.CreateTable(userSchema()); err != nil {
		t.Fatal(err)
	}
	tids, err := s.InsertRows("users", []types.Row{{types.NewInt(1), types.NewString("ana"), types.Null}}, nil)
	if err != nil || tids[0] == 0 {
		t.Fatalf("insert: %v, %v", tids, err)
	}
	if s.CurrentStamp() != tids[0] {
		t.Errorf("CurrentStamp: %d, want %d", s.CurrentStamp(), tids[0])
	}
	if _, err := s.InsertRows("nope", []types.Row{nil}, nil); err == nil {
		t.Error("insert into missing table must fail")
	}
	if err := s.DropTable("users"); err != nil {
		t.Fatal(err)
	}
	if s.Table("users") != nil {
		t.Error("table present after drop")
	}
}

func TestStoreDurability(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable(userSchema()); err != nil {
		t.Fatal(err)
	}
	var lastTID int64
	for i := int64(1); i <= 50; i++ {
		tids, err := s.InsertRows("users", []types.Row{{types.NewInt(i), types.NewString("u"), types.Null}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		lastTID = tids[0]
	}
	if _, err := s.UpdateRows("users", []int64{lastTID}, []types.Row{{types.NewInt(50), types.NewString("updated"), types.Null}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeleteRows("users", []int64{1}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddIndex("by_name", "users", []string{"name"}, false); err != nil {
		t.Fatal(err)
	}
	if err := s.PutMeta("view", "v1", "CREATE VIEW v1 AS SELECT id FROM users"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Re-open: WAL replay must restore everything.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tbl := s2.Table("users")
	if tbl == nil || tbl.Len() != 49 {
		t.Fatalf("after replay: %v rows", tbl.Len())
	}
	got, ok := tbl.Get(lastTID)
	if !ok || got.Values[1].Str() != "updated" {
		t.Fatalf("updated row lost: %+v, %v", got, ok)
	}
	if _, ok := indexTIDs(tbl, "by_name", types.Row{types.NewString("updated")}, SeqLatest); !ok {
		t.Error("index lost after replay")
	}
	metas := s2.Metas()
	if len(metas) != 1 || metas[0].Name != "v1" {
		t.Fatalf("metas lost: %+v", metas)
	}
	// New tids must not collide with replayed ones.
	tids, err := s2.InsertRows("users", []types.Row{{types.NewInt(1000), types.NewString("new"), types.Null}}, nil)
	if err != nil || tids[0] <= lastTID {
		t.Fatalf("tid reuse after replay: %v vs %d (%v)", tids, lastTID, err)
	}
	s2.Close()
}

func TestStoreCheckpointAndRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.CreateTable(userSchema())
	for i := int64(1); i <= 20; i++ {
		s.InsertRows("users", []types.Row{{types.NewInt(i), types.NewString("u"), types.Null}}, nil)
	}
	s.PutMeta("trigger", "t1", "CREATE TRIGGER t1 AFTER INSERT ON users CALL 'h'")
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// WAL must hold only its epoch header after checkpoint.
	fi, err := os.Stat(filepath.Join(dir, walFile))
	if err != nil || fi.Size() != walHeaderLen {
		t.Fatalf("wal not truncated: %v, %v", fi, err)
	}
	// Post-checkpoint writes land in the new WAL.
	s.InsertRows("users", []types.Row{{types.NewInt(21), types.NewString("after"), types.Null}}, nil)
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Table("users").Len() != 21 {
		t.Fatalf("rows after snapshot+wal: %d", s2.Table("users").Len())
	}
	if len(s2.Metas()) != 1 {
		t.Fatalf("metas: %+v", s2.Metas())
	}
	s2.Close()
}

func TestWALTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	s.CreateTable(userSchema())
	s.InsertRows("users", []types.Row{{types.NewInt(1), types.NewString("a"), types.Null}}, nil)
	s.Close()
	// Append garbage to simulate a torn write.
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0, 0, 0, 99, 1, 2, 3})
	f.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("torn tail must not prevent open: %v", err)
	}
	if s2.Table("users").Len() != 1 {
		t.Fatalf("rows: %d", s2.Table("users").Len())
	}
	s2.Close()
}

func TestDeleteMeta(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	s.PutMeta("view", "a", "x")
	s.PutMeta("view", "b", "y")
	s.DeleteMeta("view", "a")
	m := s.Metas()
	if len(m) != 1 || m[0].Name != "b" {
		t.Fatalf("%+v", m)
	}
	// Upsert replaces text.
	s.PutMeta("view", "b", "z")
	if m := s.Metas(); len(m) != 1 || m[0].Text != "z" {
		t.Fatalf("%+v", m)
	}
}

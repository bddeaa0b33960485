package storage

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"ediflow/internal/catalog"
	"ediflow/internal/types"
)

// tornWALOps is a scripted mutation sequence covering every WAL opcode,
// the set frames of multi-row inserts, updates and deletes included.
// Each entry applies one op to a store; the resulting WAL carries exactly
// one record per entry, in order.
var tornWALOps = []struct {
	name string
	op   func(s *Store) error
}{
	{"create-table", func(s *Store) error { return s.CreateTable(userSchema()) }},
	{"insert-1", func(s *Store) error {
		_, err := s.InsertRows("users", []types.Row{{types.NewInt(1), types.NewString("a"), types.Null}}, nil)
		return err
	}},
	{"insert-2", func(s *Store) error {
		_, err := s.InsertRows("users", []types.Row{{types.NewInt(2), types.NewString("b"), types.Null}}, nil)
		return err
	}},
	{"update", func(s *Store) error {
		tid, _ := pkTID(s.Table("users"), types.NewInt(2), SeqLatest)
		_, err := s.UpdateRows("users", []int64{tid}, []types.Row{{types.NewInt(2), types.NewString("up"), types.Null}}, nil)
		return err
	}},
	{"delete", func(s *Store) error {
		tid, _ := pkTID(s.Table("users"), types.NewInt(1), SeqLatest)
		_, err := s.DeleteRows("users", []int64{tid})
		return err
	}},
	{"insert-set", func(s *Store) error {
		_, err := s.InsertRows("users", []types.Row{
			{types.NewInt(3), types.NewString("c"), types.Null},
			{types.NewInt(4), types.NewString("d"), types.NewFloat(0.5)},
			{types.NewInt(5), types.NewString("e"), types.Null},
		}, nil)
		return err
	}},
	{"update-set", func(s *Store) error {
		t3, _ := pkTID(s.Table("users"), types.NewInt(3), SeqLatest)
		t4, _ := pkTID(s.Table("users"), types.NewInt(4), SeqLatest)
		_, err := s.UpdateRows("users", []int64{t3, t4}, []types.Row{
			{types.NewInt(3), types.NewString("c2"), types.Null},
			{types.NewInt(4), types.NewString("d2"), types.Null},
		}, nil)
		return err
	}},
	{"delete-set", func(s *Store) error {
		t4, _ := pkTID(s.Table("users"), types.NewInt(4), SeqLatest)
		t5, _ := pkTID(s.Table("users"), types.NewInt(5), SeqLatest)
		_, err := s.DeleteRows("users", []int64{t5, t4})
		return err
	}},
	{"create-index", func(s *Store) error { return s.AddIndex("by_name", "users", []string{"name"}, false) }},
	{"put-meta", func(s *Store) error { return s.PutMeta("view", "v1", "CREATE VIEW v1 AS SELECT id FROM users") }},
	{"del-meta", func(s *Store) error { return s.DeleteMeta("view", "v1") }},
	{"create-table-2", func(s *Store) error {
		return s.CreateTable(userSchemaNamed("scratch"))
	}},
	{"drop-table-2", func(s *Store) error { return s.DropTable("scratch") }},
}

func userSchemaNamed(name string) *catalog.TableSchema {
	s := userSchema()
	s.Name = name
	return s
}

// modelAfter builds the expected in-memory state after the first n ops.
func modelAfter(t *testing.T, n int) *Store {
	t.Helper()
	m, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tornWALOps[i].op(m); err != nil {
			t.Fatalf("model op %d (%s): %v", i, tornWALOps[i].name, err)
		}
	}
	return m
}

// sameState compares the logical state of two stores: table set, rows
// (tid, values), and metas.
func sameState(a, b *Store) bool {
	an, bn := a.TableNames(), b.TableNames()
	if len(an) != len(bn) {
		return false
	}
	for i := range an {
		if an[i] != bn[i] {
			return false
		}
		at, bt := a.Table(an[i]), b.Table(bn[i])
		if at.Len() != bt.Len() {
			return false
		}
		arows, brows := at.Rows(), bt.Rows()
		for j := range arows {
			if arows[j].TID != brows[j].TID ||
				!types.RowsEqual(arows[j].Values, brows[j].Values) {
				return false
			}
		}
	}
	am, bm := a.Metas(), b.Metas()
	if len(am) != len(bm) {
		return false
	}
	for i := range am {
		if am[i] != bm[i] {
			return false
		}
	}
	return true
}

// recordBoundaries parses the framing of a WAL image and returns the byte
// offset at the end of each complete record (the first boundary is the
// 16-byte header).
func recordBoundaries(t *testing.T, data []byte) []int {
	t.Helper()
	if len(data) < walHeaderLen || string(data[:8]) != walMagic {
		t.Fatalf("bad WAL image (%d bytes)", len(data))
	}
	bounds := []int{walHeaderLen}
	off := walHeaderLen
	for off+8 <= len(data) {
		n := int(binary.BigEndian.Uint32(data[off : off+4]))
		if off+8+n > len(data) {
			break
		}
		off += 8 + n
		bounds = append(bounds, off)
	}
	if off != len(data) {
		t.Fatalf("trailing %d bytes after last record", len(data)-off)
	}
	return bounds
}

// TestTornTailEveryByteEveryOpcode is the torn-write sweep: a WAL holding
// one record per opcode is truncated at every byte position, and each
// truncation must reopen to exactly the state of the complete-record
// prefix — a torn final record of ANY opcode is discarded, never
// misparsed, and never brings the store down.
func TestTornTailEveryByteEveryOpcode(t *testing.T) {
	base := t.TempDir()
	s, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range tornWALOps {
		if err := op.op(s); err != nil {
			t.Fatalf("op %d (%s): %v", i, op.name, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(base, walFile))
	if err != nil {
		t.Fatal(err)
	}
	bounds := recordBoundaries(t, wal)
	if len(bounds) != len(tornWALOps)+1 {
		t.Fatalf("WAL holds %d records, want %d (one per opcode)", len(bounds)-1, len(tornWALOps))
	}
	t.Logf("torn-tail sweep: %d cut positions over %d records", len(wal)-walHeaderLen, len(bounds)-1)

	models := make([]*Store, len(tornWALOps)+1)
	for n := range models {
		models[n] = modelAfter(t, n)
		defer models[n].Close()
	}

	dir := t.TempDir()
	path := filepath.Join(dir, walFile)
	// complete reports how many whole records fit in a cut-byte prefix.
	complete := func(cut int) int {
		n := 0
		for n+1 < len(bounds) && bounds[n+1] <= cut {
			n++
		}
		return n
	}
	for cut := walHeaderLen; cut < len(wal); cut++ {
		if err := os.WriteFile(path, wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir)
		if err != nil {
			t.Fatalf("cut at byte %d: open failed: %v", cut, err)
		}
		n := complete(cut)
		if !sameState(s2, models[n]) {
			s2.Close()
			t.Fatalf("cut at byte %d (inside record %d, %s): state differs from %d-record prefix",
				cut, n+1, tornWALOps[n].name, n)
		}
		s2.Close()
	}
}

// TestAppendAfterTornTailIsReplayable is the regression test for the
// truncate-before-append fix: records written after a torn tail must be
// visible on the NEXT replay. (Before the fix, the garbage stayed in the
// file, replay stopped at it, and everything appended after it —
// acknowledged commits included — was silently unreachable.)
func TestAppendAfterTornTailIsReplayable(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	s.CreateTable(userSchema())
	s.InsertRows("users", []types.Row{{types.NewInt(1), types.NewString("a"), types.Null}}, nil)
	s.Close()
	// Tear the tail: append half of a fake record.
	path := filepath.Join(dir, walFile)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0, 0, 0, 40, 9, 9, 9, 9, 1, 2, 3})
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("open over torn tail: %v", err)
	}
	if _, err := s2.InsertRows("users", []types.Row{{types.NewInt(2), types.NewString("b"), types.Null}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := s3.Table("users").Len(); got != 2 {
		t.Fatalf("append after torn tail lost: %d rows, want 2", got)
	}
}

package storage

import (
	"os"
	"path/filepath"
	"testing"

	"ediflow/internal/types"
)

func TestCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("corrupt snapshot must fail to open")
	}
}

func TestTruncatedSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	s.CreateTable(userSchema())
	s.InsertRows("users", []types.Row{{types.NewInt(1), types.NewString("a"), types.Null}}, nil)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Truncate the snapshot mid-file.
	path := filepath.Join(dir, snapshotFile)
	data, _ := os.ReadFile(path)
	os.WriteFile(path, data[:len(data)/2], 0o644)
	if _, err := Open(dir); err == nil {
		t.Fatal("truncated snapshot must fail to open")
	}
}

func TestWALCorruptMiddleRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	s.CreateTable(userSchema())
	s.InsertRows("users", []types.Row{{types.NewInt(1), types.NewString("a"), types.Null}}, nil)
	s.InsertRows("users", []types.Row{{types.NewInt(2), types.NewString("b"), types.Null}}, nil)
	s.Close()
	// Flip a byte inside the second half of the WAL: the CRC check must
	// stop replay there, keeping the prefix.
	path := filepath.Join(dir, walFile)
	data, _ := os.ReadFile(path)
	data[len(data)-3] ^= 0xFF
	os.WriteFile(path, data, 0o644)
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("corrupt WAL tail must not fail open: %v", err)
	}
	defer s2.Close()
	if s2.Table("users") == nil || s2.Table("users").Len() == 0 {
		t.Fatal("prefix before corruption lost")
	}
	if s2.Table("users").Len() > 2 {
		t.Fatal("impossible row count")
	}
}

func TestMutationsOnMissingTables(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	if _, err := s.UpdateRows("nope", []int64{1}, []types.Row{nil}, nil); err == nil {
		t.Error("update missing table")
	}
	if _, err := s.DeleteRows("nope", []int64{1}); err == nil {
		t.Error("delete missing table")
	}
	if err := s.AddIndex("i", "nope", []string{"a"}, false); err == nil {
		t.Error("index on missing table")
	}
	if err := s.DropTable("nope"); err == nil {
		t.Error("drop missing table")
	}
	if err := s.InsertRowsAt("nope", []int64{1}, []int64{1}, []types.Row{nil}); err == nil {
		t.Error("insertAt missing table")
	}
	s.CreateTable(userSchema())
	if _, err := s.UpdateRows("users", []int64{99}, []types.Row{{types.NewInt(1), types.NewString("a"), types.Null}}, nil); err == nil {
		t.Error("update missing tid")
	}
	if _, err := s.DeleteRows("users", []int64{99}); err == nil {
		t.Error("delete missing tid")
	}
}

package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
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
	if err := s.InsertRowsAt("nope", []int64{1}, []types.Row{nil}); err == nil {
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

// TestOldFormatsRefused: a log in the EDIWAL1 format (each inserted row
// stored with a creation stamp beside its tid) and a snapshot in the
// EDSNAP2 format (the same, and a second counter in the header) are
// refused by name. Neither is replayed, recreated or rewritten: each is
// left byte for byte as it was.
func TestOldFormatsRefused(t *testing.T) {
	frame := func(dst, payload []byte) []byte {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
		dst = binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
		return append(dst, payload...)
	}
	oldLog := binary.BigEndian.AppendUint64([]byte("EDIWAL1\n"), 0)
	oldLog = frame(oldLog, (&Record{Op: OpCreateTable, Table: "users", Schema: userSchema()}).encode(nil))
	insert := binary.BigEndian.AppendUint64(appendString([]byte{byte(OpInsert)}, "users"), 1)
	insert = binary.BigEndian.AppendUint64(insert, 1) // the creation stamp
	insert = types.AppendRow(insert, types.Row{types.NewInt(1), types.NewString("ana"), types.Null})
	oldLog = frame(oldLog, insert)

	oldSnap := []byte("EDSNAP2\n")
	for _, counter := range []uint64{0, 2, 2} { // epoch, tid, creation stamp
		oldSnap = binary.BigEndian.AppendUint64(oldSnap, counter)
	}
	oldSnap = append(oldSnap, 0, 0, 0) // no metas, index definitions or tables

	for _, c := range []struct {
		file, format string
		data         []byte
	}{
		{walFile, "EDIWAL1", oldLog},
		{snapshotFile, "EDSNAP2", oldSnap},
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, c.file)
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenWith(dir, Options{Sync: SyncCommit})
		if err == nil {
			s.Close()
			t.Errorf("%s: a store in the old format opened", c.format)
		} else if !strings.Contains(err.Error(), c.format) {
			t.Errorf("%s: error does not name the format: %v", c.format, err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, c.data) {
			t.Errorf("%s: file changed (%v):\n got %x\nwant %x", c.format, err, got, c.data)
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 1 {
			t.Errorf("%s: the directory holds %d entries, want the one file", c.format, len(ents))
		}
	}
}

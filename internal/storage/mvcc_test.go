package storage

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"ediflow/internal/catalog"
	"ediflow/internal/types"
)

func mvccStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if err := s.CreateTable(&catalog.TableSchema{
		Name: "kv",
		Columns: []catalog.Column{
			{Name: "k", Type: types.KindInt, PrimaryKey: true},
			{Name: "v", Type: types.KindString},
		},
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

func kvRow(k int64, v string) types.Row {
	return types.Row{types.NewInt(k), types.NewString(v)}
}

// TestMvccVisibilityAsOf pins the core visibility rule: a version is
// visible at seq S iff begin <= S < end, and SeqLatest sees live heads.
func TestMvccVisibilityAsOf(t *testing.T) {
	s := mvccStore(t)
	tbl := s.Table("kv")

	if _, err := s.InsertRows("kv", []types.Row{kvRow(1, "a")}, nil); err != nil {
		t.Fatal(err)
	}
	s.PublishSnapshot()
	afterInsert := s.SnapshotSeq()

	sr := tbl.Rows()[0].TID
	if _, err := s.UpdateRows("kv", []int64{sr}, []types.Row{kvRow(1, "b")}, nil); err != nil {
		t.Fatal(err)
	}
	s.PublishSnapshot()
	afterUpdate := s.SnapshotSeq()

	if _, err := s.DeleteRows("kv", []int64{sr}); err != nil {
		t.Fatal(err)
	}
	s.PublishSnapshot()
	afterDelete := s.SnapshotSeq()

	// As of the insert: "a" visible.
	rows := tbl.RowsAt(afterInsert)
	if len(rows) != 1 || rows[0].Values[1].Str() != "a" {
		t.Fatalf("as of insert: %+v", rows)
	}
	// As of the update: "b" visible.
	rows = tbl.RowsAt(afterUpdate)
	if len(rows) != 1 || rows[0].Values[1].Str() != "b" {
		t.Fatalf("as of update: %+v", rows)
	}
	// As of the delete (R-delta): gone.
	if rows = tbl.RowsAt(afterDelete); len(rows) != 0 {
		t.Fatalf("as of delete: %+v", rows)
	}
	if rows = tbl.RowsAt(SeqLatest); len(rows) != 0 {
		t.Fatalf("latest: %+v", rows)
	}
	// Point reads honor the same rule.
	if got, ok := tbl.GetAt(sr, afterInsert); !ok || got.Values[1].Str() != "a" {
		t.Fatalf("GetAt(insert): %v %v", got, ok)
	}
	if _, ok := tbl.GetAt(sr, afterDelete); ok {
		t.Fatal("GetAt(delete) should miss")
	}
}

// TestMvccReaderBeforeDeleteStillSeesRow is the R-delta contract: a
// snapshot acquired before a DELETE keeps seeing the deleted row for the
// lifetime of the snapshot, and Vacuum will not reclaim the version
// while the snapshot is registered.
func TestMvccReaderBeforeDeleteStillSeesRow(t *testing.T) {
	s := mvccStore(t)
	tbl := s.Table("kv")
	if _, err := s.InsertRows("kv", []types.Row{kvRow(7, "keep")}, nil); err != nil {
		t.Fatal(err)
	}
	s.PublishSnapshot()

	snap := s.AcquireSnapshot()
	defer s.ReleaseSnapshot(snap)

	tid := tbl.Rows()[0].TID
	if _, err := s.DeleteRows("kv", []int64{tid}); err != nil {
		t.Fatal(err)
	}
	s.PublishSnapshot()

	// The registered snapshot pins the vacuum horizon.
	s.Vacuum()
	rows := tbl.RowsAt(snap)
	if len(rows) != 1 || rows[0].Values[1].Str() != "keep" {
		t.Fatalf("pre-delete snapshot lost the row: %+v", rows)
	}
	if got := tbl.RowsAt(SeqLatest); len(got) != 0 {
		t.Fatalf("latest still sees deleted row: %+v", got)
	}
}

// TestMvccVacuumReclaims verifies version-chain reclamation once no
// snapshot can reach the old versions, and that reads below the floor
// fail loudly instead of returning wrong data.
func TestMvccVacuumReclaims(t *testing.T) {
	s := mvccStore(t)
	tbl := s.Table("kv")
	if _, err := s.InsertRows("kv", []types.Row{kvRow(1, "v0")}, nil); err != nil {
		t.Fatal(err)
	}
	tid := tbl.Rows()[0].TID
	for i := 0; i < 9; i++ {
		if _, err := s.UpdateRows("kv", []int64{tid}, []types.Row{kvRow(1, "v")}, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.PublishSnapshot()
	if n := tbl.VersionCount(); n != 10 {
		t.Fatalf("versions before vacuum: %d", n)
	}
	reclaimed := s.Vacuum()
	if reclaimed != 9 {
		t.Fatalf("reclaimed: %d (want 9)", reclaimed)
	}
	if n := tbl.VersionCount(); n != 1 {
		t.Fatalf("versions after vacuum: %d", n)
	}
	// Deleted rows vanish entirely once unprotected.
	if _, err := s.DeleteRows("kv", []int64{tid}); err != nil {
		t.Fatal(err)
	}
	s.PublishSnapshot()
	if got := s.Vacuum(); got != 1 {
		t.Fatalf("reclaimed after delete: %d", got)
	}
	if n := tbl.VersionCount(); n != 0 {
		t.Fatalf("versions after delete vacuum: %d", n)
	}

	// A snapshot below the floor is refused.
	if _, err := s.AcquireSnapshotAt(s.VacuumFloor() - 1); !errors.Is(err, ErrSnapshotTooOld) {
		t.Fatalf("want ErrSnapshotTooOld, got %v", err)
	}
	// At or above the floor (clamped to visible) is fine.
	if _, err := s.AcquireSnapshotAt(s.SnapshotSeq() + 1000); err != nil {
		t.Fatalf("clamped acquire: %v", err)
	}
}

// TestMvccIndexLookupsExact: index candidate lists are conservative
// (stale entries linger until vacuum), so the At-variants must filter by
// the visible version's value. A stale index entry must never surface a
// row whose current value no longer matches the key.
func TestMvccIndexLookupsExact(t *testing.T) {
	s := mvccStore(t)
	if err := s.AddIndex("kv_v", "kv", []string{"v"}, false); err != nil {
		t.Fatal(err)
	}
	tbl := s.Table("kv")
	if _, err := s.InsertRows("kv", []types.Row{kvRow(1, "red")}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InsertRows("kv", []types.Row{kvRow(2, "red")}, nil); err != nil {
		t.Fatal(err)
	}
	tid1 := tbl.Rows()[0].TID
	if _, err := s.UpdateRows("kv", []int64{tid1}, []types.Row{kvRow(1, "blue")}, nil); err != nil {
		t.Fatal(err)
	}
	s.PublishSnapshot()
	now := s.SnapshotSeq()

	tids, ok := indexTIDs(tbl, "kv_v", types.Row{types.NewString("red")}, now)
	if !ok || len(tids) != 1 {
		t.Fatalf("red candidates at latest: %v ok=%v", tids, ok)
	}
	if got, _ := tbl.GetAt(tids[0], now); got.Values[0].Int() != 2 {
		t.Fatalf("red matched wrong row: %+v", got)
	}
	tids, ok = indexTIDs(tbl, "kv_v", types.Row{types.NewString("blue")}, now)
	if !ok || len(tids) != 1 {
		t.Fatalf("blue candidates: %v ok=%v", tids, ok)
	}
	// PK lookups filter the same way.
	if _, found := pkTID(tbl, types.NewInt(1), now); !found {
		t.Fatal("pk 1 should resolve at latest")
	}
	if _, err := s.DeleteRows("kv", []int64{tid1}); err != nil {
		t.Fatal(err)
	}
	s.PublishSnapshot()
	if _, found := pkTID(tbl, types.NewInt(1), s.SnapshotSeq()); found {
		t.Fatal("pk 1 resolved after delete")
	}
	// ...but still resolves at the pre-delete seq.
	if _, found := pkTID(tbl, types.NewInt(1), now); !found {
		t.Fatal("pk 1 lost at historical seq")
	}
}

// TestMvccSnapshotEncodingVacuumIndependent: the replication/persistence
// snapshot encoding must not depend on whether (or when) vacuum ran —
// replicas vacuum on their own schedule and must stay byte-identical.
func TestMvccSnapshotEncodingVacuumIndependent(t *testing.T) {
	build := func(vacuumEarly bool) []byte {
		s, err := Open("")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.CreateTable(&catalog.TableSchema{
			Name: "kv",
			Columns: []catalog.Column{
				{Name: "k", Type: types.KindInt, PrimaryKey: true},
				{Name: "v", Type: types.KindString},
			},
		}); err != nil {
			t.Fatal(err)
		}
		tbl := s.Table("kv")
		for i := int64(1); i <= 5; i++ {
			if _, err := s.InsertRows("kv", []types.Row{kvRow(i, "x")}, nil); err != nil {
				t.Fatal(err)
			}
		}
		tids := make([]int64, 0, 5)
		for _, r := range tbl.Rows() {
			tids = append(tids, r.TID)
		}
		if _, err := s.DeleteRows("kv", []int64{tids[1]}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.UpdateRows("kv", []int64{tids[3]}, []types.Row{kvRow(4, "y")}, nil); err != nil {
			t.Fatal(err)
		}
		s.PublishSnapshot()
		if vacuumEarly {
			s.Vacuum()
		}
		// Reinsert key 2 after its delete: slot order must be the order of
		// last insertion whether or not the dead slot was vacuumed away.
		if _, err := s.InsertRows("kv", []types.Row{kvRow(2, "z")}, nil); err != nil {
			t.Fatal(err)
		}
		s.PublishSnapshot()
		if !vacuumEarly {
			s.Vacuum()
		}
		data, err := s.EncodeReplSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := build(true), build(false)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshot encoding depends on vacuum timing:\n%x\n%x", a, b)
	}
}

// TestMvccIterateStableUnderConcurrentWrites hammers a table with
// writers while snapshot iterators run lock-free; with -race this is
// the aliasing/atomicity drill for the version-chain machinery.
func TestMvccIterateStableUnderConcurrentWrites(t *testing.T) {
	s := mvccStore(t)
	tbl := s.Table("kv")
	const n = 50
	for i := int64(0); i < n; i++ {
		if _, err := s.InsertRows("kv", []types.Row{kvRow(i, "a")}, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.PublishSnapshot()
	tids := make([]int64, 0, n)
	for _, r := range tbl.Rows() {
		tids = append(tids, r.TID)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: update/delete/reinsert churn
		defer wg.Done()
		k := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			tid := tids[k%n]
			if k%3 == 2 {
				if _, err := s.DeleteRows("kv", []int64{tid}); err == nil {
					if ntids, err := s.InsertRows("kv", []types.Row{kvRow(int64(k%n), "r")}, nil); err == nil {
						tids[k%n] = ntids[0]
					}
				}
			} else {
				s.UpdateRows("kv", []int64{tid}, []types.Row{kvRow(int64(k%n), "u")}, nil)
			}
			s.PublishSnapshot()
			if k%64 == 0 {
				s.Vacuum()
			}
			k++
		}
	}()

	for r := 0; r < 200; r++ {
		snap := s.AcquireSnapshot()
		seen := map[int64]bool{}
		it := tbl.Iterate(snap)
		for {
			sr, ok := it.Next()
			if !ok {
				break
			}
			if seen[sr.TID] {
				t.Errorf("tid %d seen twice in one snapshot scan", sr.TID)
			}
			seen[sr.TID] = true
		}
		// Each snapshot is a full, stable state: exactly n live keys at
		// every published boundary (delete+reinsert happens across two
		// seqs, so allow n-1 when the snapshot lands between them).
		if len(seen) != n && len(seen) != n-1 {
			t.Errorf("snapshot saw %d rows (want %d or %d)", len(seen), n-1, n)
		}
		s.ReleaseSnapshot(snap)
	}
	close(stop)
	wg.Wait()
}

// TestMvccReplayByteIdentical: versioned tables must recover from WAL
// replay byte-identically — same rows in the same slot order, same
// canonical snapshot encoding — whether or not vacuum ran before the
// shutdown.
func TestMvccReplayByteIdentical(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable(&catalog.TableSchema{
		Name: "kv",
		Columns: []catalog.Column{
			{Name: "k", Type: types.KindInt, PrimaryKey: true},
			{Name: "v", Type: types.KindString},
		},
	}); err != nil {
		t.Fatal(err)
	}
	tbl := s.Table("kv")
	tids := make([]int64, 6)
	for i := int64(0); i < 6; i++ {
		ts, err := s.InsertRows("kv", []types.Row{kvRow(i, "a")}, nil)
		if err != nil {
			t.Fatal(err)
		}
		tids[i] = ts[0]
	}
	if _, err := s.UpdateRows("kv", []int64{tids[2]}, []types.Row{kvRow(2, "b")}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeleteRows("kv", []int64{tids[4]}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InsertRows("kv", []types.Row{kvRow(4, "re")}, nil); err != nil {
		t.Fatal(err)
	}
	s.PublishSnapshot()
	s.Vacuum() // reclaim superseded versions; must not affect recovery

	rowsBefore := tbl.Rows() // slot order matters
	encBefore, err := s.EncodeReplSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rowsAfter := s2.Table("kv").Rows()
	if !reflect.DeepEqual(rowsBefore, rowsAfter) {
		t.Fatalf("replayed rows differ:\n%+v\n%+v", rowsBefore, rowsAfter)
	}
	encAfter, err := s2.EncodeReplSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(encBefore, encAfter) {
		t.Fatal("canonical snapshot encoding changed across replay")
	}
}

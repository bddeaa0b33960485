package storage

import (
	"sync/atomic"
	"testing"

	"ediflow/internal/catalog"
	"ediflow/internal/types"
)

// TestLookupAllocCeiling: a primary-key probe builds its key on the stack
// and finds its one candidate inline, so a Lookup into a caller's buffer
// allocates nothing — by INT, by an integral FLOAT (the same key), and by
// a short STRING.
func TestLookupAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceiling is meaningless under the race detector")
	}
	tbl := NewTable(userSchema(), new(atomic.Int64))
	for i := int64(0); i < 1000; i++ {
		row := types.Row{types.NewInt(i), types.NewString("u"), types.NewString("user-" + types.NewInt(i).String())}
		if _, err := writeOne(tbl, OpInsert, i+1, row); err != nil {
			t.Fatal(err)
		}
	}
	pk, email := tbl.Indexes()[0], tbl.Indexes()[1]
	rows, tids := make([]types.Row, 0, 4), make([]int64, 0, 4)
	for _, c := range []struct {
		name string
		ix   *IndexInfo
		key  types.Value
	}{
		{"INT", pk, types.NewInt(417)},
		{"integral FLOAT", pk, types.NewFloat(417)},
		{"STRING", email, types.NewString("user-417")},
	} {
		key := types.Row{c.key}
		allocs := testing.AllocsPerRun(100, func() {
			rows, tids = tbl.Lookup(c.ix, key, SeqLatest, rows[:0], tids[:0])
		})
		if len(rows) != 1 || len(tids) != 1 || tids[0] != 418 {
			t.Fatalf("%s: Lookup(%v) = %v %v, want tid 418", c.name, c.key, tids, rows)
		}
		if allocs != 0 {
			t.Errorf("%s: Lookup allocates %.1f times per probe, want 0", c.name, allocs)
		}
	}
}

// BenchmarkVacuumRebuild times the index rebuild at each Vacuum over a
// table shaped like the mixed workload's items: 50,000 rows, a primary
// key and a non-unique index over 50 groups, so each group's candidate
// list holds 1,000 tids.
func BenchmarkVacuumRebuild(b *testing.B) {
	tbl := NewTable(&catalog.TableSchema{Name: "items", Columns: []catalog.Column{
		{Name: "id", Type: types.KindInt, PrimaryKey: true, NotNull: true},
		{Name: "grp", Type: types.KindInt},
		{Name: "v", Type: types.KindInt},
	}}, new(atomic.Int64))
	for i := int64(0); i < 50000; i++ {
		if _, err := writeOne(tbl, OpInsert, i+1, types.Row{types.NewInt(i), types.NewInt(i % 50), types.NewInt(i)}); err != nil {
			b.Fatal(err)
		}
	}
	if err := tbl.AddIndex("items_grp", []string{"grp"}, false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Vacuum(0)
	}
}

package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ediflow/internal/catalog"
	"ediflow/internal/types"
)

// runHistory drives one seeded DDL+DML history against s: three tables,
// named / unique / composite indexes created in an order that is neither
// table nor rank order and partly over existing rows, view and trigger
// metas (put, replace, delete), a dropped table, and inserts, updates,
// deletes and same-tid re-inserts. Operations the store refuses (a
// duplicate key, a unique index over duplicate data) are part of the
// history: they must leave nothing behind on any route. checkpointAt < 0
// means never.
func runHistory(t *testing.T, s *Store, seed int64, checkpointAt int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.CreateTable(&catalog.TableSchema{Name: "a", Columns: []catalog.Column{
		{Name: "id", Type: types.KindInt, PrimaryKey: true},
		{Name: "g", Type: types.KindInt},
		{Name: "s", Type: types.KindString},
	}}))
	must(s.CreateTable(&catalog.TableSchema{Name: "B", Columns: []catalog.Column{
		{Name: "k", Type: types.KindInt},
		{Name: "v", Type: types.KindString, Unique: true},
	}}))
	must(s.CreateTable(&catalog.TableSchema{Name: "tmp", Columns: []catalog.Column{
		{Name: "x", Type: types.KindInt},
	}}))
	must(s.AddIndex("tmp_x", "tmp", []string{"x"}, false))
	must(s.AddIndex("b_kv", "B", []string{"k", "v"}, false))
	must(s.PutMeta("view", "v1", "CREATE MATERIALIZED VIEW v1 AS SELECT g FROM a"))
	must(s.PutMeta("trigger", "trg", "CREATE TRIGGER trg AFTER INSERT ON a CALL 'h'"))
	live := map[string][]int64{}
	nextID := int64(0)
	row := func(table string) types.Row {
		switch table {
		case "a":
			nextID++
			id := nextID
			if rng.Intn(10) == 0 {
				id = 1 + rng.Int63n(nextID) // likely a duplicate key
			}
			return types.Row{types.NewInt(id), types.NewInt(rng.Int63n(5)), types.NewString(fmt.Sprintf("s%d", rng.Intn(20)))}
		case "B":
			return types.Row{types.NewInt(rng.Int63n(8)), types.NewString(fmt.Sprintf("v%d", rng.Intn(300)))}
		}
		return types.Row{types.NewInt(rng.Int63n(100))}
	}
	for op := 0; op < 400; op++ {
		table := []string{"a", "B", "tmp"}[rng.Intn(3)]
		if op >= 250 && table == "tmp" {
			table = "a"
		}
		tids := live[table]
		switch k := rng.Intn(10); {
		case len(tids) < 3 || k < 4:
			if ts, err := s.InsertRows(table, []types.Row{row(table)}, nil); err == nil {
				live[table] = append(tids, ts...)
			}
		case k < 7:
			s.UpdateRows(table, []int64{tids[rng.Intn(len(tids))]}, []types.Row{row(table)}, nil) // may violate a key
		case k < 9:
			i := rng.Intn(len(tids))
			if _, err := s.DeleteRows(table, []int64{tids[i]}); err != nil {
				t.Fatal(err)
			}
			live[table] = append(tids[:i:i], tids[i+1:]...)
		default: // delete and re-insert under the same tid, as undo does
			r, _ := s.Table(table).Get(tids[0])
			if _, err := s.DeleteRows(table, []int64{r.TID}); err != nil {
				t.Fatal(err)
			}
			must(s.InsertRowsAt(table, []int64{r.TID}, []types.Row{r.Values}))
		}
		switch op {
		case 100:
			must(s.AddIndex("a_s", "a", []string{"s"}, false))
			must(s.PutMeta("view", "V1", "CREATE MATERIALIZED VIEW v1 AS SELECT g, s FROM a")) // replaces v1
		case 150:
			// s has 20 values: by now it repeats, the unique build fails and
			// must leave no index and no record.
			if err := s.AddIndex("a_us", "a", []string{"s"}, true); err == nil {
				t.Fatal("unique index over duplicate data was built")
			}
			must(s.AddIndex("a_g", "a", []string{"g"}, false))
			must(s.PutMeta("view", "v2", "CREATE MATERIALIZED VIEW v2 AS SELECT k FROM B"))
		case 250:
			must(s.DropTable("tmp"))
			must(s.DeleteMeta("trigger", "TRG"))
			must(s.AddIndex("tmp_x", "B", []string{"k"}, false)) // the name is free again
		}
		if op == checkpointAt {
			must(s.Checkpoint())
		}
	}
}

// TestFiveRoutesConverge: one history reached five ways — live, by WAL
// replay, by checkpoint + reopen (snapshot file plus WAL tail), by
// shipping its records through ApplyReplRecord and by EncodeReplSnapshot
// → ResetFromSnapshot — is one state, byte for byte.
func TestFiveRoutesConverge(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			encode := func(s *Store) []byte {
				t.Helper()
				b, err := s.EncodeReplSnapshot()
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			open := func(dir string) *Store {
				t.Helper()
				s, err := Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Close() })
				return s
			}
			dirA, dirB := t.TempDir(), t.TempDir()
			a := open(dirA)
			a.EnableReplFeed(0)
			runHistory(t, a, seed, -1)
			want := encode(a)
			if len(a.Table("a").Indexes()) != 3 || a.Table("tmp") != nil || len(a.Metas()) != 2 {
				t.Fatalf("history did not run as designed: %d indexes on a, metas %v", len(a.Table("a").Indexes()), a.Metas())
			}
			check := func(route string, s *Store) {
				t.Helper()
				if got := encode(s); !bytes.Equal(got, want) {
					t.Errorf("%s: state differs from live (%d vs %d bytes)", route, len(got), len(want))
				}
			}

			shipped := open("")
			recs, _, _, err := a.ReplFetch(0, 1<<30)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range recs {
				if _, err := shipped.ApplyReplRecord(p); err != nil {
					t.Fatal(err)
				}
			}
			check("shipped records", shipped)

			reset := open("")
			if err := reset.CreateTable(&catalog.TableSchema{Name: "old", Columns: []catalog.Column{{Name: "x", Type: types.KindInt}}}); err != nil {
				t.Fatal(err)
			}
			if err := reset.ResetFromSnapshot(want); err != nil {
				t.Fatal(err)
			}
			check("snapshot reset", reset)

			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			check("WAL replay", open(dirA))

			b := open(dirB)
			runHistory(t, b, seed, 200)
			check("live, checkpointed mid-way", b)
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			b = open(dirB)
			check("checkpoint + WAL tail", b)
			if err := b.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			check("checkpoint alone", open(dirB))
		})
	}
}

// TestStoreIndexRules: index names are unique store-wide and
// case-insensitively, a refused or failed create leaves nothing behind,
// and a dropped table frees its names. (Moved here from the catalog,
// which no longer lists indexes.)
func TestStoreIndexRules(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.EnableReplFeed(0)
	if err := s.CreateTable(userSchema()); err != nil {
		t.Fatal(err)
	}
	other := userSchema()
	other.Name = "other"
	if err := s.CreateTable(other); err != nil {
		t.Fatal(err)
	}
	if err := s.AddIndex("i1", "users", []string{"name"}, false); err != nil {
		t.Fatal(err)
	}
	head := s.ReplHead()
	for what, err := range map[string]error{
		"duplicate name":             s.AddIndex("i1", "users", []string{"email"}, false),
		"duplicate on another table": s.AddIndex("I1", "other", []string{"name"}, false),
		"unknown table":              s.AddIndex("i2", "nope", []string{"x"}, false),
		"unknown column":             s.AddIndex("i3", "users", []string{"nope"}, false),
	} {
		if err == nil {
			t.Errorf("%s: accepted", what)
		}
	}
	for _, r := range []types.Row{
		{types.NewInt(1), types.NewString("dup"), types.Null},
		{types.NewInt(2), types.NewString("dup"), types.Null},
	} {
		if _, err := s.InsertRows("other", []types.Row{r}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddIndex("u", "other", []string{"name"}, true); err == nil {
		t.Error("unique index over duplicate data: accepted")
	}
	if n := len(s.Table("other").Indexes()); n != 2 { // pk + column UNIQUE
		t.Errorf("failed creates left %d indexes on other", n)
	}
	if s.ReplHead() != head+2 {
		t.Errorf("failed creates were logged: feed head %d, want %d", s.ReplHead(), head+2)
	}
	if _, err := s.UpdateRows("other", []int64{2}, []types.Row{{types.NewInt(2), types.NewString("fixed"), types.Null}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AddIndex("u", "other", []string{"name"}, true); err != nil {
		t.Errorf("retry on repaired data: %v", err)
	}
	if err := s.DropTable("users"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddIndex("i1", "other", []string{"email"}, false); err != nil {
		t.Errorf("name of a dropped table's index is not free: %v", err)
	}
}

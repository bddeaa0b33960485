package storage

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"ediflow/internal/catalog"
	"ediflow/internal/types"
)

// TestLookupMatchesFilteredScan is the index model test: a seeded stream
// of inserts, key-changing updates, deletes, same-tid reinserts (the
// rollback path), late CREATE INDEXes and Vacuums at random floors runs
// against one table while snapshots stay pinned, and for every index,
// every key and every retained snapshot Lookup must return exactly the
// rows a filtered scan of View(asOf) finds.
func TestLookupMatchesFilteredScan(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { lookupModel(t, seed) })
	}
}

func lookupModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var clock atomic.Int64
	tbl := NewTable(&catalog.TableSchema{Name: "m", Columns: []catalog.Column{
		{Name: "id", Type: types.KindInt, PrimaryKey: true, NotNull: true},
		{Name: "u", Type: types.KindString, Unique: true},
		{Name: "g", Type: types.KindInt},
		{Name: "a", Type: types.KindInt},
		{Name: "b", Type: types.KindString},
		{Name: "w", Type: types.KindString},
	}}, &clock)
	maybeNull := func(v types.Value) types.Value {
		if rng.Intn(5) == 0 {
			return types.Null
		}
		return v
	}
	randRow := func() types.Row {
		return types.Row{
			types.NewInt(int64(rng.Intn(16))),
			maybeNull(types.NewString(fmt.Sprint("u", rng.Intn(10)))),
			maybeNull(types.NewInt(int64(rng.Intn(4)))),
			maybeNull(types.NewInt(int64(rng.Intn(3)))),
			maybeNull(types.NewString(fmt.Sprint("b", rng.Intn(2)))),
			maybeNull(types.NewString(fmt.Sprint("w", rng.Intn(10)))),
		}
	}

	var live, dead []int64 // tids by state of their newest version
	nextTID := int64(1)
	var pinned []int64 // snapshot seqs some reader still holds, ascending
	take := func(list *[]int64) int64 {
		i := rng.Intn(len(*list))
		tid := (*list)[i]
		*list = append((*list)[:i], (*list)[i+1:]...)
		return tid
	}
	if err := tbl.AddIndex("uw", []string{"w"}, true); err != nil {
		t.Fatal(err)
	}
	late := [][]string{{"g"}, {"a", "b"}, {"b", "a"}} // backfilled over retained versions

	for step := 0; step < 600; step++ {
		switch r := rng.Intn(20); {
		case r < 7:
			if _, err := writeOne(tbl, OpInsert, nextTID, randRow()); err == nil {
				live = append(live, nextTID)
			}
			nextTID++
		case r < 12 && len(live) > 0:
			tid := live[rng.Intn(len(live))]
			writeOne(tbl, OpUpdate, tid, randRow()) // a constraint violation leaves the row as it was
		case r < 15 && len(live) > 0:
			tid := take(&live)
			if _, err := writeOne(tbl, OpDelete, tid, nil); err != nil {
				t.Fatal(err)
			}
			dead = append(dead, tid)
		case r < 17 && len(dead) > 0:
			// Rollback of a delete re-inserts under the old tid; after a
			// vacuum took the slot the same call starts a fresh chain.
			tid := take(&dead)
			if _, err := writeOne(tbl, OpInsert, tid, randRow()); err == nil {
				live = append(live, tid)
			} else {
				dead = append(dead, tid)
			}
		case r < 18:
			pinned = append(pinned, clock.Load())
		case r < 19:
			floor := clock.Load()
			if len(pinned) > 0 && rng.Intn(3) > 0 {
				floor = pinned[rng.Intn(len(pinned))]
			}
			tbl.Vacuum(floor)
			for len(pinned) > 0 && pinned[0] < floor {
				pinned = pinned[1:]
			}
		case len(late) > 0 && step > 100:
			cols := late[0]
			late = late[1:]
			if err := tbl.AddIndex("ix_"+cols[0], cols, false); err != nil {
				t.Fatal(err)
			}
		}
		if step%20 == 0 || step == 599 {
			for _, asOf := range append([]int64{SeqLatest}, pinned...) {
				checkLookups(t, tbl, asOf, step)
			}
		}
	}
	if len(tbl.Indexes()) != 6 {
		t.Fatalf("%d indexes were exercised, want 6", len(tbl.Indexes()))
	}
}

// checkLookups compares, for every index, Lookup against a filtered scan
// of the snapshot for each key the snapshot holds plus keys it does not.
func checkLookups(t *testing.T, tbl *Table, asOf int64, step int) {
	t.Helper()
	view := tbl.View(asOf)
	var rows []StoredRow
	for it := view.IterateRange(0, view.Slots()); ; {
		r, ok := it.Next()
		if !ok {
			break
		}
		rows = append(rows, r)
	}
	for _, ix := range tbl.Indexes() {
		project := func(r types.Row) types.Row {
			key := make(types.Row, len(ix.Cols))
			for i, c := range ix.Cols {
				key[i] = r[c]
			}
			return key
		}
		keys := []types.Row{project(types.Row{types.NewInt(99), types.NewString("zz"), types.NewInt(99), types.NewInt(99), types.NewString("zz"), types.NewString("zz")})}
		for _, r := range rows {
			keys = append(keys, project(r.Values)) // NULL-holding keys included: they must find nothing
		}
		for _, key := range keys {
			var want []string
			for _, r := range rows {
				match := true
				for i, c := range ix.Cols {
					match = match && !key[i].IsNull() && types.Equal(r.Values[c], key[i])
				}
				if match {
					want = append(want, fmt.Sprint(r.TID, r.Values))
				}
			}
			var got []string
			rows, tids := tbl.Lookup(ix, key, asOf, nil, nil)
			for i, tid := range tids {
				got = append(got, fmt.Sprint(tid, rows[i]))
			}
			sort.Strings(want)
			sort.Strings(got)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d asOf %d index %q%v key %v:\n  Lookup: %v\n  scan:   %v", step, asOf, ix.Name, ix.Cols, key, got, want)
			}
			if ix.Unique && len(got) > 1 {
				t.Fatalf("step %d asOf %d: unique index %q%v holds %d rows under %v", step, asOf, ix.Name, ix.Cols, len(got), key)
			}
		}
	}
}

package isolation

import (
	"fmt"
	"slices"
	"testing"

	"ediflow/internal/database"
	"ediflow/internal/engine"
	"ediflow/internal/sqltext"
	"ediflow/internal/types"
)

func setup(t *testing.T) (*database.DB, *Manager) {
	t.Helper()
	db := database.MustOpenMemory()
	t.Cleanup(func() { db.Close() })
	m := New(db)
	if _, err := db.Exec("CREATE TABLE r (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		db.Exec("INSERT INTO r (id, v) VALUES (?, ?)", types.NewInt(int64(i)), types.NewInt(int64(i*10)))
	}
	if err := m.EnsureDeletionTable("r"); err != nil {
		t.Fatal(err)
	}
	return db, m
}

// registerInstance records a process instance row so GC's wait-set logic
// can see it.
func registerInstance(t *testing.T, db *database.DB, id int64, status string) {
	t.Helper()
	start := db.Store().CurrentStamp()
	_, err := db.Exec("INSERT INTO "+database.TableProcessInstance+
		" (id, process, status, start_ts, end_ts, snapshot) VALUES (?, 'p', ?, ?, NULL, ?)",
		types.NewInt(id), types.NewString(status), types.NewInt(start), types.NewInt(start))
	if err != nil {
		t.Fatal(err)
	}
}

func finishInstance(t *testing.T, db *database.DB, id int64) {
	t.Helper()
	db.Exec("UPDATE "+database.TableProcessInstance+" SET status = 'completed', end_ts = ? WHERE id = ?",
		types.NewInt(db.Store().CurrentStamp()), types.NewInt(id))
}

// logicalDelete parses a DELETE and records it in R∆ for pid.
func logicalDelete(t *testing.T, m *Manager, pid int64, del string) int {
	t.Helper()
	st, err := sqltext.Parse(del)
	if err != nil {
		t.Fatal(err)
	}
	n, err := m.LogicalDelete(st.(*sqltext.Delete), pid)
	if err != nil {
		t.Fatalf("LogicalDelete(%q): %v", del, err)
	}
	return n
}

func rewriteCount(t *testing.T, db *database.DB, m *Manager, query string, pid, snapshot int64) int64 {
	t.Helper()
	st, err := sqltext.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	m.Restrict(st, pid, snapshot, map[string]bool{"r": true})
	res, err := db.ExecStmt(st)
	if err != nil {
		t.Fatalf("rewritten query %q: %v", st.String(), err)
	}
	v, err := res.Rows[0][0].AsInt()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestSnapshotVisibility(t *testing.T) {
	db, m := setup(t)
	snap := db.Store().CurrentStamp()
	db.Exec("INSERT INTO r (id, v) VALUES (6, 60)") // after the snapshot
	got := rewriteCount(t, db, m, "SELECT COUNT(*) FROM r", 1, snap)
	if got != 5 {
		t.Fatalf("snapshot query saw %d rows, want 5", got)
	}
	// A later snapshot sees everything.
	got = rewriteCount(t, db, m, "SELECT COUNT(*) FROM r", 1, db.Store().CurrentStamp())
	if got != 6 {
		t.Fatalf("fresh snapshot saw %d rows, want 6", got)
	}
}

func TestLogicalDeleteVisibility(t *testing.T) {
	db, m := setup(t)
	registerInstance(t, db, 3, database.StatusRunning) // the deleter
	registerInstance(t, db, 4, database.StatusRunning) // a concurrent reader

	if n := logicalDelete(t, m, 3, "DELETE FROM r WHERE v >= 40"); n != 2 {
		t.Fatalf("LogicalDelete: %d", n)
	}
	// Idempotent per process.
	if n := logicalDelete(t, m, 3, "DELETE FROM r WHERE v >= 40"); n != 0 {
		t.Fatalf("second LogicalDelete: %d", n)
	}
	// Physically nothing removed yet.
	total, _ := db.QueryInt("SELECT COUNT(*) FROM r")
	if total != 5 {
		t.Fatalf("physical rows: %d", total)
	}
	snap := db.Store().CurrentStamp()
	// The deleter (pid 3) no longer sees the deleted tuples.
	if got := rewriteCount(t, db, m, "SELECT COUNT(*) FROM r", 3, snap); got != 3 {
		t.Fatalf("deleter sees %d rows, want 3", got)
	}
	// The concurrent instance (pid 4, started before the delete ended)
	// still sees all 5: "prevent the deleted tuples from suddenly
	// disappearing from the view of another running process instance".
	if got := rewriteCount(t, db, m, "SELECT COUNT(*) FROM r", 4, snap); got != 5 {
		t.Fatalf("concurrent instance sees %d rows, want 5", got)
	}
}

func TestDeletionAppliedAfterWaitSetDrains(t *testing.T) {
	db, m := setup(t)
	registerInstance(t, db, 3, database.StatusRunning)
	registerInstance(t, db, 4, database.StatusRunning)

	logicalDelete(t, m, 3, "DELETE FROM r WHERE id = 1")
	// Deleter finishes: deletion stamped, but pid 4 is still running and
	// started before — so the tuple stays.
	finishInstance(t, db, 3)
	if err := m.FinishProcess(3); err != nil {
		t.Fatal(err)
	}
	total, _ := db.QueryInt("SELECT COUNT(*) FROM r")
	if total != 5 {
		t.Fatalf("tuple deleted while wait-set non-empty: %d rows", total)
	}
	pend, _ := m.PendingDeletions("r")
	if pend != 1 {
		t.Fatalf("pending: %d", pend)
	}

	// A process started *after* the deleter ended must not see the tuple.
	registerInstance(t, db, 5, database.StatusRunning)
	snap5 := db.Store().CurrentStamp()
	if got := rewriteCount(t, db, m, "SELECT COUNT(*) FROM r", 5, snap5); got != 4 {
		t.Fatalf("late instance sees %d rows, want 4", got)
	}

	// pid 4 finishes: wait set (instances started before deleter end)
	// drains — but pid 5 is still running; it started after, so it is not
	// in the wait set and GC may proceed.
	finishInstance(t, db, 4)
	if err := m.FinishProcess(4); err != nil {
		t.Fatal(err)
	}
	total, _ = db.QueryInt("SELECT COUNT(*) FROM r")
	if total != 4 {
		t.Fatalf("tuple not physically deleted after wait-set drain: %d rows", total)
	}
	pend, _ = m.PendingDeletions("r")
	if pend != 0 {
		t.Fatalf("deletion bookkeeping not cleaned: %d", pend)
	}
}

func TestRewritePreservesJoinsAndSubqueries(t *testing.T) {
	db, m := setup(t)
	db.Exec("CREATE TABLE s (id INT PRIMARY KEY, rid INT)")
	db.Exec("INSERT INTO s VALUES (1, 1), (2, 2)")
	snap := db.Store().CurrentStamp()
	st, _ := sqltext.Parse("SELECT COUNT(*) FROM r JOIN s ON r.id = s.rid WHERE r.id IN (SELECT rid FROM s)")
	m.Restrict(st, 9, snap, map[string]bool{"r": true, "s": true})
	res, err := db.ExecStmt(st)
	if err != nil {
		t.Fatalf("%q: %v", st.String(), err)
	}
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("join count: %v", res.Rows[0][0])
	}
	// Unmanaged tables are untouched.
	st2, _ := sqltext.Parse("SELECT COUNT(*) FROM s")
	m.Restrict(st2, 9, 0, map[string]bool{"r": true})
	if st2.(*sqltext.Select).Where != nil {
		t.Fatalf("unmanaged table got predicates: %s", st2.String())
	}
}

func TestRewriteAliasedTable(t *testing.T) {
	db, m := setup(t)
	snap := db.Store().CurrentStamp()
	db.Exec("INSERT INTO r (id, v) VALUES (7, 70)")
	st, _ := sqltext.Parse("SELECT COUNT(*) FROM r AS x WHERE x.v > 0")
	m.Restrict(st, 1, snap, map[string]bool{"r": true})
	res, err := db.ExecStmt(st)
	if err != nil {
		t.Fatalf("%q: %v", st.String(), err)
	}
	if res.Rows[0][0].Int() != 5 {
		t.Fatalf("aliased rewrite saw %v rows", res.Rows[0][0])
	}
}

// TestRestrictReachesEveryQuery checks each query shape against an
// oracle: the same query, unrestricted, over tables holding exactly the
// rows the instance may see.
func TestRestrictReachesEveryQuery(t *testing.T) {
	db, m := setup(t) // r: ids 1..5
	db.Exec("INSERT INTO r (id, v) VALUES (6, 60)")
	db.Exec("CREATE TABLE u (id INT PRIMARY KEY, k INT)")
	for i := 1; i <= 8; i++ {
		db.Exec("INSERT INTO u (id, k) VALUES (?, ?)", types.NewInt(int64(i)), types.NewInt(int64(i%2)))
	}
	registerInstance(t, db, 4, database.StatusRunning)
	registerInstance(t, db, 2, database.StatusRunning)
	// pid 2 deletes id 2 and ends; pid 4, still running, keeps the R∆ row.
	logicalDelete(t, m, 2, "DELETE FROM r WHERE id = 2")
	finishInstance(t, db, 2)
	if err := m.FinishProcess(2); err != nil {
		t.Fatal(err)
	}
	registerInstance(t, db, 3, database.StatusRunning)
	logicalDelete(t, m, 3, "DELETE FROM r WHERE id = 6") // the instance's own delete
	snap := db.Store().CurrentStamp()
	db.Exec("INSERT INTO r (id, v) VALUES (7, 70), (8, 80)") // after the snapshot
	logicalDelete(t, m, 4, "DELETE FROM r WHERE id = 1")     // pid 4 is still running

	oracle := database.MustOpenMemory()
	t.Cleanup(func() { oracle.Close() })
	oracle.Exec("CREATE TABLE r (id INT PRIMARY KEY, v INT)")
	oracle.Exec("INSERT INTO r (id, v) VALUES (1, 10), (3, 30), (4, 40), (5, 50)")
	oracle.Exec("CREATE TABLE u (id INT PRIMARY KEY, k INT)")
	for i := 1; i <= 8; i++ {
		oracle.Exec("INSERT INTO u (id, k) VALUES (?, ?)", types.NewInt(int64(i)), types.NewInt(int64(i%2)))
	}

	for _, tc := range []struct{ name, query string }{
		{"ON subquery", "SELECT COUNT(*) FROM u JOIN u AS u2 ON u.id = u2.id AND u.id IN (SELECT id FROM r)"},
		{"LEFT JOIN right side", "SELECT COUNT(*), COUNT(r.id) FROM u LEFT JOIN r ON u.id = r.id"},
		{"self-join", "SELECT r.id, r2.id FROM r JOIN r AS r2 ON r2.id = r.id + 1 ORDER BY r.id"},
		{"FROM subquery", "SELECT COUNT(*), SUM(q.v) FROM (SELECT id, v FROM r WHERE v > 10) AS q"},
		{"scalar subquery in items", "SELECT (SELECT COUNT(*) FROM r), (SELECT MAX(id) FROM r)"},
		{"EXISTS in HAVING", "SELECT u.k, COUNT(*) FROM u GROUP BY u.k HAVING EXISTS (SELECT 1 FROM r WHERE r.id = 2)"},
		{"two-deep nesting", "SELECT COUNT(*) FROM u WHERE u.id IN (SELECT id FROM r WHERE id IN (SELECT id FROM r WHERE v >= 30))"},
		{"aliased reference", "SELECT COUNT(*), MIN(x.id) FROM r AS x WHERE x.v > 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := oracle.Query(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			st, err := sqltext.Parse(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			m.Restrict(st, 3, snap, map[string]bool{"r": true})
			got, err := db.ExecStmt(st)
			if err != nil {
				t.Fatalf("%s: %v", st, err)
			}
			if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
				t.Fatalf("restricted %s\n got  %v\n want %v", st, got.Rows, want.Rows)
			}
		})
	}
}

// TestRestrictPrintsAsBefore pins the text of restricted statements for
// the shapes whose restriction goes to WHERE: a FROM entry, INNER and
// CROSS joins, subqueries in the items, WHERE, HAVING and ORDER BY, FROM
// subqueries and aliases. s is managed without an R∆, u is not managed.
func TestRestrictPrintsAsBefore(t *testing.T) {
	_, m := setup(t)
	const nd = "(SELECT tid FROM ef_del_r WHERE ((pid = 7) OR ((process_end IS NOT NULL) AND (process_end <= 42))))"
	for _, tc := range []struct{ query, want string }{
		{"SELECT COUNT(*) FROM r",
			"SELECT COUNT(*) FROM r WHERE ((r._created <= 42) AND (r._tid NOT IN " + nd + "))"},
		{"SELECT * FROM r AS x WHERE x.v > 0",
			"SELECT * FROM r AS x WHERE (((x.v > 0) AND (x._created <= 42)) AND (x._tid NOT IN " + nd + "))"},
		{"SELECT r.id, s.id FROM r JOIN s ON r.id = s.rid WHERE r.v > 10",
			"SELECT r.id, s.id FROM r JOIN s ON (r.id = s.rid) WHERE ((((r.v > 10) AND (r._created <= 42)) AND (r._tid NOT IN " + nd + ")) AND (s._created <= 42))"},
		{"SELECT COUNT(*) FROM r, s",
			"SELECT COUNT(*) FROM r, s WHERE (((r._created <= 42) AND (r._tid NOT IN " + nd + ")) AND (s._created <= 42))"},
		{"SELECT COUNT(*) FROM u CROSS JOIN r",
			"SELECT COUNT(*) FROM u, r WHERE ((r._created <= 42) AND (r._tid NOT IN " + nd + "))"},
		{"SELECT id FROM u WHERE id IN (SELECT id FROM r WHERE v > 10)",
			"SELECT id FROM u WHERE (id IN (SELECT id FROM r WHERE (((v > 10) AND (r._created <= 42)) AND (r._tid NOT IN " + nd + "))))"},
		{"SELECT (SELECT COUNT(*) FROM r), (SELECT MAX(v) FROM r AS y)",
			"SELECT (SELECT COUNT(*) FROM r WHERE ((r._created <= 42) AND (r._tid NOT IN " + nd + "))), (SELECT MAX(v) FROM r AS y WHERE ((y._created <= 42) AND (y._tid NOT IN " + nd + ")))"},
		{"SELECT k, COUNT(*) FROM u GROUP BY k HAVING EXISTS (SELECT 1 FROM r WHERE r.v > 40)",
			"SELECT k, COUNT(*) FROM u GROUP BY k HAVING EXISTS (SELECT 1 FROM r WHERE (((r.v > 40) AND (r._created <= 42)) AND (r._tid NOT IN " + nd + ")))"},
		{"SELECT id FROM u ORDER BY (SELECT COUNT(*) FROM r WHERE r.id < 3)",
			"SELECT id FROM u ORDER BY (SELECT COUNT(*) FROM r WHERE (((r.id < 3) AND (r._created <= 42)) AND (r._tid NOT IN " + nd + ")))"},
		{"SELECT COUNT(*) FROM (SELECT id FROM r WHERE v > 10) AS q",
			"SELECT COUNT(*) FROM (SELECT id FROM r WHERE (((v > 10) AND (r._created <= 42)) AND (r._tid NOT IN " + nd + "))) AS q"},
		{"SELECT COUNT(*) FROM r JOIN r AS r2 ON r2.id = r.id + 1",
			"SELECT COUNT(*) FROM r JOIN r AS r2 ON (r2.id = (r.id + 1)) WHERE ((((r._created <= 42) AND (r._tid NOT IN " + nd + ")) AND (r2._created <= 42)) AND (r2._tid NOT IN " + nd + "))"},
		{"SELECT COUNT(*) FROM u WHERE u.id IN (SELECT id FROM r WHERE id IN (SELECT id FROM r WHERE v >= 20))",
			"SELECT COUNT(*) FROM u WHERE (u.id IN (SELECT id FROM r WHERE (((id IN (SELECT id FROM r WHERE (((v >= 20) AND (r._created <= 42)) AND (r._tid NOT IN " + nd + ")))) AND (r._created <= 42)) AND (r._tid NOT IN " + nd + "))))"},
		{"SELECT CASE WHEN EXISTS (SELECT 1 FROM s) THEN 1 ELSE 0 END",
			"SELECT CASE WHEN EXISTS (SELECT 1 FROM s WHERE (s._created <= 42)) THEN 1 ELSE 0 END"},
		{"SELECT COUNT(*) FROM u", "SELECT COUNT(*) FROM u"},
		// A LEFT JOIN's right side is restricted in its ON.
		{"SELECT COUNT(*) FROM u LEFT JOIN r ON u.id = r.id",
			"SELECT COUNT(*) FROM u LEFT JOIN r ON (((u.id = r.id) AND (r._created <= 42)) AND (r._tid NOT IN " + nd + "))"},
	} {
		st, err := sqltext.Parse(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		m.Restrict(st, 7, 42, map[string]bool{"r": true, "s": true})
		if got := st.String(); got != tc.want {
			t.Errorf("Restrict(%q)\n got  %s\n want %s", tc.query, got, tc.want)
		}
	}
}

// statements counts the statements db executes while fn runs.
func statements(db *database.DB, fn func()) int64 {
	c := db.Metrics().Counter("engine.statements")
	before := c.Value()
	fn()
	return c.Value() - before
}

// TestLogicalDeleteIsOneStatement: N rows go to R∆ in one INSERT … SELECT.
func TestLogicalDeleteIsOneStatement(t *testing.T) {
	db, m := setup(t)
	st, _ := sqltext.Parse("DELETE FROM r WHERE v >= ?")
	var n int
	var err error
	if got := statements(db, func() { n, err = m.LogicalDelete(st.(*sqltext.Delete), 3, types.NewInt(20)) }); got != 1 || err != nil || n != 4 {
		t.Fatalf("LogicalDelete of %d rows ran %d statements (%v), want 4 rows in 1", n, got, err)
	}
}

// TestGCStatementsPerTable: GC's statement count does not grow with the
// number of drained deletions.
func TestGCStatementsPerTable(t *testing.T) {
	for _, rows := range []int{1, 5} {
		db, m := setup(t)
		registerInstance(t, db, 3, database.StatusRunning)
		logicalDelete(t, m, 3, fmt.Sprintf("DELETE FROM r WHERE id <= %d", rows))
		finishInstance(t, db, 3)
		db.Exec("UPDATE ef_del_r SET process_end = 1")
		// The horizon, then per deletion table: the drained rows, the
		// tuples, the R∆ rows.
		if got := statements(db, func() {
			if err := m.GC(); err != nil {
				t.Fatal(err)
			}
		}); got != 4 {
			t.Fatalf("GC of %d deletions ran %d statements, want 4", rows, got)
		}
		if n, _ := db.QueryInt("SELECT COUNT(*) FROM r"); n != int64(5-rows) {
			t.Fatalf("%d rows left after GC of %d", n, rows)
		}
	}
}

// rowsLeft prints the tuples of r and the R∆ rows as (tid, pid, pending).
func rowsLeft(t *testing.T, db *database.DB) string {
	t.Helper()
	rel, err := db.Query("SELECT id FROM r ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	del, err := db.Query("SELECT tid, pid, process_end IS NULL FROM ef_del_r ORDER BY tid, pid")
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprint(rel.Rows, del.Rows)
}

// TestGCLeavesWhatPerRowGCLeaves pins the rows left in r and in R∆ after
// each step of two schedules. The expected texts are those a GC leaves
// that takes one R∆ row at a time, with one wait-set COUNT and two
// DELETEs each (here tid equals id).
func TestGCLeavesWhatPerRowGCLeaves(t *testing.T) {
	finish := func(t *testing.T, db *database.DB, m *Manager, pid int64) {
		finishInstance(t, db, pid)
		if err := m.FinishProcess(pid); err != nil {
			t.Fatal(err)
		}
	}
	check := func(t *testing.T, db *database.DB, want string) {
		t.Helper()
		if got := rowsLeft(t, db); got != want {
			t.Fatalf("rows left\n got  %s\n want %s", got, want)
		}
	}
	t.Run("deleter and reader", func(t *testing.T) {
		db, m := setup(t)
		registerInstance(t, db, 3, database.StatusRunning)
		registerInstance(t, db, 4, database.StatusRunning)
		logicalDelete(t, m, 3, "DELETE FROM r WHERE v >= 40")
		logicalDelete(t, m, 3, "DELETE FROM r WHERE v >= 40")
		check(t, db, "[[1] [2] [3] [4] [5]] [[4 3 true] [5 3 true]]")
		finish(t, db, m, 3)
		check(t, db, "[[1] [2] [3] [4] [5]] [[4 3 false] [5 3 false]]")
		finish(t, db, m, 4)
		check(t, db, "[[1] [2] [3]] []")
	})
	t.Run("two overlapping deleters", func(t *testing.T) {
		db, m := setup(t)
		registerInstance(t, db, 3, database.StatusRunning)
		registerInstance(t, db, 4, database.StatusRunning)
		logicalDelete(t, m, 3, "DELETE FROM r WHERE v >= 40")
		logicalDelete(t, m, 4, "DELETE FROM r WHERE id IN (1, 5)")
		check(t, db, "[[1] [2] [3] [4] [5]] [[1 4 true] [4 3 true] [5 3 true] [5 4 true]]")
		finish(t, db, m, 3)
		check(t, db, "[[1] [2] [3] [4] [5]] [[1 4 true] [4 3 false] [5 3 false] [5 4 true]]")
		registerInstance(t, db, 5, database.StatusRunning) // started after pid 3 ended
		logicalDelete(t, m, 5, "DELETE FROM r WHERE id = 2")
		finish(t, db, m, 4)
		check(t, db, "[[1] [2] [3]] [[1 4 false] [2 5 true] [5 4 false]]")
		finish(t, db, m, 5)
		check(t, db, "[[3]] []")
	})
}

// TestGCObserverSeesEveryTID: the physical delete reaches observers with
// every tuple it removes. With no other writer, the statement delivers
// its own events before it returns.
func TestGCObserverSeesEveryTID(t *testing.T) {
	db, m := setup(t)
	var seen []int64
	db.ObserveBatch(func(evs []engine.ChangeEvent) {
		for _, ev := range evs {
			if ev.Table == "r" && ev.Op == engine.OpDelete {
				seen = append(seen, ev.TIDs...)
			}
		}
	})
	registerInstance(t, db, 3, database.StatusRunning)
	logicalDelete(t, m, 3, "DELETE FROM r WHERE v <> 30")
	res, err := db.Query("SELECT tid FROM ef_del_r ORDER BY tid")
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for _, r := range res.Rows {
		want = append(want, r[0].Int())
	}
	finishInstance(t, db, 3)
	if err := m.FinishProcess(3); err != nil {
		t.Fatal(err)
	}
	slices.Sort(seen)
	if len(want) != 4 || !slices.Equal(seen, want) {
		t.Fatalf("observer saw tids %v, want %v", seen, want)
	}
}

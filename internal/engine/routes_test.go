package engine

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ediflow/internal/storage"
)

// openDir opens (or reopens) a durable engine over dir.
func openDir(t *testing.T, dir string) *Engine {
	t.Helper()
	st, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(st)
	if err != nil {
		st.Close()
		t.Fatalf("engine.New over %s: %v", dir, err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// describe renders everything the routes must agree on: the tables and
// each table's indexes (the store's), the views and triggers (the
// catalog's), the stored metas, the
// rows of every user table and view, and the access path EXPLAIN picks
// for each of probes.
func describe(t *testing.T, e *Engine, probes ...string) string {
	t.Helper()
	var b strings.Builder
	cat := e.Catalog()
	for _, name := range e.Store().TableNames() {
		tbl := e.Store().Table(name)
		fmt.Fprintf(&b, "table %s %+v\n", name, tbl.Schema.Columns)
		for _, ix := range tbl.Indexes() {
			fmt.Fprintf(&b, "  index %q cols=%v unique=%v origin=%d\n", ix.Name, ix.Cols, ix.Unique, ix.Origin)
		}
	}
	for _, name := range cat.ViewNames() {
		v, _ := cat.View(name)
		fmt.Fprintf(&b, "view %s backing=%s query=%s\n", v.Name, v.Backing, v.Query)
	}
	for _, tg := range cat.AllTriggers() {
		fmt.Fprintf(&b, "trigger %+v\n", *tg)
	}
	for _, m := range e.Store().Metas() {
		fmt.Fprintf(&b, "meta %+v\n", m)
	}
	for _, name := range append(e.TableNames(), cat.ViewNames()...) {
		fmt.Fprintf(&b, "rows %s %v\n", name, renderRows(mustExec(t, e, "SELECT * FROM "+name), false))
	}
	for _, q := range probes {
		fmt.Fprintf(&b, "explain %s -> %v\n", q, explainLines(t, e, q))
	}
	return b.String()
}

// ------------------------------------------------------- the three bugs

// TestDropTableWithTriggerReopens: DROP TABLE on a table that has a
// trigger used to leave the trigger's meta entry in the store; the next
// open failed on "trigger references unknown table" for good.
func TestDropTableWithTriggerReopens(t *testing.T) {
	dir := t.TempDir()
	e := openDir(t, dir)
	e.Store().EnableReplFeed(0)
	mustExec(t, e, "CREATE TABLE t (a INT)")
	mustExec(t, e, "CREATE TABLE keep (a INT)")
	mustExec(t, e, "CREATE TRIGGER trg AFTER INSERT ON t CALL 'h'")
	mustExec(t, e, "CREATE TRIGGER trg2 AFTER DELETE ON T CALL 'h'")
	mustExec(t, e, "CREATE TRIGGER stays AFTER INSERT ON keep CALL 'h'")
	mustExec(t, e, "DROP TABLE t")
	want := describe(t, e)
	if strings.Contains(want, "trg") || !strings.Contains(want, "stays") {
		t.Fatalf("after DROP TABLE:\n%s", want)
	}
	// A replica fed the records follows.
	replica := newTestDB(t)
	recs, _, _, err := e.Store().ReplFetch(0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replica.ApplyReplicated(recs, ""); err != nil {
		t.Fatal(err)
	}
	if got := describe(t, replica); got != want {
		t.Errorf("replica:\n%s\nprimary:\n%s", got, want)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got := describe(t, openDir(t, dir)); got != want {
		t.Errorf("reopened:\n%s\nlive:\n%s", got, want)
	}
	// The name is free for a new table, and the old triggers do not
	// come back with it.
	e = openDir(t, t.TempDir())
	mustExec(t, e, "CREATE TABLE t (a INT)")
	mustExec(t, e, "CREATE TRIGGER trg AFTER INSERT ON t CALL 'h'")
	mustExec(t, e, "DROP TABLE t")
	mustExec(t, e, "CREATE TABLE t (a INT)")
	mustExec(t, e, "CREATE TRIGGER trg AFTER INSERT ON t CALL 'h'")
}

// TestDDLNameRules pins what DDL answers about names, through SQL: each
// statement runs in turn and must fail with exactly its text, or succeed
// ("" below). Tables, views and triggers share these rules whichever
// layer holds them: a table and a view never share a name, a trigger
// needs a table, and DROP TABLE takes the table's triggers with it.
func TestDDLNameRules(t *testing.T) {
	e := newTestDB(t)
	for _, c := range []struct{ sql, err string }{
		{"CREATE TABLE t (id INT PRIMARY KEY, k INT)", ""},
		{"CREATE MATERIALIZED VIEW v AS SELECT id, k FROM t", ""},
		{"CREATE TRIGGER tg AFTER INSERT ON t CALL 'h'", ""},
		{"CREATE TABLE t (a INT)", `engine: table "t" already exists`},
		{"CREATE TABLE T (a INT)", `engine: table "T" already exists`},
		{"CREATE TABLE IF NOT EXISTS t (a INT)", ""},
		{"CREATE TABLE v (a INT)", `catalog: "v" already names a view`},
		{"CREATE TABLE V (a INT)", `catalog: "V" already names a view`},
		{"CREATE MATERIALIZED VIEW t AS SELECT id FROM t", `engine: "t" already names a table`},
		{"CREATE MATERIALIZED VIEW T AS SELECT id FROM t", `engine: "T" already names a table`},
		{"CREATE MATERIALIZED VIEW v AS SELECT id FROM t", `engine: view "v" already exists`},
		{"CREATE MATERIALIZED VIEW w AS SELECT id FROM ghost", `engine: view "w" references unknown table "ghost"`},
		{"CREATE MATERIALIZED VIEW w AS SELECT id FROM v", `engine: view "w" may not reference view "v"`},
		{"CREATE MATERIALIZED VIEW w AS SELECT _tid FROM t", `catalog: column name "_tid" is reserved`},
		{"CREATE TABLE __view_w (a INT)", `engine: table name "__view_w" takes the view-backing prefix "__view_"`},
		{"CREATE TABLE IF NOT EXISTS __VIEW_w (a INT)", `engine: table name "__VIEW_w" takes the view-backing prefix "__view_"`},
		{"CREATE MATERIALIZED VIEW w AS SELECT id FROM t", ""},
		{"DROP TABLE __view_w", `engine: table "__view_w" backs view "w"`},
		{"DROP TABLE __VIEW_W", `engine: table "__VIEW_W" backs view "w"`},
		{"INSERT INTO __view_w VALUES (5)", `engine: cannot INSERT into table "__view_w": it backs view "w"`},
		{"UPDATE __VIEW_W SET id = 6", `engine: cannot UPDATE table "__VIEW_W": it backs view "w"`},
		{"DELETE FROM __view_w WHERE id = 1", `engine: cannot DELETE from table "__view_w": it backs view "w"`},
		{"INSERT INTO t VALUES (1, 1)", ""},
		{"DELETE FROM __view_W", `engine: cannot DELETE from table "__view_W": it backs view "w"`},
		{"DROP VIEW w", ""},
		{"CREATE TRIGGER tg AFTER DELETE ON t CALL 'h'", `catalog: trigger "tg" already exists`},
		{"CREATE TRIGGER TG AFTER DELETE ON ghost CALL 'h'", `catalog: trigger "TG" already exists`},
		{"CREATE TRIGGER tg2 AFTER INSERT ON ghost CALL 'h'", `catalog: trigger "tg2" references unknown table "ghost"`},
		{"CREATE TRIGGER tg2 AFTER INSERT ON v CALL 'h'", `catalog: trigger "tg2" references unknown table "v"`},
		{"CREATE TRIGGER tg2 AFTER DELETE ON T CALL 'h'", ""},
		{"CREATE TABLE d (a INT, A INT)", `catalog: duplicate column "A" in "d"`},
		{"CREATE TABLE d (_tid INT)", `catalog: column name "_tid" is reserved`},
		{"CREATE TABLE d (a INT, _CREATED INT)", `catalog: column name "_CREATED" is reserved`},
		{"CREATE TABLE d (a INT PRIMARY KEY, b INT PRIMARY KEY)", `catalog: table "d" has 2 primary keys`},
		{"DROP TABLE ghost", `engine: no such table "ghost"`},
		{"DROP TABLE t", `engine: table "t" is referenced by view "v"`},
		{"INSERT INTO v VALUES (1, 1)", `engine: cannot INSERT into view "v"`},
		{"DROP VIEW v", ""},
		{"CREATE TABLE v (a INT)", ""},
		{"DROP TABLE v", ""},
		{"DROP TABLE t", ""},
		{"INSERT INTO t VALUES (1, 1)", `engine: no such table "t"`},
		{"CREATE TABLE t (a INT)", ""},
		{"CREATE TRIGGER tg AFTER INSERT ON t CALL 'h'", ""},
		{"CREATE MATERIALIZED VIEW zeta AS SELECT a FROM t", ""},
		{"CREATE TABLE mid (a INT)", ""},
		{"CREATE TABLE alpha (a INT)", ""},
	} {
		_, err := e.Exec(c.sql)
		if got := fmt.Sprint(err); c.err == "" && err != nil || c.err != "" && got != c.err {
			t.Errorf("%s: err = %v, want %q", c.sql, err, c.err)
		}
	}
	// The dropped table's triggers left with it; the names are sorted,
	// and a view's backing table is not a user table.
	var triggers []string
	for _, tg := range e.Catalog().AllTriggers() {
		triggers = append(triggers, tg.Name+" on "+tg.Table)
	}
	if got := fmt.Sprint(triggers); got != "[tg on t]" {
		t.Errorf("triggers %s, want [tg on t]", got)
	}
	if got := fmt.Sprint(e.TableNames()); got != "[alpha mid t]" {
		t.Errorf("TableNames %s, want [alpha mid t]", got)
	}
}

// TestIndexNamesOneRule: the catalog used to keep its own index map,
// filled before storage built the index and never reloaded. One rule in
// storage now gives one answer live, after a reopen and on a replica.
func TestIndexNamesOneRule(t *testing.T) {
	dir := t.TempDir()
	e := openDir(t, dir)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, e, "CREATE TABLE u (id INT PRIMARY KEY, v INT)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 7), (2, 7)")

	// A failed create leaves nothing: the retry on repaired data works.
	if _, err := e.Exec("CREATE UNIQUE INDEX tv ON t (v)"); err == nil {
		t.Fatal("unique index over duplicate data was built")
	}
	mustExec(t, e, "UPDATE t SET v = 8 WHERE id = 2")
	mustExec(t, e, "CREATE UNIQUE INDEX tv ON t (v)")

	// Index names are store-wide, whatever the case — before a reopen...
	mustExec(t, e, "CREATE INDEX ix ON t (id, v)")
	refused := func(e *Engine, sql string) {
		t.Helper()
		if _, err := e.Exec(sql); err == nil || !strings.Contains(err.Error(), "already exists") {
			t.Errorf("%s: err = %v, want an already-exists refusal", sql, err)
		}
	}
	refused(e, "CREATE INDEX ix ON u (v)")
	refused(e, "CREATE INDEX IX ON u (v)")
	probe := "SELECT id FROM t WHERE v = 7"
	want := describe(t, e, probe)
	snap, _, err := e.ReplSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// ... and after it.
	e = openDir(t, dir)
	refused(e, "CREATE INDEX ix ON u (v)")
	refused(e, "CREATE UNIQUE INDEX Tv ON u (v)")
	if got := describe(t, e, probe); got != want {
		t.Errorf("reopened:\n%s\nlive:\n%s", got, want)
	}
	// A replica built from a snapshot has the indexes too.
	replica := newTestDB(t)
	if err := replica.ApplyReplSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if got := describe(t, replica, probe); got != want {
		t.Errorf("replica:\n%s\nprimary:\n%s", got, want)
	}
	wantLine(t, explainLines(t, replica, probe), "scan t: index(tv)")
}

// TestFailedStatementLeavesNothing: a statement that fails part-way
// through its rows used to leave the earlier rows stored, logged and
// shipped, with no change event and no view delta. A statement is atomic
// now, in and out of a transaction.
func TestFailedStatementLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	e := openDir(t, dir)
	e.Store().EnableReplFeed(0)
	events := 0
	e.ObserveBatch(func(evs []ChangeEvent) { events += len(evs) })
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, g INT)")
	mustExec(t, e, "CREATE TABLE src (id INT, g INT)")
	mustExec(t, e, "CREATE MATERIALIZED VIEW tv AS SELECT g, COUNT(*) AS n FROM t GROUP BY g")
	mustExec(t, e, "CREATE MATERIALIZED VIEW tm AS SELECT g, MIN(CASE WHEN id > 100 THEN 'x' ELSE id END) AS lo FROM t GROUP BY g")
	mustExec(t, e, "INSERT INTO t VALUES (10, 1), (11, 1), (12, 2)")
	mustExec(t, e, "INSERT INTO src VALUES (20, 3), (21, 3), (10, 3)")
	failing := []string{
		"INSERT INTO t VALUES (1, 1), (2, 1), (1, 1)",      // duplicate key on the third row
		"INSERT INTO t VALUES (3, 1), (4, 'x')",            // coercion on the second
		"INSERT INTO t SELECT id, g FROM src",              // duplicate key on the last
		"UPDATE t SET id = id + 1",                         // 10 → 11 collides... or 11 → 12
		"UPDATE t SET g = 10 / (g - 2)",                    // SET evaluation fails on the g = 2 row
		"UPDATE t SET g = 5, id = 10 WHERE id IN (10, 11)", // second row collides with the first
		"INSERT INTO t VALUES (5, 1), (141, 1)",            // 5 lowers tm's MIN, then 'x' cannot compare
		"UPDATE t SET id = 210 WHERE id = 10",              // the new row's 'x' cannot compare
	}
	state := func() string {
		t.Helper()
		return describe(t, e) + fmt.Sprint(rowSet(mustExec(t, e, "SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY g")))
	}
	check := func(when, want string) {
		t.Helper()
		if got := state(); got != want {
			t.Fatalf("%s:\n%s\nwant:\n%s", when, got, want)
		}
		if v, r := rowSet(mustExec(t, e, "SELECT g, n FROM tv ORDER BY g")), rowSet(mustExec(t, e, "SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY g")); fmt.Sprint(v) != fmt.Sprint(r) {
			t.Fatalf("%s: view %v, recompute %v", when, v, r)
		}
		if v, r := rowSet(mustExec(t, e, "SELECT g, lo FROM tm ORDER BY g")), rowSet(mustExec(t, e, "SELECT g, MIN(CASE WHEN id > 100 THEN 'x' ELSE id END) FROM t GROUP BY g ORDER BY g")); fmt.Sprint(v) != fmt.Sprint(r) {
			t.Fatalf("%s: view tm %v, recompute %v", when, v, r)
		}
	}
	want := state()
	events = 0
	for _, sql := range failing {
		if _, err := e.Exec(sql); err == nil {
			t.Fatalf("%s: succeeded", sql)
		}
		check("after failing "+sql, want)
	}
	if events != 0 {
		t.Errorf("failed statements fired %d change events", events)
	}
	// The failed statements left no state behind in either view: a row
	// can join group 1 and leave it again.
	mustExec(t, e, "INSERT INTO t VALUES (50, 1)")
	mustExec(t, e, "DELETE FROM t WHERE id = 50")
	check("after inserting and deleting row 50", want)

	// Inside a transaction only the failed statement goes; the rest
	// commits, or rolls back, as if it had never run.
	mustExec(t, e, "BEGIN")
	mustExec(t, e, "INSERT INTO t VALUES (30, 9)")
	for _, sql := range failing {
		if _, err := e.Exec(sql); err == nil {
			t.Fatalf("in txn: %s: succeeded", sql)
		}
	}
	mustExec(t, e, "UPDATE t SET g = 9 WHERE id = 12")
	mustExec(t, e, "ROLLBACK")
	check("after ROLLBACK", want)
	mustExec(t, e, "BEGIN")
	mustExec(t, e, "INSERT INTO t VALUES (30, 9)")
	for _, sql := range failing {
		if _, err := e.Exec(sql); err == nil {
			t.Fatalf("in txn: %s: succeeded", sql)
		}
	}
	mustExec(t, e, "DELETE FROM t WHERE id = 12")
	mustExec(t, e, "COMMIT")
	mustExec(t, e, "DELETE FROM t WHERE id = 30")
	mustExec(t, e, "INSERT INTO t VALUES (12, 2)")
	check("after COMMIT and putting row 12 back", want)

	// A replica fed every record — the failed rows and their
	// compensations included — and a reopen both land on the live state.
	replica := newTestDB(t)
	recs, _, _, err := e.Store().ReplFetch(0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replica.ApplyReplicated(recs, ""); err != nil {
		t.Fatal(err)
	}
	live := describe(t, e)
	if got := describe(t, replica); got != live {
		t.Errorf("replica:\n%s\nprimary:\n%s", got, live)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got := describe(t, openDir(t, dir)); got != live {
		t.Errorf("reopened:\n%s\nlive:\n%s", got, live)
	}
}

// TestAutocommitUndoLogIsReused: recording undo for every statement
// must not cost an allocation per statement — one slice is reused, one
// run a statement — and must not keep a finished statement's rows alive.
func TestAutocommitUndoLogIsReused(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, g INT)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 1), (2, 1), (3, 1)")
	if len(e.undo) != 0 || cap(e.undo) < 1 {
		t.Fatalf("after a statement: len %d cap %d", len(e.undo), cap(e.undo))
	}
	for _, u := range e.undo[:cap(e.undo)] {
		if u.tids != nil || u.newRows != nil || u.oldRows != nil {
			t.Fatal("a finished statement's rows are still referenced by the undo log")
		}
	}
	before := cap(e.undo)
	for i := 0; i < 50; i++ {
		mustExec(t, e, "UPDATE t SET g = g + 1")
	}
	if cap(e.undo) != before {
		t.Errorf("undo log regrown in steady state: cap %d → %d", before, cap(e.undo))
	}
}

// TestLargeTransactionReleasesUndoLog: a transaction's undo holds one run
// a statement, however many rows each writes, and none once it commits;
// one large autocommit statement leaves a slice of one run behind.
func TestLargeTransactionReleasesUndoLog(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, g INT)")
	const perStmt, stmts = 500, 25
	insert := func(from int) {
		var sb strings.Builder
		sb.WriteString("INSERT INTO t VALUES ")
		for i := from; i < from+perStmt; i++ {
			if i > from {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d)", i, i%7)
		}
		mustExec(t, e, sb.String())
	}
	mustExec(t, e, "BEGIN")
	for i := 0; i < stmts; i++ {
		insert(i * perStmt)
	}
	if n := len(e.undo); n != stmts {
		t.Fatalf("open transaction of %d statements holds %d undo runs", stmts, n)
	}
	for _, u := range e.undo {
		if len(u.tids) != perStmt {
			t.Fatalf("an undo run holds %d rows, want the statement's %d", len(u.tids), perStmt)
		}
	}
	mustExec(t, e, "COMMIT")
	if len(e.undo) != 0 {
		t.Fatalf("after COMMIT: len %d", len(e.undo))
	}
	for _, u := range e.undo[:cap(e.undo)] {
		if u.tids != nil {
			t.Fatal("a committed transaction's rows are still referenced by the undo log")
		}
	}
	e.undo = nil
	mustExec(t, e, "UPDATE t SET g = g + 1")
	if len(e.undo) != 0 || cap(e.undo) != 1 {
		t.Fatalf("after a large autocommit UPDATE: len %d cap %d, want cap 1", len(e.undo), cap(e.undo))
	}
	if got := mustExec(t, e, "SELECT COUNT(*) FROM t WHERE g = 1").Rows[0][0].Int(); got == 0 {
		t.Fatal("the committed rows are gone")
	}
}

// ------------------------------------------------- five routes, one state

// routeProbes are the queries whose access path must not depend on the
// route a state was reached by.
var routeProbes = []string{
	"SELECT id FROM a WHERE g = 1",
	"SELECT id FROM a WHERE s = 'x'",
	"SELECT id FROM a WHERE g = 1 AND s = 'x'",
	"SELECT id FROM a WHERE id = 3",
	"SELECT k FROM b WHERE v = 'x'",
	"SELECT k FROM b WHERE k = 1",
	"SELECT a.id FROM a JOIN b ON a.g = b.k",
}

// runSQLHistory drives a seeded DDL+DML history through SQL: tables,
// named / unique / composite indexes built over existing rows, a view, a
// trigger, a table dropped with its trigger and index, a dropped view,
// multi-row statements that fail part-way, and transactions that roll
// back (re-inserting deleted rows under their tids).
func runSQLHistory(t *testing.T, e *Engine, seed int64, checkpointAt int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for _, sql := range []string{
		"CREATE TABLE a (id INT PRIMARY KEY, g INT, s STRING)",
		"CREATE TABLE b (k INT, v STRING UNIQUE)",
		"CREATE TABLE tmp (x INT)",
		"CREATE INDEX tmp_x ON tmp (x)",
		"CREATE TRIGGER tmp_trg AFTER INSERT ON tmp CALL 'h'",
		"CREATE TRIGGER a_trg AFTER UPDATE ON a CALL 'h'",
		"CREATE INDEX b_kv ON b (k, v)",
		"CREATE MATERIALIZED VIEW ag AS SELECT g, COUNT(*) AS n FROM a GROUP BY g",
		"CREATE MATERIALIZED VIEW gone AS SELECT k FROM b",
	} {
		mustExec(t, e, sql)
	}
	nextID := 0
	for op := 0; op < 300; op++ {
		var sql string
		switch k := rng.Intn(12); {
		case k < 3:
			nextID++
			sql = fmt.Sprintf("INSERT INTO a VALUES (%d, %d, 's%d')", nextID, rng.Intn(4), rng.Intn(1000))
		case k < 5:
			sql = fmt.Sprintf("INSERT INTO b VALUES (%d, 'v%d'), (%d, 'v%d')", rng.Intn(6), rng.Intn(60), rng.Intn(6), rng.Intn(60)) // may fail on v
		case k < 6 && op < 200:
			sql = fmt.Sprintf("INSERT INTO tmp VALUES (%d)", rng.Intn(10))
		case k < 8:
			sql = fmt.Sprintf("UPDATE a SET g = %d WHERE id = %d", rng.Intn(4), 1+rng.Intn(nextID+1))
		case k < 9:
			sql = fmt.Sprintf("DELETE FROM b WHERE k = %d", rng.Intn(6))
		case k < 10:
			// Fails on its last row once id 1 exists: the first two rows
			// are written, logged, then taken back.
			sql = fmt.Sprintf("INSERT INTO a VALUES (%d, 0, 'f'), (%d, 0, 'f'), (1, 0, 'f')", 5000+op, 6000+op)
		default:
			mustExec(t, e, "BEGIN")
			mustExec(t, e, fmt.Sprintf("DELETE FROM a WHERE g = %d", rng.Intn(4)))
			mustExec(t, e, fmt.Sprintf("UPDATE b SET k = k + 1 WHERE k = %d", rng.Intn(6)))
			sql = "ROLLBACK"
		}
		e.Exec(sql) // refusals are part of the history
		switch op {
		case 80:
			mustExec(t, e, "CREATE INDEX a_s ON a (s)")
		case 120:
			mustExec(t, e, "CREATE INDEX a_g ON a (g)")
			mustExec(t, e, "CREATE INDEX a_gs ON a (g, s)")
			if _, err := e.Exec("CREATE UNIQUE INDEX a_ug ON a (g)"); err == nil {
				t.Fatal("unique index over duplicate data was built")
			}
		case 200:
			mustExec(t, e, "DROP TABLE tmp")
			mustExec(t, e, "DROP VIEW gone")
			mustExec(t, e, "CREATE INDEX tmp_x ON b (k)")
		}
		if op == checkpointAt {
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestFiveRoutesOneCatalog is the engine half of storage's
// TestFiveRoutesConverge: the same history reached live, by WAL replay,
// by checkpoint + reopen, on a replica fed the records and on a replica
// reset from a snapshot gives equal catalogs (tables, indexes per table,
// views, triggers), equal rows and equal EXPLAIN access paths.
func TestFiveRoutesOneCatalog(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dirA, dirB := t.TempDir(), t.TempDir()
			a := openDir(t, dirA)
			a.Store().EnableReplFeed(0)
			runSQLHistory(t, a, seed, -1)
			want := describe(t, a, routeProbes...)
			for _, must := range []string{`index "a_gs"`, `index "tmp_x"`, "view ag", "trigger {Name:a_trg", "index(a_gs)"} {
				if !strings.Contains(want, must) {
					t.Fatalf("history did not run as designed: no %q in\n%s", must, want)
				}
			}
			for _, mustNot := range []string{"tmp_trg", "table tmp", "view gone", "5000", "'f'"} {
				if strings.Contains(want, mustNot) {
					t.Fatalf("history did not run as designed: %q in\n%s", mustNot, want)
				}
			}
			check := func(route string, e *Engine) {
				t.Helper()
				if got := describe(t, e, routeProbes...); got != want {
					t.Errorf("%s:\n%s\nlive:\n%s", route, got, want)
				}
			}

			fed := newTestDB(t)
			fed.SetReadOnly()
			recs, _, _, err := a.Store().ReplFetch(0, 1<<30)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fed.ApplyReplicated(recs, ""); err != nil {
				t.Fatal(err)
			}
			check("replica fed the records", fed)

			snap, _, err := a.ReplSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			reset := newTestDB(t)
			mustExec(t, reset, "CREATE TABLE old (x INT)")
			reset.SetReadOnly()
			if err := reset.ApplyReplSnapshot(snap); err != nil {
				t.Fatal(err)
			}
			check("replica reset from a snapshot", reset)

			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			check("WAL replay", openDir(t, dirA))

			b := openDir(t, dirB)
			runSQLHistory(t, b, seed, 150)
			check("live, checkpointed mid-way", b)
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			check("checkpoint + WAL tail", openDir(t, dirB))
		})
	}
}

// ------------------------------------------------ parent-written fixture

// A database directory written by the commit before the Record type
// (snapshot file, then a WAL tail), as hex, carried over to the current
// formats (EDSNAP3, EDIWAL2) by taking out each row's creation stamp,
// which equalled its tid in every row and record. Its history: tables
// t, u, w; indexes created in the order u_kv, t_s (unique), t_g, w_a;
// view tv and trigger trg; a checkpoint; then DML, w and its index, and
// a table "gone" dropped while it had a trigger — the state that commit
// could not reopen. fixtureReplSnap is what that commit's
// Store.EncodeReplSnapshot gave for the reopened store, carried over
// likewise.
const (
	fixtureSnapshot = "" +
		"4544534e4150330a0000000000000001000000000000000802047669657702747648435245415445204d415445524941" +
		"4c495a454420564945572074762041532053454c45435420672c20434f554e54282a29204153206e2046524f4d207420" +
		"47524f555020425920670774726967676572037472672d43524541544520545249474745522074726720414654455220" +
		"494e53455254204f4e20742043414c4c202768270304755f6b7601750002016b017603745f7301740101017303745f67" +
		"0174000101670313095f5f766965775f74760201670200016e0200020000000000000006020200000000000000010200" +
		"000000000000020000000000000007020200000000000000020200000000000000011001740302696402050167020001" +
		"730400030000000000000001030200000000000000010200000000000000010401610000000000000002030200000000" +
		"000000020200000000000000010401620000000000000003030200000000000000030200000000000000020401630b01" +
		"7502016b0200017604020200000000000000040202000000000000000104017800000000000000050202000000000000" +
		"0002040179"
	fixtureWAL = "" +
		"45444957414c320a00000000000000010000002102876b80030174000000000000000803020000000000000004020000" +
		"000000000002040164000000139abd60c705095f5f766965775f74760000000000000007000000264808ab7b03095f5f" +
		"766965775f74760000000000000009020200000000000000020200000000000000020000002283c38438040174000000" +
		"000000000203020000000000000002020000000000000001040262620000000b484b3413050175000000000000000400" +
		"000008e727647a01017701016102000000000bffc22d490603775f61017700010161000000153e7cb9e0030177000000" +
		"000000000a010200000000000000050000001566fb379a030177000000000000000b010200000000000000060000000b" +
		"ef64b43d0104676f6e6501016102000000004866d2e2e1070774726967676572087472675f676f6e6535435245415445" +
		"2054524947474552207472675f676f6e6520414654455220494e53455254204f4e20676f6e652043414c4c2027682700" +
		"0000062a5636310204676f6e65"
	fixtureReplSnap = "" +
		"4544534e4150330a0000000000000000000000000000000003047669657702747648435245415445204d415445524941" +
		"4c495a454420564945572074762041532053454c45435420672c20434f554e54282a29204153206e2046524f4d207420" +
		"47524f555020425920670774726967676572037472672d43524541544520545249474745522074726720414654455220" +
		"494e53455254204f4e20742043414c4c202768270774726967676572087472675f676f6e653543524541544520545249" +
		"47474552207472675f676f6e6520414654455220494e53455254204f4e20676f6e652043414c4c202768270404755f6b" +
		"7601750002016b017603745f7301740101017303745f6701740001016703775f610177000101610413095f5f76696577" +
		"5f74760201670200016e0200020000000000000006020200000000000000010200000000000000020000000000000009" +
		"020200000000000000020200000000000000021001740302696402050167020001730400040000000000000001030200" +
		"000000000000010200000000000000010401610000000000000002030200000000000000020200000000000000010402" +
		"626200000000000000030302000000000000000302000000000000000204016300000000000000080302000000000000" +
		"00040200000000000000020401640b017502016b02000176040201000000000000000502020000000000000002040179" +
		"070177010161020002000000000000000a01020000000000000005000000000000000b01020000000000000006"
)

// TestParentFixtureOpens: the formats change only by the creation stamp
// taken out of each row. The directory opens, the
// store re-encodes to the parent's bytes except that the index
// definitions come in table-then-rank order rather than in creation
// order, and the engine loads it, dropping the orphan trigger.
func TestParentFixtureOpens(t *testing.T) {
	dir := t.TempDir()
	unhex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for name, data := range map[string]string{"ediflow.snapshot": fixtureSnapshot, "ediflow.wal": fixtureWAL} {
		if err := os.WriteFile(filepath.Join(dir, name), unhex(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.EncodeReplSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The parent's index section is bytes [236, 279): u_kv [236, 249),
	// t_s [249, 259), t_g [259, 269), w_a [269, 279).
	p := unhex(fixtureReplSnap)
	want := bytes.Join([][]byte{p[:236], p[259:269], p[249:259], p[236:249], p[269:]}, nil)
	if !bytes.Equal(got, want) {
		t.Errorf("re-encoded store differs from the parent's encoding:\n got %x\nwant %x", got, want)
	}
	e, err := New(st)
	if err != nil {
		t.Fatalf("engine.New over the parent's directory: %v", err)
	}
	defer e.Close()
	d := describe(t, e, "SELECT id FROM t WHERE g = 2", "SELECT id FROM t WHERE s = 'bb'")
	for _, must := range []string{
		"rows t [INT:1|INT:1|STRING:a| INT:2|INT:1|STRING:bb| INT:3|INT:2|STRING:c| INT:4|INT:2|STRING:d|]",
		"rows u [INT:2|STRING:y|]",
		"rows w [INT:5| INT:6|]",
		"rows tv [INT:1|INT:2| INT:2|INT:2|]",
		"trigger {Name:trg Event:INSERT Table:t Handler:h}",
		"scan t: index(t_g)",
		"scan t: index(t_s)",
	} {
		if !strings.Contains(d, must) {
			t.Errorf("no %q in\n%s", must, d)
		}
	}
	if strings.Contains(d, "trg_gone") {
		t.Errorf("orphan trigger survived:\n%s", d)
	}
	mustExec(t, e, "INSERT INTO t VALUES (5, 1, 'e')")
	if _, err := e.Exec("CREATE INDEX T_G ON u (k)"); err == nil {
		t.Error("index name of the loaded directory accepted again")
	}
}

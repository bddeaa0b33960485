package engine

import (
	"fmt"
	"strings"
	"testing"

	"ediflow/internal/types"
)

// A DML statement's rows are one set from match to log: one record in
// the WAL and the replication feed, one change event, one undo run.

// TestFailedStatementErrorOrder: a statement that fails reports the
// error a row-at-a-time run met first. Evaluating every VALUES row comes
// before storing any; a row's constraint error comes before a later
// row's SET, coercion or arity error. The texts are those the
// row-at-a-time engine reported.
func TestFailedStatementErrorOrder(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, g INT, s TEXT NOT NULL)")
	mustExec(t, e, "INSERT INTO t VALUES (10, 1, 'a'), (11, 1, 'b'), (12, 2, 'c')")
	want := renderRows(mustExec(t, e, "SELECT * FROM t"), false)
	for _, c := range []struct{ sql, err string }{
		{"UPDATE t SET id = id + 1, g = 10 / (g - 2)", "storage: t: duplicate primary key 11"},
		{"UPDATE t SET g = 10 / (g - 2), id = id + 1", "storage: t: duplicate primary key 11"},
		{"UPDATE t SET g = 'x' WHERE id = 12 OR id = 10", `engine: column t.g: types: cannot convert "x" to INT`},
		{"UPDATE t SET s = NULL, g = 10 / (g - 2)", "storage: t.s: NOT NULL violated"},
		{"UPDATE t SET g = 10 / (g - 2)", "types: division by zero"},
		{"INSERT INTO t VALUES (10, 1, 'z'), (4, 'x', 'y')", "storage: t: duplicate primary key 10"},
		{"INSERT INTO t VALUES (4, 'x', 'y'), (5, 1 / 0, 'z')", "types: division by zero"},
		{"INSERT INTO t VALUES (4, 1, 'y'), (4, 1)", "engine: INSERT into t: 2 values for 3 columns"},
		{"INSERT INTO t VALUES (4, 1, 'y'), (5, 1, NULL), (6, 'q', 'r')", "storage: t.s: NOT NULL violated"},
		{"INSERT INTO t (id, g) VALUES (7, 1)", "storage: t.s: NOT NULL violated"},
		{"INSERT INTO t SELECT id + 100, g, NULL FROM t", "storage: t.s: NOT NULL violated"},
		{"INSERT INTO t SELECT id + 100, 'q', s FROM t", `engine: column t.g: types: cannot convert "q" to INT`},
	} {
		_, err := e.Exec(c.sql)
		if err == nil || err.Error() != c.err {
			t.Errorf("%s: error %v, want %s", c.sql, err, c.err)
		}
		if got := renderRows(mustExec(t, e, "SELECT * FROM t"), false); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("after %s: %v, want %v", c.sql, got, want)
		}
	}
}

// TestFailedStatementWritesNoRecord: a statement that fails part-way
// through its rows leaves the table and the WAL as they were — no record
// is appended — and a statement that succeeds appends exactly one
// record, however many rows it writes. A failed INSERT gives back the
// tids its rows past the failing one drew.
func TestFailedStatementWritesNoRecord(t *testing.T) {
	e := openDir(t, t.TempDir())
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, g INT)")
	mustExec(t, e, "INSERT INTO t VALUES (10, 1), (11, 1), (12, 2)")
	appends := e.Store().Metrics().Counter("wal.appends")
	bytes := e.Store().Metrics().Counter("wal.bytes")
	for _, sql := range []string{
		"INSERT INTO t VALUES (1, 1), (2, 1), (1, 1)",
		"INSERT INTO t VALUES (3, 1), (4, 'x')",
		"UPDATE t SET id = id + 1",
		"UPDATE t SET g = 10 / (g - 2)",
	} {
		before, state, b0 := appends.Value(), describe(t, e), bytes.Value()
		if _, err := e.Exec(sql); err == nil {
			t.Fatalf("%s: succeeded", sql)
		}
		if got := appends.Value() - before; got != 0 || bytes.Value() != b0 {
			t.Errorf("%s: wal.appends advanced by %d, wal.bytes by %d, want 0", sql, got, bytes.Value()-b0)
		}
		if got := describe(t, e); got != state {
			t.Errorf("%s: state\n%s\nwant\n%s", sql, got, state)
		}
	}
	// The duplicate on the third row drew three tids, as a row-at-a-time
	// insert did; the next row gets the one after them.
	t0 := mustExec(t, e, "INSERT INTO t VALUES (8, 1)").TIDs[0]
	if _, err := e.Exec("INSERT INTO t VALUES (5, 1), (6, 1), (5, 1), (7, 1)"); err == nil {
		t.Fatal("a duplicate key succeeded")
	}
	if got := mustExec(t, e, "INSERT INTO t VALUES (9, 1)").TIDs[0]; got != t0+1+3 {
		t.Errorf("after a 4-row INSERT failing on its third row, the next tid is %d, want %d", got, t0+1+3)
	}
	for _, sql := range []string{
		"INSERT INTO t VALUES (20, 3), (21, 3), (22, 3), (23, 4)",
		"UPDATE t SET g = g + 10 WHERE id > 20",
		"DELETE FROM t WHERE id IN (20, 21, 22)",
		"INSERT INTO t SELECT id + 100, g FROM t",
	} {
		before := appends.Value()
		mustExec(t, e, sql)
		if got := appends.Value() - before; got != 1 {
			t.Errorf("%s: wal.appends advanced by %d, want 1", sql, got)
		}
	}
}

// TestRollbackOfSetStatements: ROLLBACK of a transaction of multi-row
// statements restores the tables and the views, and a replica fed the
// primary's records — the sets and their compensating sets — stays
// byte-identical to it.
func TestRollbackOfSetStatements(t *testing.T) {
	e := newTestDB(t)
	e.Store().EnableReplFeed(0)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, g INT, s TEXT)")
	mustExec(t, e, "CREATE MATERIALIZED VIEW tv AS SELECT g, COUNT(*) AS n, SUM(id) AS total FROM t GROUP BY g")
	var sb strings.Builder
	sb.WriteString("INSERT INTO t VALUES ")
	for i := 0; i < 40; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, 's%d')", i, i%4, i)
	}
	mustExec(t, e, sb.String())
	replica := newTestDB(t)
	ship := func() {
		t.Helper()
		recs, _, _, err := e.Store().ReplFetch(0, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		fresh := newTestDB(t)
		if _, err := fresh.ApplyReplicated(recs, ""); err != nil {
			t.Fatal(err)
		}
		replica = fresh
	}
	snapshot := func(x *Engine) string {
		t.Helper()
		b, err := x.Store().EncodeReplSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	before := describe(t, e)
	view := renderRows(mustExec(t, e, "SELECT * FROM tv ORDER BY g"), true)

	mustExec(t, e, "BEGIN")
	mustExec(t, e, "INSERT INTO t VALUES (100, 1, 'x'), (101, 2, 'y'), (102, 7, 'z')")
	mustExec(t, e, "UPDATE t SET g = g + 1, s = 'u' WHERE id % 3 = 0")
	mustExec(t, e, "DELETE FROM t WHERE id IN (1, 2, 3, 5, 8, 13, 21, 34, 100)")
	mustExec(t, e, "UPDATE t SET id = id + 1000 WHERE g = 2")
	mustExec(t, e, "ROLLBACK")

	if got := describe(t, e); got != before {
		t.Errorf("after ROLLBACK:\n%s\nwant:\n%s", got, before)
	}
	if got := renderRows(mustExec(t, e, "SELECT * FROM tv ORDER BY g"), true); fmt.Sprint(got) != fmt.Sprint(view) {
		t.Errorf("view after ROLLBACK %v, want %v", got, view)
	}
	ship()
	if snapshot(replica) != snapshot(e) {
		t.Error("replica fed the rolled-back sets is not byte-identical to the primary")
	}

	// The same statements committed: the replica again matches.
	mustExec(t, e, "BEGIN")
	mustExec(t, e, "INSERT INTO t VALUES (100, 1, 'x'), (101, 2, 'y')")
	mustExec(t, e, "DELETE FROM t WHERE id IN (1, 2, 3)")
	mustExec(t, e, "UPDATE t SET g = g + 1 WHERE id % 3 = 0")
	mustExec(t, e, "COMMIT")
	ship()
	if snapshot(replica) != snapshot(e) {
		t.Error("replica fed the committed sets is not byte-identical to the primary")
	}
	if v, r := rowSet(mustExec(t, e, "SELECT g, n, total FROM tv ORDER BY g")), rowSet(mustExec(t, e, "SELECT g, COUNT(*), SUM(id) FROM t GROUP BY g ORDER BY g")); fmt.Sprint(v) != fmt.Sprint(r) {
		t.Errorf("view %v, recompute %v", v, r)
	}
}

// TestApplyReplicatedWatchesEverySetRow: a multi-row insert into the
// watched table ships as one record, and ApplyReplicated returns each of
// its rows, so a replica rings a doorbell for every notification.
func TestApplyReplicatedWatchesEverySetRow(t *testing.T) {
	e := newTestDB(t)
	e.Store().EnableReplFeed(0)
	mustExec(t, e, "CREATE TABLE ef_notification (seq_no INT PRIMARY KEY, tbl TEXT)")
	mustExec(t, e, "INSERT INTO ef_notification VALUES (1, 'a'), (2, 'b'), (3, 'c')")
	recs, _, _, err := e.Store().ReplFetch(0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("%d records shipped, want create-table and one insert set", len(recs))
	}
	replica := newTestDB(t)
	watched, err := replica.ApplyReplicated(recs, "EF_Notification")
	if err != nil {
		t.Fatal(err)
	}
	want := []types.Row{
		{types.NewInt(1), types.NewString("a")},
		{types.NewInt(2), types.NewString("b")},
		{types.NewInt(3), types.NewString("c")},
	}
	if fmt.Sprint(watched) != fmt.Sprint(want) {
		t.Fatalf("watched rows %v, want %v", watched, want)
	}
}

package engine

import (
	"strings"
	"testing"

	"ediflow/internal/types"
)

func TestSysMetricsTable(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	mustExec(t, e, "SELECT * FROM users")

	res := mustExec(t, e, "SELECT name, kind, count FROM sys_metrics WHERE name = 'engine.statements'")
	if len(res.Rows) != 1 {
		t.Fatalf("sys_metrics engine.statements: %d rows", len(res.Rows))
	}
	if n, _ := res.Rows[0][2].AsInt(); n < 7 {
		t.Fatalf("engine.statements = %d, want ≥ 7", n)
	}
	if kind := res.Rows[0][1].AsString(); kind != "counter" {
		t.Fatalf("engine.statements kind = %q", kind)
	}

	// Histogram rows expose latency columns; counter rows expose NULLs
	// there — and the 3VL filter `sum_ms IS NULL` separates them.
	res = mustExec(t, e, "SELECT count(*) FROM sys_metrics WHERE kind = 'histogram' AND sum_ms IS NULL")
	if n, _ := res.Rows[0][0].AsInt(); n != 0 {
		t.Fatalf("%d histogram rows with NULL sum_ms", n)
	}
	res = mustExec(t, e, "SELECT count(*) FROM sys_metrics WHERE kind = 'counter' AND sum_ms IS NULL")
	if n, _ := res.Rows[0][0].AsInt(); n == 0 {
		t.Fatal("no counter rows with NULL sum_ms")
	}

	// Scans through real tables must be credited.
	res = mustExec(t, e, "SELECT count FROM sys_metrics WHERE name = 'engine.rows_scanned'")
	if n, _ := res.Rows[0][0].AsInt(); n < 5 {
		t.Fatalf("engine.rows_scanned = %d, want ≥ 5", n)
	}

	// WAL counters share the same namespace (zero for in-memory stores,
	// but present).
	res = mustExec(t, e, "SELECT count(*) FROM sys_metrics WHERE name LIKE 'wal.%'")
	if n, _ := res.Rows[0][0].AsInt(); n < 4 {
		t.Fatalf("%d wal.* rows, want ≥ 4", n)
	}
}

func TestSysSlowQueriesTable(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	e.SlowLog().SetThreshold(0) // record everything
	mustExec(t, e, "SELECT * FROM users WHERE city = 'paris'")
	if _, err := e.Exec("SELECT nope FROM users"); err == nil {
		t.Fatal("expected error for unknown column")
	}

	res := mustExec(t, e, "SELECT sql, rows_scanned, err FROM sys_slow_queries ORDER BY seq DESC")
	if len(res.Rows) < 2 {
		t.Fatalf("slow log has %d rows, want ≥ 2", len(res.Rows))
	}
	// Failed statements are recorded regardless of duration, with err set.
	sawErr := false
	for _, r := range res.Rows {
		if !r[2].IsNull() {
			sawErr = true
			if !strings.Contains(r[0].AsString(), "NOPE") && !strings.Contains(strings.ToLower(r[0].AsString()), "nope") {
				t.Fatalf("error entry sql = %q", r[0].AsString())
			}
		}
	}
	if !sawErr {
		t.Fatal("failed statement missing from slow log")
	}
}

func TestSysSessionsDefaultEmpty(t *testing.T) {
	e := newTestDB(t)
	res := mustExec(t, e, "SELECT * FROM sys_sessions")
	if len(res.Rows) != 0 {
		t.Fatalf("embedded sys_sessions has %d rows, want 0", len(res.Rows))
	}
	if len(res.Columns) != len(SysSessionsColumns) {
		t.Fatalf("sys_sessions columns = %v", res.Columns)
	}
}

func TestRegisterVirtualShadowsAndJoins(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	e.RegisterVirtual("sys_ages", []string{"age", "label"}, func() []types.Row {
		return []types.Row{
			{types.NewInt(30), types.NewString("thirty")},
			{types.NewInt(25), types.NewString("twentyfive")},
		}
	})
	res := mustExec(t, e,
		"SELECT u.name, a.label FROM users u JOIN sys_ages a ON u.age = a.age ORDER BY u.name")
	if len(res.Rows) != 2 {
		t.Fatalf("join with virtual table: %d rows, want 2", len(res.Rows))
	}
	if res.Rows[0][0].AsString() != "ana" || res.Rows[0][1].AsString() != "thirty" {
		t.Fatalf("join rows = %v", res.Rows)
	}

	// Replacing a provider (the server does this for sys_sessions).
	e.RegisterVirtual("sys_sessions", SysSessionsColumns, func() []types.Row {
		row := make(types.Row, len(SysSessionsColumns))
		for i := range row {
			row[i] = types.NewInt(1)
		}
		return []types.Row{row}
	})
	res = mustExec(t, e, "SELECT count(*) FROM sys_sessions")
	if n, _ := res.Rows[0][0].AsInt(); n != 1 {
		t.Fatalf("replaced sys_sessions count = %d", n)
	}
}

// TestVirtualTableRefusesWrites: a virtual table shadows a table of its
// name, so a write naming it would match the virtual rows — which have
// no tids — and used to panic under the write lock, leaving the engine
// locked. It is refused instead, and the table underneath is untouched.
func TestVirtualTableRefusesWrites(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, e, "INSERT INTO t VALUES (3, 30)")
	e.RegisterVirtual("t", []string{"id", "v"}, func() []types.Row {
		return []types.Row{{types.NewInt(3), types.NewInt(-1)}}
	})
	for _, sql := range []string{"UPDATE t SET v = 99 WHERE id = 3", "DELETE FROM t WHERE id = 3", "INSERT INTO t VALUES (4, 40)", "UPDATE sys_metrics SET count = 0"} {
		if _, err := e.Exec(sql); err == nil || !strings.Contains(err.Error(), "virtual table") {
			t.Errorf("%s: %v, want a refusal naming the virtual table", sql, err)
		}
	}
	if n := mustExec(t, e, "SELECT COUNT(*) FROM t").Rows[0][0].Int(); n != 1 {
		t.Errorf("the virtual t has %d rows, want 1", n)
	}
}

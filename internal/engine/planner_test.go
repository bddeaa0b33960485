package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"ediflow/internal/storage"
	"ediflow/internal/types"
)

// explainLines runs EXPLAIN on the statement and returns the plan lines.
func explainLines(t *testing.T, e *Engine, sql string, args ...types.Value) []string {
	t.Helper()
	res, err := execSQL(t, e, "EXPLAIN "+sql, args...)
	if err != nil {
		t.Fatalf("EXPLAIN %s: %v", sql, err)
	}
	var out []string
	for _, r := range res.Rows {
		out = append(out, r[0].String())
	}
	return out
}

func wantLine(t *testing.T, lines []string, want string) {
	t.Helper()
	for _, l := range lines {
		if l == want {
			return
		}
	}
	t.Fatalf("plan %q missing; got %v", want, lines)
}

// rowSet renders result rows order-insensitively for set comparison.
func rowSet(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = types.RowKey(r)
	}
	sort.Strings(out)
	return out
}

func sameRows(t *testing.T, got, want *Result, label string) {
	t.Helper()
	g, w := rowSet(got), rowSet(want)
	if len(g) != len(w) {
		t.Fatalf("%s: got %d rows, want %d\ngot:  %v\nwant: %v", label, len(g), len(w), g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: row sets differ\ngot:  %v\nwant: %v", label, g, w)
		}
	}
}

func TestExplainAccessPaths(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	mustExec(t, e, "CREATE TABLE emails (uid INT, addr STRING UNIQUE)")
	mustExec(t, e, "CREATE INDEX idx_users_city ON users (city)")

	cases := []struct {
		sql  string
		want string
	}{
		{"SELECT * FROM users WHERE id = 3", "scan users: pk-point"},
		{"SELECT * FROM users WHERE id = ? AND age > 10", "scan users: pk-point"},
		{"SELECT * FROM users WHERE _tid = 1", "scan users: pk-point"},
		{"SELECT * FROM users WHERE id IN (1, 2, 3)", "scan users: pk-point"},
		{"SELECT * FROM users WHERE city = 'paris'", "scan users: index(idx_users_city)"},
		{"SELECT * FROM users WHERE city IN ('paris', 'lyon')", "scan users: index(idx_users_city)"},
		{"SELECT * FROM users WHERE age > 30", "scan users: full-scan [compiled]"},
		{"SELECT * FROM users", "scan users: full-scan"},
		{"SELECT * FROM emails WHERE addr = 'a@b'", "scan emails: unique-point"},
		{"SELECT * FROM sys_metrics", "scan sys_metrics: virtual"},
		{"UPDATE users SET age = 1 WHERE id = 2", "update users: pk-point"},
		{"UPDATE users SET age = 1 WHERE city = 'nice'", "update users: index(idx_users_city)"},
		{"DELETE FROM users WHERE name = 'eve'", "delete users: full-scan [compiled]"},
		{"DELETE FROM users WHERE id IN (1, 9)", "delete users: pk-point"},
	}
	for _, c := range cases {
		wantLine(t, explainLines(t, e, c.sql), c.want)
	}

	// Joins: equality ON → hash-join; inequality ON → nested-loop.
	lines := explainLines(t, e, "SELECT * FROM users u JOIN emails m ON u.id = m.uid")
	wantLine(t, lines, "join m: hash-join")
	lines = explainLines(t, e, "SELECT * FROM users u JOIN emails m ON u.id > m.uid")
	wantLine(t, lines, "join m: nested-loop")

	// ORDER BY + literal LIMIT reports the bounded sort.
	lines = explainLines(t, e, "SELECT * FROM users ORDER BY age DESC LIMIT 2")
	wantLine(t, lines, "sort: top-k(2)")
	lines = explainLines(t, e, "SELECT * FROM users ORDER BY age")
	wantLine(t, lines, "sort: full")
}

func TestCreateIndexBackfillAndPlannerPickup(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)

	// Oracle result before any index exists (full scan).
	oracle := mustExec(t, e, "SELECT id, name FROM users WHERE city = 'paris'")
	wantLine(t, explainLines(t, e, "SELECT * FROM users WHERE city = 'paris'"), "scan users: full-scan [compiled]")

	// CREATE INDEX on a populated table backfills existing rows and is
	// chosen by the planner immediately.
	mustExec(t, e, "CREATE INDEX idx_city ON users (city)")
	wantLine(t, explainLines(t, e, "SELECT * FROM users WHERE city = 'paris'"), "scan users: index(idx_city)")
	got := mustExec(t, e, "SELECT id, name FROM users WHERE city = 'paris'")
	sameRows(t, got, oracle, "indexed vs full-scan")
	if len(got.Rows) != 3 {
		t.Fatalf("want 3 paris rows, got %d", len(got.Rows))
	}
}

func TestInFastPathDeduplicates(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)

	res := mustExec(t, e, "SELECT id FROM users WHERE id IN (5, 5)")
	if len(res.Rows) != 1 {
		t.Fatalf("pk IN (5,5): want 1 row, got %d", len(res.Rows))
	}
	res = mustExec(t, e, "SELECT id FROM users WHERE _tid IN (?, ?)",
		types.NewInt(1), types.NewInt(1))
	if len(res.Rows) != 1 {
		t.Fatalf("_tid IN (x,x): want 1 row, got %d", len(res.Rows))
	}
	// Same through a secondary index.
	mustExec(t, e, "CREATE INDEX idx_city2 ON users (city)")
	res = mustExec(t, e, "SELECT id FROM users WHERE city IN ('nice', 'nice')")
	if len(res.Rows) != 1 {
		t.Fatalf("indexed IN dup: want 1 row, got %d", len(res.Rows))
	}
}

func TestIndexMaintenanceAcrossMutationsAndReplay(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(st)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "CREATE TABLE items (id INT PRIMARY KEY, cat STRING, n INT)")
	for i := 0; i < 50; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO items (id, cat, n) VALUES (%d, 'c%d', %d)", i, i%5, i))
	}
	mustExec(t, e, "CREATE INDEX idx_cat ON items (cat)")

	// Mutations must keep the index in sync: moves in and out of buckets.
	mustExec(t, e, "UPDATE items SET cat = 'c9' WHERE id = 7")   // c2 → c9
	mustExec(t, e, "UPDATE items SET n = n + 100 WHERE id = 12") // key unchanged
	mustExec(t, e, "DELETE FROM items WHERE id = 17")            // leaves c2

	check := func(e *Engine, label string) {
		t.Helper()
		wantLine(t, explainLines(t, e, "SELECT * FROM items WHERE cat = 'c2'"), "scan items: index(idx_cat)")
		got := mustExec(t, e, "SELECT id FROM items WHERE cat = 'c2'")
		// Full-scan oracle: disable index use by obscuring the predicate.
		oracle := mustExec(t, e, "SELECT id FROM items WHERE cat || '' = 'c2'")
		sameRows(t, got, oracle, label)
		for _, r := range got.Rows {
			if id := r[0].Int(); id == 7 || id == 17 {
				t.Fatalf("%s: stale index entry for id %d", label, id)
			}
		}
		one := mustExec(t, e, "SELECT n FROM items WHERE cat = 'c9'")
		if len(one.Rows) != 1 {
			t.Fatalf("%s: want 1 row in c9, got %d", label, len(one.Rows))
		}
	}
	check(e, "live")

	// Reopen from the WAL: index definitions and contents must survive.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := New(st2)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	check(e2, "replayed")
}

func TestPlanCacheHitMissAndDDLInvalidation(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)

	miss0, hit0 := e.mPlanMiss.Value(), e.mPlanHit.Value()
	const q = "SELECT name FROM users WHERE id = ?"
	if _, err := execSQL(t, e, q, types.NewInt(1)); err != nil {
		t.Fatal(err)
	}
	if got := e.mPlanMiss.Value() - miss0; got != 1 {
		t.Fatalf("first exec: want 1 miss, got %d", got)
	}
	for i := 0; i < 3; i++ {
		if _, err := execSQL(t, e, q, types.NewInt(int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.mPlanHit.Value() - hit0; got != 3 {
		t.Fatalf("repeats: want 3 hits, got %d", got)
	}

	// DDL purges the cache.
	if e.plans.len() == 0 {
		t.Fatal("cache unexpectedly empty before DDL")
	}
	mustExec(t, e, "CREATE INDEX idx_tmp ON users (name)")
	if n := e.plans.len(); n != 0 {
		t.Fatalf("cache not purged by DDL: %d entries", n)
	}

	// Regression: drop + recreate with a different shape must not serve a
	// stale plan for the same SQL text.
	const probe = "SELECT * FROM users WHERE id = 1"
	r1 := mustExec(t, e, probe)
	mustExec(t, e, "DROP TABLE users")
	if _, err := execSQL(t, e, probe); err == nil {
		t.Fatal("query against dropped table should fail")
	}
	mustExec(t, e, "CREATE TABLE users (id INT PRIMARY KEY, flag INT)")
	mustExec(t, e, "INSERT INTO users (id, flag) VALUES (1, 42)")
	r2 := mustExec(t, e, probe)
	if len(r1.Columns) == len(r2.Columns) {
		t.Fatalf("recreated table should project differently: %v vs %v", r1.Columns, r2.Columns)
	}
	if len(r2.Rows) != 1 || r2.Rows[0][1].Int() != 42 {
		t.Fatalf("recreated table query wrong: %+v", r2.Rows)
	}
}

func TestScanAccountingCountsExaminedRows(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)

	// Full scan with a selective predicate: all 5 rows are examined even
	// though only 1 is returned.
	s0 := e.mRowsScanned.Value()
	res := mustExec(t, e, "SELECT * FROM users WHERE name = 'dan'")
	if len(res.Rows) != 1 {
		t.Fatalf("want 1 row, got %d", len(res.Rows))
	}
	if got := e.mRowsScanned.Value() - s0; got != 5 {
		t.Fatalf("full scan: want 5 rows examined, got %d", got)
	}

	// Point lookup examines only the candidate.
	s0 = e.mRowsScanned.Value()
	mustExec(t, e, "SELECT * FROM users WHERE id = 3")
	if got := e.mRowsScanned.Value() - s0; got != 1 {
		t.Fatalf("pk point: want 1 row examined, got %d", got)
	}

	// rows_returned is tracked separately.
	r0 := e.mRowsReturned.Value()
	mustExec(t, e, "SELECT * FROM users")
	if got := e.mRowsReturned.Value() - r0; got != 5 {
		t.Fatalf("want 5 rows returned, got %d", got)
	}
}

func TestTopKMatchesFullSort(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE pts (id INT PRIMARY KEY, v INT, w STRING)")
	// Values with duplicates so stability matters; insertion order is id.
	vals := []int{5, 3, 8, 3, 9, 1, 8, 3, 7, 0, 9, 2}
	for i, v := range vals {
		mustExec(t, e, fmt.Sprintf("INSERT INTO pts (id, v, w) VALUES (%d, %d, 'w%d')", i, v, i))
	}

	full := mustExec(t, e, "SELECT id, v FROM pts ORDER BY v, id")
	for _, tc := range []struct{ limit, offset int }{
		{3, 0}, {1, 0}, {5, 2}, {12, 0}, {100, 0}, {4, 10},
	} {
		sql := fmt.Sprintf("SELECT id, v FROM pts ORDER BY v, id LIMIT %d", tc.limit)
		if tc.offset > 0 {
			sql += fmt.Sprintf(" OFFSET %d", tc.offset)
		}
		got := mustExec(t, e, sql)
		lo := tc.offset
		if lo > len(full.Rows) {
			lo = len(full.Rows)
		}
		hi := lo + tc.limit
		if hi > len(full.Rows) {
			hi = len(full.Rows)
		}
		want := full.Rows[lo:hi]
		if len(got.Rows) != len(want) {
			t.Fatalf("%s: got %d rows, want %d", sql, len(got.Rows), len(want))
		}
		for i := range want {
			if types.RowKey(got.Rows[i]) != types.RowKey(want[i]) {
				t.Fatalf("%s: row %d = %v, want %v", sql, i, got.Rows[i], want[i])
			}
		}
	}

	// Ties without an id tie-break still come back in insertion order
	// (stable ordering), and DESC with a parameterized limit works.
	got := mustExec(t, e, "SELECT id FROM pts ORDER BY v LIMIT 2")
	if got.Rows[0][0].Int() != 9 || got.Rows[1][0].Int() != 5 {
		t.Fatalf("stable ties broken: %+v", got.Rows)
	}
	got = mustExec(t, e, "SELECT id, v FROM pts ORDER BY v DESC LIMIT ?", types.NewInt(2))
	if len(got.Rows) != 2 || got.Rows[0][1].Int() != 9 {
		t.Fatalf("desc top-k wrong: %+v", got.Rows)
	}
}

func TestMultiColumnHashJoin(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE l (a INT, b INT, tag STRING)")
	mustExec(t, e, "CREATE TABLE r (c INT, d INT, pay INT)")
	for i := 0; i < 20; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO l (a, b, tag) VALUES (%d, %d, 't%d')", i%4, i%3, i))
		mustExec(t, e, fmt.Sprintf("INSERT INTO r (c, d, pay) VALUES (%d, %d, %d)", i%5, i%3, i*10))
	}

	// EXPLAIN classifies the two-column equality as a hash join.
	wantLine(t, explainLines(t, e, "SELECT * FROM l JOIN r ON a = c AND b = d"), "join r: hash-join")

	// Oracle: the same predicate via cross product + WHERE.
	got := mustExec(t, e, "SELECT tag, pay FROM l JOIN r ON a = c AND b = d")
	want := mustExec(t, e, "SELECT tag, pay FROM l, r WHERE a = c AND b = d")
	if len(got.Rows) == 0 {
		t.Fatal("join produced no rows")
	}
	sameRows(t, got, want, "multi-column hash join")

	// Residual conjunct rides along with the equalities.
	got = mustExec(t, e, "SELECT tag, pay FROM l JOIN r ON a = c AND b = d AND pay > 50")
	want = mustExec(t, e, "SELECT tag, pay FROM l, r WHERE a = c AND b = d AND pay > 50")
	sameRows(t, got, want, "hash join with residual")

	// LEFT JOIN pads rows whose key misses (or whose residual fails).
	mustExec(t, e, "INSERT INTO l (a, b, tag) VALUES (99, 99, 'orphan')")
	got = mustExec(t, e, "SELECT tag, pay FROM l LEFT JOIN r ON a = c AND b = d")
	foundOrphan := false
	for _, row := range got.Rows {
		if row[0].String() == "orphan" {
			foundOrphan = true
			if !row[1].IsNull() {
				t.Fatalf("orphan row not padded: %+v", row)
			}
		}
	}
	if !foundOrphan {
		t.Fatal("LEFT JOIN dropped unmatched row")
	}
}

func TestJoinProbesStorageIndex(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE orders (oid INT PRIMARY KEY, uid INT)")
	mustExec(t, e, "CREATE TABLE users2 (id INT PRIMARY KEY, city STRING)")
	for i := 0; i < 30; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO users2 (id, city) VALUES (%d, 'c%d')", i, i%3))
		mustExec(t, e, fmt.Sprintf("INSERT INTO orders (oid, uid) VALUES (%d, %d)", i, (i*7)%35))
	}

	// Right side keyed on its primary key: probed through its index.
	s0 := e.mRowsScanned.Value()
	got := mustExec(t, e, "SELECT oid, city FROM orders o JOIN users2 u ON o.uid = u.id")
	probeScanned := e.mRowsScanned.Value() - s0
	want := mustExec(t, e, "SELECT oid, city FROM orders o, users2 u WHERE o.uid = u.id")
	sameRows(t, got, want, "pk-probe join")
	// The probe fetches at most one users2 row per order instead of
	// materializing all 30; plus the 30-row orders scan.
	if probeScanned > 60 {
		t.Fatalf("probe join scanned %d rows, expected <= 60", probeScanned)
	}

	// Right side with a secondary index over the join column.
	mustExec(t, e, "CREATE INDEX idx_u2_city ON users2 (city)")
	mustExec(t, e, "CREATE TABLE cities (name STRING)")
	mustExec(t, e, "INSERT INTO cities (name) VALUES ('c0'), ('c1'), ('zzz')")
	got = mustExec(t, e, "SELECT name, id FROM cities JOIN users2 ON name = city")
	want = mustExec(t, e, "SELECT name, id FROM cities, users2 WHERE name = city")
	sameRows(t, got, want, "secondary-index-probe join")

	// LEFT variant keeps the unmatched city padded.
	got = mustExec(t, e, "SELECT name, id FROM cities LEFT JOIN users2 ON name = city")
	pad := 0
	for _, row := range got.Rows {
		if row[1].IsNull() {
			pad++
			if row[0].String() != "zzz" {
				t.Fatalf("wrong padded row: %+v", row)
			}
		}
	}
	if pad != 1 {
		t.Fatalf("want 1 padded row, got %d", pad)
	}
}

func TestUniqueColumnPath(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE accts (id INT PRIMARY KEY, email STRING UNIQUE, bal INT)")
	for i := 0; i < 10; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO accts (id, email, bal) VALUES (%d, 'u%d@x', %d)", i, i, i*100))
	}
	wantLine(t, explainLines(t, e, "SELECT * FROM accts WHERE email = 'u4@x'"), "scan accts: unique-point")
	res := mustExec(t, e, "SELECT bal FROM accts WHERE email = 'u4@x'")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 400 {
		t.Fatalf("unique lookup wrong: %+v", res.Rows)
	}
	// Unbound-parameter EXPLAIN still reports the path, and execution
	// with the argument bound returns the right row.
	wantLine(t, explainLines(t, e, "SELECT * FROM accts WHERE email = ?"), "scan accts: unique-point")
	res = mustExec(t, e, "SELECT bal FROM accts WHERE email = ?", types.NewString("u7@x"))
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 700 {
		t.Fatalf("unique param lookup wrong: %+v", res.Rows)
	}
	// NULL key matches nothing (SQL semantics), via the index path.
	res = mustExec(t, e, "SELECT bal FROM accts WHERE email = ?", types.Null)
	if len(res.Rows) != 0 {
		t.Fatalf("NULL key should match nothing, got %d rows", len(res.Rows))
	}
}

func TestExplainRoundTripThroughPrinter(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	// The slow-query log renders statements with String(); EXPLAIN must
	// print back to parseable SQL.
	lines := explainLines(t, e, "SELECT name FROM users WHERE id = 1")
	if len(lines) == 0 {
		t.Fatal("no plan lines")
	}
	if !strings.HasPrefix(lines[0], "scan users:") {
		t.Fatalf("unexpected first line %q", lines[0])
	}
}

package engine

import (
	"fmt"
	"testing"

	"ediflow/internal/storage"
	"ediflow/internal/types"
)

// newTestDB returns an in-memory engine.
func newTestDB(t testing.TB) *Engine {
	t.Helper()
	st, err := storage.Open("")
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(st)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func mustExec(t testing.TB, e *Engine, sql string, args ...types.Value) *Result {
	t.Helper()
	res, err := execSQL(t, e, sql, args...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func seedUsers(t testing.TB, e *Engine) {
	t.Helper()
	mustExec(t, e, "CREATE TABLE users (id INT PRIMARY KEY, name STRING NOT NULL, age INT, city STRING)")
	rows := []string{
		"(1, 'ana', 30, 'paris')",
		"(2, 'bob', 25, 'lyon')",
		"(3, 'carol', 35, 'paris')",
		"(4, 'dan', NULL, 'nice')",
		"(5, 'eve', 28, 'paris')",
	}
	for _, r := range rows {
		mustExec(t, e, "INSERT INTO users (id, name, age, city) VALUES "+r)
	}
}

func TestCreateInsertSelect(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	res := mustExec(t, e, "SELECT id, name FROM users ORDER BY id")
	if len(res.Rows) != 5 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	if res.Columns[0] != "id" || res.Columns[1] != "name" {
		t.Fatalf("columns: %v", res.Columns)
	}
	if res.Rows[0][1].Str() != "ana" || res.Rows[4][1].Str() != "eve" {
		t.Fatalf("%v", res.Rows)
	}
}

func TestSelectWhereAndProjection(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	res := mustExec(t, e, "SELECT name FROM users WHERE city = 'paris' AND age > 28 ORDER BY name")
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %v", res.Rows)
	}
	if res.Rows[0][0].Str() != "ana" || res.Rows[1][0].Str() != "carol" {
		t.Fatalf("%v", res.Rows)
	}
}

func TestSelectExpressionsAndAliases(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	res := mustExec(t, e, "SELECT id * 10 AS tens, UPPER(name) AS nm FROM users WHERE id = 2")
	if res.Columns[0] != "tens" || res.Columns[1] != "nm" {
		t.Fatalf("cols: %v", res.Columns)
	}
	if res.Rows[0][0].Int() != 20 || res.Rows[0][1].Str() != "BOB" {
		t.Fatalf("%v", res.Rows)
	}
}

func TestSelectNoFrom(t *testing.T) {
	e := newTestDB(t)
	res := mustExec(t, e, "SELECT 1 + 2 AS x, 'hi' AS s")
	if res.Rows[0][0].Int() != 3 || res.Rows[0][1].Str() != "hi" {
		t.Fatalf("%v", res.Rows)
	}
}

func TestNullPredicates(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	res := mustExec(t, e, "SELECT name FROM users WHERE age IS NULL")
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "dan" {
		t.Fatalf("%v", res.Rows)
	}
	// Comparison with NULL is false, so dan is excluded from both sides.
	res = mustExec(t, e, "SELECT COUNT(*) FROM users WHERE age > 0 OR age <= 0")
	if res.Rows[0][0].Int() != 4 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestAggregates(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	res := mustExec(t, e, "SELECT COUNT(*), COUNT(age), SUM(age), AVG(age), MIN(age), MAX(age) FROM users")
	r := res.Rows[0]
	if r[0].Int() != 5 || r[1].Int() != 4 || r[2].Int() != 118 {
		t.Fatalf("%v", r)
	}
	if r[3].Float() != 29.5 || r[4].Int() != 25 || r[5].Int() != 35 {
		t.Fatalf("%v", r)
	}
}

func TestAggregateEmptyTable(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (a INT)")
	res := mustExec(t, e, "SELECT COUNT(*), SUM(a) FROM t")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 0 || !res.Rows[0][1].IsNull() {
		t.Fatalf("%v", res.Rows)
	}
}

func TestGroupByHaving(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	res := mustExec(t, e, "SELECT city, COUNT(*) AS n, AVG(age) FROM users GROUP BY city HAVING COUNT(*) > 1 ORDER BY n DESC")
	if len(res.Rows) != 1 {
		t.Fatalf("%v", res.Rows)
	}
	if res.Rows[0][0].Str() != "paris" || res.Rows[0][1].Int() != 3 || res.Rows[0][2].Float() != 31.0 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestCountDistinct(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	res := mustExec(t, e, "SELECT COUNT(DISTINCT city) FROM users")
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestDistinct(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	res := mustExec(t, e, "SELECT DISTINCT city FROM users ORDER BY city")
	if len(res.Rows) != 3 || res.Rows[0][0].Str() != "lyon" {
		t.Fatalf("%v", res.Rows)
	}
}

func TestOrderLimitOffset(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	res := mustExec(t, e, "SELECT id FROM users ORDER BY age DESC LIMIT 2 OFFSET 1")
	// ages: 35(carol,3), 30(ana,1), 28(eve,5), 25(bob,2), NULL(dan,4 sorts last desc? NULL first asc → last desc)
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 1 || res.Rows[1][0].Int() != 5 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestOrderByAliasAndPosition(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	res := mustExec(t, e, "SELECT name, age * 2 AS dbl FROM users WHERE age IS NOT NULL ORDER BY dbl")
	if res.Rows[0][0].Str() != "bob" {
		t.Fatalf("%v", res.Rows)
	}
	res = mustExec(t, e, "SELECT name, age FROM users WHERE age IS NOT NULL ORDER BY 2 DESC")
	if res.Rows[0][0].Str() != "carol" {
		t.Fatalf("%v", res.Rows)
	}
}

func TestJoins(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	mustExec(t, e, "CREATE TABLE orders (oid INT PRIMARY KEY, uid INT, total FLOAT)")
	for i, o := range []string{"(1, 1, 10.5)", "(2, 1, 20.0)", "(3, 2, 5.0)", "(4, 99, 7.0)"} {
		_ = i
		mustExec(t, e, "INSERT INTO orders VALUES "+o)
	}
	// INNER (hash join path).
	res := mustExec(t, e, "SELECT u.name, o.total FROM users u JOIN orders o ON u.id = o.uid ORDER BY o.total")
	if len(res.Rows) != 3 {
		t.Fatalf("%v", res.Rows)
	}
	// LEFT join pads with NULLs.
	res = mustExec(t, e, "SELECT u.name, o.oid FROM users u LEFT JOIN orders o ON u.id = o.uid WHERE o.oid IS NULL ORDER BY u.name")
	if len(res.Rows) != 3 { // carol, dan, eve have no orders
		t.Fatalf("%v", res.Rows)
	}
	// Cartesian product (paper's algebra).
	res = mustExec(t, e, "SELECT COUNT(*) FROM users, orders")
	if res.Rows[0][0].Int() != 20 {
		t.Fatalf("%v", res.Rows)
	}
	// Join + aggregation.
	res = mustExec(t, e, "SELECT u.name, SUM(o.total) AS s FROM users u JOIN orders o ON u.id = o.uid GROUP BY u.name ORDER BY s DESC")
	if res.Rows[0][0].Str() != "ana" || res.Rows[0][1].Float() != 30.5 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestSubqueries(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	res := mustExec(t, e, "SELECT name FROM users WHERE id IN (SELECT id FROM users WHERE city = 'paris') ORDER BY name")
	if len(res.Rows) != 3 {
		t.Fatalf("%v", res.Rows)
	}
	res = mustExec(t, e, "SELECT name FROM users WHERE id NOT IN (SELECT id FROM users WHERE city = 'paris') ORDER BY name")
	if len(res.Rows) != 2 {
		t.Fatalf("%v", res.Rows)
	}
	res = mustExec(t, e, "SELECT (SELECT COUNT(*) FROM users) AS n")
	if res.Rows[0][0].Int() != 5 {
		t.Fatalf("%v", res.Rows)
	}
	// FROM subquery.
	res = mustExec(t, e, "SELECT s.city, s.n FROM (SELECT city, COUNT(*) AS n FROM users GROUP BY city) AS s WHERE s.n > 1")
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "paris" {
		t.Fatalf("%v", res.Rows)
	}
}

// TestSystemColumns: _created is monotonic with insertion order and is
// the tuple's tid. _created = _tid holds for every row of every table,
// a view's backing table included, after each way a row comes to be
// stored or taken back, on the primary, after a reopen and on a replica;
// and CurrentStamp is the newest tid drawn.
func TestSystemColumns(t *testing.T) {
	dir := t.TempDir()
	e := openDir(t, dir)
	e.Store().EnableReplFeed(0)
	seedUsers(t, e)
	res := mustExec(t, e, "SELECT _tid, _created, id FROM users ORDER BY _created")
	if len(res.Rows) != 5 {
		t.Fatalf("%v", res.Rows)
	}
	// _created is monotonic with insertion order.
	for i := 1; i < 5; i++ {
		if res.Rows[i][1].Int() <= res.Rows[i-1][1].Int() {
			t.Fatalf("created not monotonic: %v", res.Rows)
		}
	}
	// System columns are excluded from *.
	res = mustExec(t, e, "SELECT * FROM users LIMIT 1")
	if len(res.Columns) != 4 {
		t.Fatalf("star leaked system columns: %v", res.Columns)
	}

	// check: every row of x has _created = _tid, none above CurrentStamp.
	check := func(x *Engine, step string) {
		t.Helper()
		top := int64(0)
		for _, name := range x.Store().TableNames() {
			for _, r := range mustExec(t, x, "SELECT _tid, _created FROM "+name).Rows {
				if r[0].Int() != r[1].Int() {
					t.Fatalf("%s: %s has _tid %d, _created %d", step, name, r[0].Int(), r[1].Int())
				}
				top = max(top, r[0].Int())
			}
		}
		if got := x.Store().CurrentStamp(); got < top {
			t.Fatalf("%s: CurrentStamp %d below tid %d", step, got, top)
		}
	}
	// probe checks e, then that its next tid follows CurrentStamp and
	// becomes it.
	mustExec(t, e, "CREATE TABLE probe (n INT)")
	probe := func(step string) {
		t.Helper()
		check(e, step)
		was := e.Store().CurrentStamp()
		tid := mustExec(t, e, "INSERT INTO probe VALUES (?)", types.NewInt(was)).TIDs[0]
		if now := e.Store().CurrentStamp(); tid != was+1 || now != tid {
			t.Fatalf("%s: stamp %d, next tid %d, stamp then %d", step, was, tid, now)
		}
	}
	mustExec(t, e, "CREATE MATERIALIZED VIEW by_city AS SELECT city, COUNT(*) AS n FROM users GROUP BY city")
	probe("view created")

	mustExec(t, e, "BEGIN")
	mustExec(t, e, "INSERT INTO users VALUES (6, 'fay', 40, 'lyon'), (7, 'gus', 41, 'lyon')")
	mustExec(t, e, "ROLLBACK")
	probe("INSERT rolled back")

	// The second row fails: the third gives its tid back, the second
	// keeps it (inserted one at a time, it drew one).
	was := e.Store().CurrentStamp()
	if _, err := e.Exec("INSERT INTO users VALUES (8, 'hal', 1, 'nice'), (1, 'dup', 1, 'nice'), (9, 'ivy', 1, 'nice')"); err == nil {
		t.Fatal("INSERT of a duplicate key succeeded")
	}
	if got := e.Store().CurrentStamp(); got != was+2 {
		t.Fatalf("failed INSERT: stamp %d, want %d", got, was+2)
	}
	probe("INSERT failed part-way")

	paris := "SELECT _tid, _created, id FROM users WHERE city = 'paris' ORDER BY id"
	before := fmt.Sprint(mustExec(t, e, paris).Rows)
	mustExec(t, e, "BEGIN")
	mustExec(t, e, "DELETE FROM users WHERE city = 'paris'")
	mustExec(t, e, "ROLLBACK")
	if after := fmt.Sprint(mustExec(t, e, paris).Rows); after != before {
		t.Fatalf("DELETE rolled back: rows %s, were %s", after, before)
	}
	probe("DELETE rolled back")

	mustExec(t, e, "UPDATE users SET city = 'nice' WHERE id = 2")
	mustExec(t, e, "INSERT INTO users VALUES (10, 'jo', 22, 'metz')")
	mustExec(t, e, "DELETE FROM users WHERE id = 4")
	if n := len(mustExec(t, e, "SELECT city FROM __view_by_city").Rows); n != 3 {
		t.Fatalf("view backing table holds %d groups, want 3", n)
	}
	probe("view maintained")

	replica := newTestDB(t)
	recs, _, _, err := e.Store().ReplFetch(0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replica.ApplyReplicated(recs, ""); err != nil {
		t.Fatal(err)
	}
	stamp := e.Store().CurrentStamp()
	check(replica, "replica after WAL records")
	snap, _, err := e.ReplSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.ApplyReplSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	check(replica, "replica after snapshot")
	if got := replica.Store().CurrentStamp(); got != stamp {
		t.Fatalf("replica stamp %d, primary %d", got, stamp)
	}

	// Reopen from the WAL, then from a checkpoint's snapshot. Opening
	// writes nothing to the view's backing rows (restoreView): they hold
	// what the view holds, so no tid is drawn.
	for _, step := range []string{"reopened from the WAL", "reopened from a snapshot"} {
		if step == "reopened from a snapshot" {
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		stamp := e.Store().CurrentStamp()
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		e = openDir(t, dir)
		if got := e.Store().CurrentStamp(); got != stamp {
			t.Fatalf("%s: stamp %d, want %d", step, got, stamp)
		}
		probe(step)
	}
}

func TestUpdateDelete(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	res := mustExec(t, e, "UPDATE users SET age = age + 1 WHERE city = 'paris'")
	if res.Affected != 3 {
		t.Fatalf("affected: %d", res.Affected)
	}
	res = mustExec(t, e, "SELECT SUM(age) FROM users WHERE city = 'paris'")
	if res.Rows[0][0].Int() != 96 {
		t.Fatalf("%v", res.Rows)
	}
	res = mustExec(t, e, "DELETE FROM users WHERE age IS NULL")
	if res.Affected != 1 {
		t.Fatalf("affected: %d", res.Affected)
	}
	res = mustExec(t, e, "SELECT COUNT(*) FROM users")
	if res.Rows[0][0].Int() != 4 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestParams(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	res := mustExec(t, e, "SELECT name FROM users WHERE id = ?", types.NewInt(3))
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "carol" {
		t.Fatalf("%v", res.Rows)
	}
	mustExec(t, e, "INSERT INTO users (id, name, age, city) VALUES (?, ?, ?, ?)",
		types.NewInt(6), types.NewString("frank"), types.NewInt(40), types.NewString("lille"))
	res = mustExec(t, e, "SELECT COUNT(*) FROM users")
	if res.Rows[0][0].Int() != 6 {
		t.Fatalf("%v", res.Rows)
	}
	if _, err := e.Exec("SELECT * FROM users WHERE id = ?"); err == nil {
		t.Error("missing parameter must error")
	}
}

func TestConstraintViolations(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	if _, err := e.Exec("INSERT INTO users (id, name) VALUES (1, 'dup')"); err == nil {
		t.Error("duplicate pk must fail")
	}
	if _, err := e.Exec("INSERT INTO users (id, name) VALUES (10, NULL)"); err == nil {
		t.Error("NOT NULL must fail")
	}
	// Type coercion: string '42' into INT column works; 'xyz' fails.
	mustExec(t, e, "INSERT INTO users (id, name, age) VALUES (11, 'x', '42')")
	if _, err := e.Exec("INSERT INTO users (id, name, age) VALUES (12, 'y', 'xyz')"); err == nil {
		t.Error("bad coercion must fail")
	}
}

func TestInsertSelect(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	mustExec(t, e, "CREATE TABLE parisians (id INT PRIMARY KEY, name STRING)")
	res := mustExec(t, e, "INSERT INTO parisians SELECT id, name FROM users WHERE city = 'paris'")
	if res.Affected != 3 || len(res.TIDs) != 3 {
		t.Fatalf("%+v", res)
	}
}

func TestTransactions(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	mustExec(t, e, "BEGIN")
	mustExec(t, e, "INSERT INTO users (id, name) VALUES (10, 'tmp')")
	mustExec(t, e, "UPDATE users SET name = 'ANA' WHERE id = 1")
	mustExec(t, e, "DELETE FROM users WHERE id = 2")
	mustExec(t, e, "ROLLBACK")
	res := mustExec(t, e, "SELECT COUNT(*) FROM users")
	if res.Rows[0][0].Int() != 5 {
		t.Fatalf("count after rollback: %v", res.Rows)
	}
	res = mustExec(t, e, "SELECT name FROM users WHERE id = 1")
	if res.Rows[0][0].Str() != "ana" {
		t.Fatalf("update not rolled back: %v", res.Rows)
	}
	res = mustExec(t, e, "SELECT COUNT(*) FROM users WHERE id = 2")
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("delete not rolled back")
	}

	// Commit keeps changes.
	mustExec(t, e, "BEGIN")
	mustExec(t, e, "INSERT INTO users (id, name) VALUES (10, 'kept')")
	mustExec(t, e, "COMMIT")
	res = mustExec(t, e, "SELECT COUNT(*) FROM users")
	if res.Rows[0][0].Int() != 6 {
		t.Fatalf("commit lost rows")
	}

	if _, err := e.Exec("COMMIT"); err == nil {
		t.Error("COMMIT without BEGIN must fail")
	}
	if _, err := e.Exec("ROLLBACK"); err == nil {
		t.Error("ROLLBACK without BEGIN must fail")
	}
}

func TestTriggersStatementLevel(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	var events []ChangeEvent
	e.RegisterBatchHandler("audit", func(evs []ChangeEvent) { events = append(events, evs...) })
	mustExec(t, e, "CREATE TRIGGER audit_ins AFTER INSERT ON users CALL 'audit'")
	mustExec(t, e, "CREATE TRIGGER audit_del AFTER DELETE ON users CALL 'audit'")

	mustExec(t, e, "INSERT INTO users (id, name) VALUES (10, 'x'), (11, 'y')")
	if len(events) != 1 {
		t.Fatalf("statement-level trigger fired %d times", len(events))
	}
	if events[0].Op != OpInsert || len(events[0].TIDs) != 2 {
		t.Fatalf("%+v", events[0])
	}
	mustExec(t, e, "UPDATE users SET city = 'x' WHERE id = 10") // no UPDATE trigger registered
	if len(events) != 1 {
		t.Fatal("update fired unregistered trigger")
	}
	mustExec(t, e, "DELETE FROM users WHERE id IN (10, 11)")
	if len(events) != 2 || events[1].Op != OpDelete || len(events[1].OldRows) != 2 {
		t.Fatalf("%+v", events)
	}
}

func TestTriggersDeferredUntilCommit(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	var fired int
	e.ObserveBatch(func(evs []ChangeEvent) { fired += len(evs) })
	mustExec(t, e, "BEGIN")
	mustExec(t, e, "INSERT INTO users (id, name) VALUES (10, 'x')")
	if fired != 0 {
		t.Fatal("trigger fired before commit")
	}
	mustExec(t, e, "COMMIT")
	if fired != 1 {
		t.Fatalf("trigger fired %d times after commit", fired)
	}
	// Rolled-back statements never fire.
	mustExec(t, e, "BEGIN")
	mustExec(t, e, "INSERT INTO users (id, name) VALUES (11, 'y')")
	mustExec(t, e, "ROLLBACK")
	if fired != 1 {
		t.Fatal("rolled-back statement fired trigger")
	}
}

func TestTriggerReentrancy(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE src (a INT)")
	mustExec(t, e, "CREATE TABLE log (n INT)")
	e.RegisterBatchHandler("relay", func(evs []ChangeEvent) {
		// Re-entering the engine from a trigger must not deadlock.
		for _, ev := range evs {
			if _, err := e.Exec(fmt.Sprintf("INSERT INTO log VALUES (%d)", len(ev.TIDs))); err != nil {
				t.Errorf("re-entrant exec: %v", err)
			}
		}
	})
	mustExec(t, e, "CREATE TRIGGER relay_t AFTER INSERT ON src CALL 'relay'")
	mustExec(t, e, "INSERT INTO src VALUES (1), (2), (3)")
	res := mustExec(t, e, "SELECT n FROM log")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 3 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestIndexFastPath(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	// PK point query.
	res := mustExec(t, e, "SELECT name FROM users WHERE id = 3")
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "carol" {
		t.Fatalf("%v", res.Rows)
	}
	// _tid IN (...) — the Figure 8 "extract new nodes" query shape.
	all := mustExec(t, e, "SELECT _tid FROM users ORDER BY _tid")
	t1 := all.Rows[0][0].Int()
	t2 := all.Rows[2][0].Int()
	res = mustExec(t, e, fmt.Sprintf("SELECT id FROM users WHERE _tid IN (%d, %d) ORDER BY id", t1, t2))
	if len(res.Rows) != 2 {
		t.Fatalf("%v", res.Rows)
	}
	// Fast path must not over-restrict when combined with other conjuncts.
	res = mustExec(t, e, "SELECT name FROM users WHERE id = 3 AND city = 'nowhere'")
	if len(res.Rows) != 0 {
		t.Fatalf("%v", res.Rows)
	}
	// PK = NULL matches nothing.
	res = mustExec(t, e, "SELECT name FROM users WHERE id = NULL")
	if len(res.Rows) != 0 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestLikeAndFunctions(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	res := mustExec(t, e, "SELECT name FROM users WHERE name LIKE 'a%'")
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "ana" {
		t.Fatalf("%v", res.Rows)
	}
	res = mustExec(t, e, "SELECT name FROM users WHERE name LIKE '_o_'")
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "bob" {
		t.Fatalf("%v", res.Rows)
	}
	res = mustExec(t, e, "SELECT COALESCE(age, 0), LENGTH(name), SUBSTR(name, 1, 2) FROM users WHERE id = 4")
	if res.Rows[0][0].Int() != 0 || res.Rows[0][1].Int() != 3 || res.Rows[0][2].Str() != "da" {
		t.Fatalf("%v", res.Rows)
	}
	res = mustExec(t, e, "SELECT CASE WHEN age >= 30 THEN 'senior' ELSE 'junior' END FROM users WHERE id = 1")
	if res.Rows[0][0].Str() != "senior" {
		t.Fatalf("%v", res.Rows)
	}
}

func TestErrors(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	bad := []string{
		"SELECT nope FROM users",
		"SELECT * FROM missing",
		"SELECT u.x FROM users u",
		"INSERT INTO users (nope) VALUES (1)",
		"UPDATE users SET nope = 1",
		"DELETE FROM missing",
		"CREATE TABLE users (id INT)",
		"SELECT name FROM users WHERE age = 'x' AND name = 1", // cross-kind compare
	}
	for _, sql := range bad {
		if _, err := e.Exec(sql); err == nil {
			t.Errorf("Exec(%q) should fail", sql)
		}
	}
	if _, err := e.Query("INSERT INTO users (id, name) VALUES (100, 'q')"); err == nil {
		t.Error("Query must reject non-SELECT")
	}
}

func TestAmbiguousColumn(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE a (x INT)")
	mustExec(t, e, "CREATE TABLE b (x INT)")
	mustExec(t, e, "INSERT INTO a VALUES (1)")
	mustExec(t, e, "INSERT INTO b VALUES (2)")
	if _, err := e.Exec("SELECT x FROM a, b"); err == nil {
		t.Error("ambiguous column must error")
	}
	res := mustExec(t, e, "SELECT a.x, b.x FROM a, b")
	if res.Rows[0][0].Int() != 1 || res.Rows[0][1].Int() != 2 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestExecScript(t *testing.T) {
	e := newTestDB(t)
	res, err := e.ExecScript(`
		CREATE TABLE t (a INT);
		INSERT INTO t VALUES (1), (2);
		SELECT SUM(a) FROM t;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestDurableEngineRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(st)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "CREATE TABLE t (a INT PRIMARY KEY, b STRING)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 'x'), (2, 'y')")
	mustExec(t, e, "CREATE TRIGGER tg AFTER INSERT ON t CALL 'h'")
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
	res := mustExec(t, e2, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("%v", res.Rows)
	}
	// Trigger definition survives restart; attach a handler and fire it.
	var fired bool
	e2.RegisterBatchHandler("h", func([]ChangeEvent) { fired = true })
	mustExec(t, e2, "INSERT INTO t VALUES (3, 'z')")
	if !fired {
		t.Error("restored trigger did not fire")
	}
}

func TestConcurrentReaders(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 50; j++ {
				if _, err := e.Query("SELECT COUNT(*) FROM users WHERE age > 20"); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (a INT)")
	stop := make(chan struct{})
	errs := make(chan error, 4)
	for i := 0; i < 3; i++ {
		go func() {
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
					if _, err := e.Query("SELECT COUNT(*) FROM t"); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	for j := 0; j < 200; j++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO t VALUES (%d)", j))
	}
	close(stop)
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	res := mustExec(t, e, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].Int() != 200 {
		t.Fatalf("%v", res.Rows)
	}
}

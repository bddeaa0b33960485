package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"ediflow/internal/storage"
	"ediflow/internal/types"
)

func rowsToStrings(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		s := ""
		for j, v := range r {
			if j > 0 {
				s += "|"
			}
			s += v.String()
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

// assertViewMatchesQuery checks that the materialized view contents equal a
// fresh evaluation of its defining query.
func assertViewMatchesQuery(t *testing.T, e *Engine, view, query string) {
	t.Helper()
	got := mustExec(t, e, "SELECT * FROM "+view)
	want := mustExec(t, e, query)
	g := rowsToStrings(got.Rows)
	w := rowsToStrings(want.Rows)
	if len(g) != len(w) {
		t.Fatalf("view %s: %d rows, recompute has %d\nview: %v\nwant: %v", view, len(g), len(w), g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("view %s differs at %d: %q vs %q", view, i, g[i], w[i])
		}
	}
}

func TestViewSelectProject(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	mustExec(t, e, "CREATE MATERIALIZED VIEW parisians AS SELECT id, name FROM users WHERE city = 'paris'")
	assertViewMatchesQuery(t, e, "parisians", "SELECT id, name FROM users WHERE city = 'paris'")

	// Inserts propagate.
	mustExec(t, e, "INSERT INTO users (id, name, age, city) VALUES (10, 'zoe', 22, 'paris'), (11, 'yan', 23, 'lyon')")
	assertViewMatchesQuery(t, e, "parisians", "SELECT id, name FROM users WHERE city = 'paris'")

	// Deletes propagate.
	mustExec(t, e, "DELETE FROM users WHERE id = 1")
	assertViewMatchesQuery(t, e, "parisians", "SELECT id, name FROM users WHERE city = 'paris'")

	// Updates propagate (city change moves rows in/out of the view).
	mustExec(t, e, "UPDATE users SET city = 'paris' WHERE id = 2")
	mustExec(t, e, "UPDATE users SET city = 'lyon' WHERE id = 3")
	assertViewMatchesQuery(t, e, "parisians", "SELECT id, name FROM users WHERE city = 'paris'")
}

func TestViewJoin(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	mustExec(t, e, "CREATE TABLE orders (oid INT PRIMARY KEY, uid INT, total FLOAT)")
	mustExec(t, e, "INSERT INTO orders VALUES (1, 1, 10.0), (2, 2, 20.0)")
	mustExec(t, e, "CREATE MATERIALIZED VIEW uorders AS SELECT u.name, o.total FROM users u JOIN orders o ON u.id = o.uid")
	q := "SELECT u.name, o.total FROM users u JOIN orders o ON u.id = o.uid"
	assertViewMatchesQuery(t, e, "uorders", q)

	// Delta on either side.
	mustExec(t, e, "INSERT INTO orders VALUES (3, 3, 30.0), (4, 1, 40.0)")
	assertViewMatchesQuery(t, e, "uorders", q)
	mustExec(t, e, "INSERT INTO users (id, name) VALUES (20, 'newbie')")
	assertViewMatchesQuery(t, e, "uorders", q)
	mustExec(t, e, "DELETE FROM orders WHERE oid = 1")
	assertViewMatchesQuery(t, e, "uorders", q)
	mustExec(t, e, "DELETE FROM users WHERE id = 2")
	assertViewMatchesQuery(t, e, "uorders", q)
	mustExec(t, e, "UPDATE orders SET total = 99.0 WHERE oid = 3")
	assertViewMatchesQuery(t, e, "uorders", q)
}

func TestViewAggregate(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	mustExec(t, e, "CREATE MATERIALIZED VIEW bycity AS SELECT city, COUNT(*) AS n, SUM(age) AS total, AVG(age) AS mean, MIN(age) AS lo, MAX(age) AS hi FROM users GROUP BY city")
	q := "SELECT city, COUNT(*), SUM(age), AVG(age), MIN(age), MAX(age) FROM users GROUP BY city"
	assertViewMatchesQuery(t, e, "bycity", q)

	mustExec(t, e, "INSERT INTO users (id, name, age, city) VALUES (10, 'zoe', 22, 'paris')")
	assertViewMatchesQuery(t, e, "bycity", q)

	// Delete the MIN of a group: forces the extreme recompute path.
	mustExec(t, e, "DELETE FROM users WHERE id = 10")
	assertViewMatchesQuery(t, e, "bycity", q)

	// Delete an entire group.
	mustExec(t, e, "DELETE FROM users WHERE city = 'nice'")
	assertViewMatchesQuery(t, e, "bycity", q)

	// Update that moves a row between groups.
	mustExec(t, e, "UPDATE users SET city = 'lyon' WHERE id = 1")
	assertViewMatchesQuery(t, e, "bycity", q)
}

func TestViewAggregateHaving(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	mustExec(t, e, "CREATE MATERIALIZED VIEW big AS SELECT city, COUNT(*) AS n FROM users GROUP BY city HAVING COUNT(*) > 1")
	q := "SELECT city, COUNT(*) FROM users GROUP BY city HAVING COUNT(*) > 1"
	assertViewMatchesQuery(t, e, "big", q)
	// lyon goes from 1 to 2 members: group must appear.
	mustExec(t, e, "INSERT INTO users (id, name, city) VALUES (30, 'x', 'lyon')")
	assertViewMatchesQuery(t, e, "big", q)
	// back to 1: group must disappear.
	mustExec(t, e, "DELETE FROM users WHERE id = 30")
	assertViewMatchesQuery(t, e, "big", q)
}

func TestViewWithWhere(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	mustExec(t, e, "CREATE MATERIALIZED VIEW adults AS SELECT city, COUNT(*) AS n FROM users WHERE age >= 28 GROUP BY city")
	q := "SELECT city, COUNT(*) FROM users WHERE age >= 28 GROUP BY city"
	assertViewMatchesQuery(t, e, "adults", q)
	mustExec(t, e, "INSERT INTO users (id, name, age, city) VALUES (40, 'kid', 10, 'paris')") // filtered out
	assertViewMatchesQuery(t, e, "adults", q)
	mustExec(t, e, "UPDATE users SET age = 50 WHERE id = 40") // filtered in
	assertViewMatchesQuery(t, e, "adults", q)
}

func TestViewChangeEventsEmitted(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	mustExec(t, e, "CREATE MATERIALIZED VIEW bycity AS SELECT city, COUNT(*) AS n FROM users GROUP BY city")
	var viewEvents int
	e.ObserveBatch(func(evs []ChangeEvent) {
		for _, ev := range evs {
			if ev.Table == "bycity" {
				viewEvents++
			}
		}
	})
	mustExec(t, e, "INSERT INTO users (id, name, city) VALUES (50, 'v', 'paris')")
	if viewEvents != 1 {
		t.Fatalf("view change events: %d", viewEvents)
	}
}

func TestViewDML_Rejected(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	mustExec(t, e, "CREATE MATERIALIZED VIEW v AS SELECT id FROM users")
	for _, sql := range []string{
		"INSERT INTO v VALUES (9)",
		"UPDATE v SET id = 9",
		"DELETE FROM v",
	} {
		if _, err := e.Exec(sql); err == nil {
			t.Errorf("%q must fail on a view", sql)
		}
	}
	// Dropping a referenced base table is rejected.
	if _, err := e.Exec("DROP TABLE users"); err == nil {
		t.Error("dropping a view's base table must fail")
	}
}

func TestViewUnsupportedShapes(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	bad := []string{
		"CREATE MATERIALIZED VIEW v1 AS SELECT id FROM users ORDER BY id",
		"CREATE MATERIALIZED VIEW v2 AS SELECT u1.id FROM users u1, users u2", // self join
		"CREATE MATERIALIZED VIEW v3 AS SELECT DISTINCT city FROM users",
		"CREATEMATERIALIZED VIEW",
		"CREATE MATERIALIZED VIEW v5 AS SELECT city, COUNT(*) FROM users WHERE age IN (SELECT age FROM users WHERE city = 'paris') GROUP BY city",
	}
	for _, sql := range bad {
		if _, err := e.Exec(sql); err == nil {
			t.Errorf("%q should be rejected", sql)
		}
	}
	// A DISTINCT aggregate folds with counted value sets.
	mustExec(t, e, "CREATE MATERIALIZED VIEW v4 AS SELECT city, COUNT(DISTINCT name) FROM users GROUP BY city")

	// A CREATE that fails computing the view's first contents leaves no
	// backing table behind: a valid query under the same name succeeds.
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, g INT, s STRING)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 1, 'x')")
	for _, c := range [][2]string{
		{"CREATE MATERIALIZED VIEW v6 AS SELECT g, SUM(s) AS n FROM t GROUP BY g", "CREATE MATERIALIZED VIEW v6 AS SELECT g, COUNT(*) AS n FROM t GROUP BY g"},
		{"CREATE MATERIALIZED VIEW v7 AS SELECT id, 10 / (g - 1) AS q FROM t", "CREATE MATERIALIZED VIEW v7 AS SELECT id, g AS q FROM t"},
	} {
		if _, err := e.Exec(c[0]); err == nil {
			t.Errorf("%q should fail", c[0])
		}
		mustExec(t, e, c[1])
	}
}

func TestViewRestartRebuild(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir)
	mustExec(t, e, "CREATE TABLE t (k STRING, v INT)")
	mustExec(t, e, "INSERT INTO t VALUES ('a', 1), ('a', 2), ('b', 3)")
	mustExec(t, e, "CREATE MATERIALIZED VIEW agg AS SELECT k, SUM(v) AS s FROM t GROUP BY k")
	assertViewMatchesQuery(t, e, "agg", "SELECT k, SUM(v) FROM t GROUP BY k")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := openDurable(t, dir)
	defer e2.Close()
	// The view survives restart and keeps maintaining.
	assertViewMatchesQuery(t, e2, "agg", "SELECT k, SUM(v) FROM t GROUP BY k")
	mustExec(t, e2, "INSERT INTO t VALUES ('a', 10), ('c', 5)")
	assertViewMatchesQuery(t, e2, "agg", "SELECT k, SUM(v) FROM t GROUP BY k")
}

func openDurable(t *testing.T, dir string) *Engine {
	t.Helper()
	st, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(st)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// Property: a random stream of inserts/deletes/updates keeps every view
// class equivalent to recomputation.
func TestViewRandomizedEquivalence(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE ev (k STRING, v INT, w INT)")
	mustExec(t, e, "CREATE TABLE dim (k STRING, label STRING)")
	mustExec(t, e, "INSERT INTO dim VALUES ('a', 'alpha'), ('b', 'beta'), ('c', 'gamma')")
	mustExec(t, e, "CREATE MATERIALIZED VIEW vsp AS SELECT k, v FROM ev WHERE v > 50")
	mustExec(t, e, "CREATE MATERIALIZED VIEW vagg AS SELECT k, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi FROM ev GROUP BY k")
	mustExec(t, e, "CREATE MATERIALIZED VIEW vjoin AS SELECT d.label, e.v FROM ev e JOIN dim d ON e.k = d.k")

	rng := rand.New(rand.NewSource(7))
	keys := []string{"a", "b", "c", "d"}
	var live []int64 // tids proxied by v values inserted with unique w
	next := 0
	for step := 0; step < 120; step++ {
		op := rng.Intn(3)
		if len(live) < 5 {
			op = 0
		}
		switch op {
		case 0: // insert
			k := keys[rng.Intn(len(keys))]
			v := rng.Intn(100)
			next++
			mustExec(t, e, fmt.Sprintf("INSERT INTO ev VALUES ('%s', %d, %d)", k, v, next))
			live = append(live, int64(next))
		case 1: // delete a random row
			i := rng.Intn(len(live))
			mustExec(t, e, fmt.Sprintf("DELETE FROM ev WHERE w = %d", live[i]))
			live = append(live[:i], live[i+1:]...)
		case 2: // update a random row
			i := rng.Intn(len(live))
			mustExec(t, e, fmt.Sprintf("UPDATE ev SET v = %d, k = '%s' WHERE w = %d",
				rng.Intn(100), keys[rng.Intn(len(keys))], live[i]))
		}
		if step%10 == 9 {
			assertViewMatchesQuery(t, e, "vsp", "SELECT k, v FROM ev WHERE v > 50")
			assertViewMatchesQuery(t, e, "vagg", "SELECT k, COUNT(*), SUM(v), MIN(v), MAX(v) FROM ev GROUP BY k")
			assertViewMatchesQuery(t, e, "vjoin", "SELECT d.label, e.v FROM ev e JOIN dim d ON e.k = d.k")
		}
	}
}

// TestViewFloatLiteralSurvivesReopen: a view's stored definition keeps
// an integral FLOAT literal a FLOAT, so after a reopen x / 2.0 still
// divides as FLOATs for the rows the view already held and for new ones.
func TestViewFloatLiteralSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	e := openDir(t, dir)
	mustExec(t, e, "CREATE TABLE t (x INT)")
	mustExec(t, e, "INSERT INTO t VALUES (7)")
	mustExec(t, e, "CREATE MATERIALIZED VIEW v AS SELECT x / 2.0 AS h FROM t")
	if got := fmt.Sprint(mustExec(t, e, "SELECT h FROM v").Rows); got != "[[3.5]]" {
		t.Fatalf("live view reads %s, want [[3.5]]", got)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e = openDir(t, dir)
	mustExec(t, e, "INSERT INTO t VALUES (9)")
	if got := fmt.Sprint(mustExec(t, e, "SELECT h FROM v ORDER BY h").Rows); got != "[[3.5] [4.5]]" {
		t.Fatalf("reopened view reads %s, want [[3.5] [4.5]]", got)
	}
}

// TestViewReopenWritesOnlyTheDifference: an open restores each view by
// writing only the difference between its recomputed rows and its
// backing table — a row that differs only in kind differs — so a reopen
// of a consistent store writes nothing, and the first read after the
// open sees what a repair wrote.
func TestViewReopenWritesOnlyTheDifference(t *testing.T) {
	dir := t.TempDir()
	e := openDir(t, dir)
	mustExec(t, e, "CREATE TABLE b (id INT PRIMARY KEY, g INT, v INT)")
	for i := range 40 {
		mustExec(t, e, fmt.Sprintf("INSERT INTO b VALUES (%d, %d, %d)", i, i%4, i*3%17))
	}
	mustExec(t, e, "CREATE MATERIALIZED VIEW sp AS SELECT id, v FROM b WHERE v > 5")
	mustExec(t, e, "CREATE MATERIALIZED VIEW ag AS SELECT g, COUNT(*) AS n, SUM(v) AS s FROM b GROUP BY g")
	mustExec(t, e, "UPDATE b SET v = v + 1 WHERE id % 3 = 0")
	mustExec(t, e, "DELETE FROM b WHERE id % 7 = 0")
	state := func(e *Engine) string {
		t.Helper()
		return fmt.Sprint(e.Store().CurrentStamp(),
			renderRows(mustExec(t, e, "SELECT _tid, id, v FROM sp"), false),
			renderRows(mustExec(t, e, "SELECT _tid, g, n, s FROM ag"), false))
	}
	want := state(e)
	for _, step := range []string{"reopened from the WAL", "reopened from a snapshot"} {
		if step == "reopened from a snapshot" {
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		e = openDir(t, dir)
		if got := state(e); got != want {
			t.Errorf("%s:\n%s\nwant:\n%s", step, got, want)
		}
	}

	// Make both backing tables stale on disk: one row of sp gone, and one
	// group of ag holding its SUM as a FLOAT.
	stamp := e.Store().CurrentStamp()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sp, ag := st.Table("__view_sp").Rows(), st.Table("__view_ag").Rows()
	if _, err := st.DeleteRows("__view_sp", []int64{sp[0].TID}); err != nil {
		t.Fatal(err)
	}
	r := append(types.Row(nil), ag[0].Values...)
	r[2] = types.NewFloat(float64(r[2].Int()))
	if _, err := st.UpdateRows("__view_ag", []int64{ag[0].TID}, []types.Row{r}, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	e = openDir(t, dir)
	for view, base := range map[string]string{
		"SELECT id, v FROM sp":   "SELECT id, v FROM b WHERE v > 5",
		"SELECT g, n, s FROM ag": "SELECT g, COUNT(*), SUM(v) FROM b GROUP BY g",
	} {
		got := renderRows(mustExec(t, e, view), false)
		if want := renderRows(mustExec(t, e, base), false); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("first read after the repair: %s\n%v\nwant %v", view, got, want)
		}
	}
	// The repair wrote one row into each view.
	if got := e.Store().CurrentStamp(); got != stamp+2 {
		t.Errorf("stamp after the repair %d, want %d", got, stamp+2)
	}
}

package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"ediflow/internal/types"
)

func TestFromSubqueryWithJoin(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	mustExec(t, e, "CREATE TABLE orders (oid INT PRIMARY KEY, uid INT, total FLOAT)")
	mustExec(t, e, "INSERT INTO orders VALUES (1, 1, 10.0), (2, 2, 20.0), (3, 1, 5.0)")
	res := mustExec(t, e, `
		SELECT u.name, s.total
		FROM users u JOIN (SELECT uid, SUM(total) AS total FROM orders GROUP BY uid) AS s
		ON u.id = s.uid ORDER BY s.total DESC`)
	if len(res.Rows) != 2 {
		t.Fatalf("%v", res.Rows)
	}
	if res.Rows[0][0].Str() != "bob" || res.Rows[1][1].Float() != 15.0 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestThreeWayJoin(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE a (x INT)")
	mustExec(t, e, "CREATE TABLE b (x INT, y INT)")
	mustExec(t, e, "CREATE TABLE c (y INT, z STRING)")
	mustExec(t, e, "INSERT INTO a VALUES (1), (2)")
	mustExec(t, e, "INSERT INTO b VALUES (1, 10), (2, 20), (3, 30)")
	mustExec(t, e, "INSERT INTO c VALUES (10, 'ten'), (20, 'twenty')")
	res := mustExec(t, e, "SELECT c.z FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y ORDER BY c.z")
	if len(res.Rows) != 2 || res.Rows[0][0].Str() != "ten" {
		t.Fatalf("%v", res.Rows)
	}
}

func TestOrderByStringsAndMixedDirections(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (grp STRING, v INT)")
	mustExec(t, e, "INSERT INTO t VALUES ('b', 1), ('a', 2), ('b', 3), ('a', 1)")
	res := mustExec(t, e, "SELECT grp, v FROM t ORDER BY grp, v DESC")
	want := [][2]string{{"a", "2"}, {"a", "1"}, {"b", "3"}, {"b", "1"}}
	for i, w := range want {
		if res.Rows[i][0].Str() != w[0] || res.Rows[i][1].String() != w[1] {
			t.Fatalf("row %d: %v", i, res.Rows[i])
		}
	}
}

func TestLimitOffsetEdges(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (a INT)")
	for i := 0; i < 5; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
	}
	if res := mustExec(t, e, "SELECT a FROM t ORDER BY a LIMIT 0"); len(res.Rows) != 0 {
		t.Fatal("LIMIT 0")
	}
	if res := mustExec(t, e, "SELECT a FROM t ORDER BY a LIMIT 99"); len(res.Rows) != 5 {
		t.Fatal("LIMIT beyond size")
	}
	if res := mustExec(t, e, "SELECT a FROM t ORDER BY a OFFSET 99"); len(res.Rows) != 0 {
		t.Fatal("OFFSET beyond size")
	}
	res := mustExec(t, e, "SELECT a FROM t ORDER BY a LIMIT ? OFFSET ?", types.NewInt(2), types.NewInt(1))
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestHavingWithoutGroupBy(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (a INT)")
	mustExec(t, e, "INSERT INTO t VALUES (1), (2)")
	res := mustExec(t, e, "SELECT COUNT(*) FROM t HAVING COUNT(*) > 1")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
		t.Fatalf("%v", res.Rows)
	}
	res = mustExec(t, e, "SELECT COUNT(*) FROM t HAVING COUNT(*) > 5")
	if len(res.Rows) != 0 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestGroupByExpression(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (a INT)")
	for i := 0; i < 10; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
	}
	res := mustExec(t, e, "SELECT a % 3, COUNT(*) FROM t GROUP BY a % 3 ORDER BY 1")
	if len(res.Rows) != 3 || res.Rows[0][1].Int() != 4 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestStringConcatOperator(t *testing.T) {
	e := newTestDB(t)
	res := mustExec(t, e, "SELECT 'a' || 'b' || 3")
	if res.Rows[0][0].Str() != "ab3" {
		t.Fatalf("%v", res.Rows)
	}
	res = mustExec(t, e, "SELECT 'a' || NULL")
	if !res.Rows[0][0].IsNull() {
		t.Fatalf("%v", res.Rows)
	}
}

func TestCaseWithOperand(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (a INT)")
	mustExec(t, e, "INSERT INTO t VALUES (1), (2), (3)")
	res := mustExec(t, e, "SELECT CASE a WHEN 1 THEN 'one' WHEN 2 THEN 'two' ELSE 'many' END FROM t ORDER BY a")
	if res.Rows[0][0].Str() != "one" || res.Rows[1][0].Str() != "two" || res.Rows[2][0].Str() != "many" {
		t.Fatalf("%v", res.Rows)
	}
}

// Property: engine ORDER BY agrees with a reference sort on random data,
// including NULL placement (NULL sorts first ascending).
func TestOrderByAgainstReference(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (a INT, b INT)")
	rng := rand.New(rand.NewSource(77))
	type row struct {
		a    int64
		null bool
		b    int64
	}
	var rows []row
	for i := 0; i < 80; i++ {
		r := row{a: int64(rng.Intn(10)), null: rng.Intn(5) == 0, b: int64(i)}
		rows = append(rows, r)
		if r.null {
			mustExec(t, e, fmt.Sprintf("INSERT INTO t VALUES (NULL, %d)", r.b))
		} else {
			mustExec(t, e, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", r.a, r.b))
		}
	}
	res := mustExec(t, e, "SELECT a, b FROM t ORDER BY a, b DESC")
	// Reference sort: NULL first, then a asc; ties by b desc.
	sorted := append([]row(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool {
		ri, rj := sorted[i], sorted[j]
		if ri.null != rj.null {
			return ri.null
		}
		if !ri.null && ri.a != rj.a {
			return ri.a < rj.a
		}
		return ri.b > rj.b
	})
	for i, want := range sorted {
		got := res.Rows[i]
		if want.null != got[0].IsNull() {
			t.Fatalf("row %d: null mismatch: %v vs %+v", i, got, want)
		}
		if !want.null && got[0].Int() != want.a {
			t.Fatalf("row %d: a=%v want %d", i, got[0], want.a)
		}
		if got[1].Int() != want.b {
			t.Fatalf("row %d: b=%v want %d", i, got[1], want.b)
		}
	}
}

func TestMinMaxOverStrings(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (s STRING)")
	mustExec(t, e, "INSERT INTO t VALUES ('pear'), ('apple'), ('zucchini'), (NULL)")
	res := mustExec(t, e, "SELECT MIN(s), MAX(s) FROM t")
	if res.Rows[0][0].Str() != "apple" || res.Rows[0][1].Str() != "zucchini" {
		t.Fatalf("%v", res.Rows)
	}
}

// TestOrderByAggregate is the regression for ORDER BY <aggregate>
// sorting by the group's first source row: the key used to be evaluated
// over a one-row "group", so SUM(v) sorted by the first v of each group.
// The interpreter agreed on the wrong answer.
func TestOrderByAggregate(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, k INT, v INT)")
	mustExec(t, e, "INSERT INTO t (id, k, v) VALUES (1, 1, 1), (2, 1, 100), (3, 2, 50), (4, 2, 2), (5, 3, 60), (6, 3, NULL)")
	for _, c := range []struct {
		sql  string
		want [][]int64
	}{
		{"SELECT k, SUM(v) FROM t GROUP BY k ORDER BY SUM(v)", [][]int64{{2, 52}, {3, 60}, {1, 101}}},
		{"SELECT k, SUM(v) FROM t GROUP BY k ORDER BY SUM(v) DESC", [][]int64{{1, 101}, {3, 60}, {2, 52}}},
		{"SELECT k, SUM(v) FROM t GROUP BY k HAVING SUM(v) > 55 ORDER BY SUM(v) DESC", [][]int64{{1, 101}, {3, 60}}},
		// A key that is not in the select list rides as a hidden item.
		{"SELECT k FROM t GROUP BY k ORDER BY SUM(v)", [][]int64{{2}, {3}, {1}}},
		{"SELECT k FROM t GROUP BY k ORDER BY MAX(v) - MIN(v) DESC, k", [][]int64{{1}, {2}, {3}}},
		{"SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY COUNT(v), k DESC", [][]int64{{3, 2}, {2, 2}, {1, 2}}},
		{"SELECT k FROM t GROUP BY k ORDER BY COUNT(v) DESC, SUM(v) LIMIT 2", [][]int64{{2}, {1}}},
		// DISTINCT dedups on the visible columns only.
		{"SELECT DISTINCT k % 2 FROM t GROUP BY k ORDER BY SUM(v)", [][]int64{{0}, {1}}},
		// An aggregate ORDER BY key alone makes the statement an aggregate.
		{"SELECT 7 FROM t ORDER BY SUM(v)", [][]int64{{7}}},
	} {
		res := mustExec(t, e, c.sql)
		if len(res.Rows) != len(c.want) || len(res.Columns) != len(c.want[0]) {
			t.Fatalf("%s: got %v, want %v", c.sql, res.Rows, c.want)
		}
		for i, w := range c.want {
			if len(res.Rows[i]) != len(w) {
				t.Fatalf("%s: row %d has %d columns, want %d (hidden sort key not stripped?)", c.sql, i, len(res.Rows[i]), len(w))
			}
			for j := range w {
				if res.Rows[i][j].Int() != w[j] {
					t.Fatalf("%s: got %v, want %v", c.sql, res.Rows, c.want)
				}
			}
		}
	}
}

// TestFailingSubqueryRunsOnce: batch evaluation holds a lane's error and
// moves on to the next lane, so a subquery that fails must be remembered
// like one that succeeds — not re-run for every batch, nor by every
// morsel worker of a scan that fans out.
func TestFailingSubqueryRunsOnce(t *testing.T) {
	e := newVMTestDB(t)
	for _, width := range []int{1, 4} {
		forceParallel(t, e, width, 2)
		s0, q0 := e.mRowsScanned.Value(), e.mParQueries.Value()
		_, err := e.Exec("SELECT id FROM v WHERE a IN (SELECT 10 / (a - 7) FROM v)")
		if err == nil || err.Error() != "types: division by zero" {
			t.Fatalf("width %d: want division by zero from the subquery, got %v", width, err)
		}
		if got := e.mRowsScanned.Value() - s0; got != 7 {
			t.Fatalf("width %d: failing subquery scanned %d rows, want its 7 once", width, got)
		}
		if fanned := e.mParQueries.Value() > q0; fanned != (width > 1) {
			t.Fatalf("width %d: fanned out %v", width, fanned)
		}
	}
}

// TestAggregateInScalarShapes: an expression over aggregates means what
// it means in row context with each aggregate's value in its place —
// CASE, IS [NOT] NULL, BETWEEN, IN, LIKE and COALESCE around aggregates,
// in the items, in HAVING and in ORDER BY — and short-circuits the same
// way: an aggregate's error surfaces only where evaluation reaches it.
func TestAggregateInScalarShapes(t *testing.T) {
	e := newVMTestDB(t)
	for _, c := range []struct{ sql, want string }{
		// Groups of s in first-appearance order: alpha, beta (2 rows),
		// NULL, '', Alpha, a%b_c.
		{"SELECT CASE WHEN COUNT(*) > 1 THEN 'many' ELSE 'one' END FROM v GROUP BY s",
			"STRING:one| STRING:many| STRING:one| STRING:one| STRING:one| STRING:one|"},
		{"SELECT s, MAX(a) IS NULL FROM v GROUP BY s",
			"STRING:alpha|BOOL:false| STRING:beta|BOOL:false| NULL:NULL|BOOL:true| STRING:|BOOL:false| STRING:Alpha|BOOL:false| STRING:a%b_c|BOOL:false|"},
		{"SELECT s FROM v GROUP BY s HAVING MAX(a) IS NOT NULL",
			"STRING:alpha| STRING:beta| STRING:| STRING:Alpha| STRING:a%b_c|"},
		{"SELECT s, MAX(a) FROM v GROUP BY s HAVING MAX(a) BETWEEN 0 AND 20",
			"STRING:alpha|INT:10| STRING:|INT:0| STRING:Alpha|INT:7|"},
		{"SELECT s, COUNT(*) FROM v GROUP BY s HAVING COUNT(*) IN (2, 3)",
			"STRING:beta|INT:2|"},
		{"SELECT s FROM v GROUP BY s HAVING MAX(s) LIKE 'a%'",
			"STRING:alpha| STRING:a%b_c|"},
		{"SELECT s, COALESCE(MAX(a), -100) FROM v GROUP BY s ORDER BY COALESCE(MAX(a), -100)",
			"NULL:NULL|INT:-100| STRING:beta|INT:-1| STRING:|INT:0| STRING:Alpha|INT:7| STRING:alpha|INT:10| STRING:a%b_c|INT:1000000|"},
		{"SELECT s FROM v GROUP BY s ORDER BY CASE WHEN COUNT(*) > 1 THEN 0 ELSE 1 END, s",
			"STRING:beta| NULL:NULL| STRING:| STRING:Alpha| STRING:a%b_c| STRING:alpha|"},
		{"SELECT COUNT(*) IS NULL, MAX(a) IS NULL FROM v WHERE id < 0",
			"BOOL:false|BOOL:true|"},
		// Short-circuits: a FALSE left operand, a non-NULL COALESCE
		// argument and an untaken CASE arm keep the division from running.
		{"SELECT s FROM v GROUP BY s HAVING COUNT(*) > 5 AND MAX(a) / 0 > 0", ""},
		{"SELECT s FROM v GROUP BY s HAVING COUNT(*) > 0 AND MAX(a) / 0 > 0", "error: types: division by zero"},
		{"SELECT COALESCE(MAX(a), 1 / 0), CASE WHEN COUNT(*) > 100 THEN SUM(a) / 0 ELSE 0 END FROM v",
			"INT:1000000|INT:0|"},
	} {
		res, err := execSQL(t, e, c.sql)
		got := ""
		if err != nil {
			got = "error: " + err.Error()
		} else {
			got = strings.Join(renderRows(res, true), " ")
		}
		if got != c.want {
			t.Errorf("%s:\n got  %s\n want %s", c.sql, got, c.want)
		}
	}
}

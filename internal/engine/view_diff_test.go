package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"ediflow/internal/sqltext"
	"ediflow/internal/types"
)

// kindRows renders rows kind-tagged, as the golden corpus does (INT:"3",
// not "3"), sorted: a multiset.
func kindRows(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var sb strings.Builder
		for _, v := range r {
			fmt.Fprintf(&sb, "%s:%q ", v.Kind(), v.String())
		}
		out[i] = sb.String()
	}
	sort.Strings(out)
	return out
}

// TestViewMatchesQueryShapes: aggregate view shapes the fold must
// maintain exactly — HAVING over aggregates the items do not show,
// expressions over aggregates, DISTINCT aggregates, an empty implicit
// group, a SUM whose last FLOAT operand leaves, MIN/MAX whose extremes
// leave — each equal to its SELECT, kind for kind, after every statement
// of a script, failing statements included. A view created on the empty
// table and one created mid-script (Init over rows) are both checked.
func TestViewMatchesQueryShapes(t *testing.T) {
	script := []string{
		"INSERT INTO t VALUES (1, 'a', 1, NULL), (2, 'a', 2, NULL), (3, 'a', NULL, 1.5)",
		"INSERT INTO t VALUES (4, 'b', 5, 2.5), (5, 'b', 5, NULL), (6, 'b', 3, NULL), (7, 'b', 5, 0.25)",
		"DELETE FROM t WHERE id = 3", // group a's only FLOAT operand leaves
		"UPDATE t SET v = 4 WHERE id = 1",
		"INSERT INTO t VALUES (20, 'a', 1, NULL), (141, 'a', 1, NULL)", // fails for lo_x only
		"UPDATE t SET id = 210 WHERE id = 2",                           // fails for lo_x only
		"INSERT INTO t VALUES (7, 'c', 1, NULL)",                       // duplicate key
		"DELETE FROM t WHERE id = 5",                                   // one of b's three 5s
		"DELETE FROM t WHERE id = 4",                                   // another
		"DELETE FROM t WHERE id = 7",                                   // the last: MAX of b falls to 3
		"INSERT INTO t VALUES (8, 'c', NULL, NULL), (9, 'b', 9, 0.75), (10, 'b', 1, NULL), (11, 'b', 1, NULL)",
		"UPDATE t SET g = 'b' WHERE g = 'a'",
		"DELETE FROM t WHERE id = 10", // one of two MINs of b
		"DELETE FROM t WHERE v >= 3",  // MAX of b leaves from three values
		"DELETE FROM t",               // every group goes; the implicit group stays
		"INSERT INTO t VALUES (12, 'a', 3, 0.5)",
	}
	shapes := []string{
		"SELECT g, COUNT(*) AS n FROM t GROUP BY g HAVING MAX(v) > 3",
		"SELECT g, COUNT(*) AS n FROM t GROUP BY g HAVING MAX(v) BETWEEN 2 AND 5",
		"SELECT g, SUM(v) AS s FROM t GROUP BY g HAVING MAX(v) IS NOT NULL",
		"SELECT g, COUNT(*) AS n FROM t GROUP BY g HAVING COUNT(*) IN (2, 3)",
		"SELECT COUNT(*) AS n FROM t",
		"SELECT g, SUM(CASE WHEN f IS NULL THEN v ELSE f END) AS s FROM t GROUP BY g",
		"SELECT g, MIN(CASE WHEN id > 100 THEN 'x' ELSE id END) AS lo_x FROM t GROUP BY g",
		"SELECT g, SUM(v) * 1.0 / COUNT(*) AS r FROM t GROUP BY g",
		"SELECT g, CASE WHEN COUNT(*) > 2 THEN 'many' ELSE 'few' END AS size FROM t GROUP BY g",
		"SELECT g, COUNT(DISTINCT v) AS dv, SUM(DISTINCT v) AS sv, AVG(DISTINCT v) AS av FROM t GROUP BY g",
		"SELECT g, MIN(v) AS lo, MAX(v) AS hi FROM t GROUP BY g",
		"SELECT MIN(v) AS lo, MAX(v) AS hi, AVG(f) AS af, SUM(f) AS sf, COUNT(DISTINCT g) AS ng FROM t",
		"SELECT UPPER(g) AS ug, v % 2 AS par, COUNT(*) AS n FROM t GROUP BY g, v % 2",
		"SELECT g, COUNT(*) AS n FROM t WHERE v > 1 GROUP BY g HAVING g <> 'c'",
	}
	for _, q := range shapes {
		t.Run(q, func(t *testing.T) {
			e := newTestDB(t)
			mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, g STRING, v INT, f FLOAT)")
			mustExec(t, e, "CREATE MATERIALIZED VIEW early AS "+q)
			check := func(when string) {
				t.Helper()
				want := mustExec(t, e, q)
				for _, view := range e.Catalog().ViewNames() {
					if got := mustExec(t, e, "SELECT * FROM "+view); fmt.Sprint(kindRows(got.Rows)) != fmt.Sprint(kindRows(want.Rows)) {
						t.Fatalf("%s\n%s: view %s\n got %q\nwant %q", q, when, view, kindRows(got.Rows), kindRows(want.Rows))
					}
				}
			}
			// ref runs the script without views: a statement may fail here
			// only if it fails there, or if the view's query fails after it
			// (then ref takes it back).
			ref := newTestDB(t)
			mustExec(t, ref, "CREATE TABLE t (id INT PRIMARY KEY, g STRING, v INT, f FLOAT)")
			check("on the empty table")
			for i, sql := range script {
				mustExec(t, ref, "BEGIN")
				_, rerr := ref.Exec(sql)
				_, qerr := ref.Query(q)
				mustExec(t, ref, map[bool]string{true: "ROLLBACK", false: "COMMIT"}[qerr != nil])
				if _, err := e.Exec(sql); (err != nil) != (rerr != nil || qerr != nil) {
					t.Fatalf("%s\n%s: error %v; without views %v, then the query %v", q, sql, err, rerr, qerr)
				}
				if i == 1 {
					mustExec(t, e, "CREATE MATERIALIZED VIEW late AS "+q)
				}
				check("after " + sql)
			}
		})
	}

	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, g STRING, v INT, f FLOAT)")
	mustExec(t, e, "CREATE TABLE s (w INT)")
	for _, c := range []struct{ q, err string }{
		{"SELECT g, COUNT(*) FROM t WHERE v IN (SELECT w FROM s) GROUP BY g", "subqueries are not incrementally maintainable"},
		{"SELECT g, COUNT(*) FROM t GROUP BY g HAVING SUM(v) > (SELECT MAX(w) FROM s)", "subqueries are not incrementally maintainable"},
		{"SELECT id FROM t WHERE EXISTS (SELECT 1 FROM s WHERE w > 0)", "subqueries are not incrementally maintainable"},
		{"SELECT id, (SELECT MAX(w) FROM s) AS m FROM t", "subqueries are not incrementally maintainable"},
		{"SELECT v, COUNT(*) FROM t GROUP BY g", "neither a GROUP BY expression nor an aggregate"},
		{"SELECT g, COUNT(*) FROM t GROUP BY g HAVING MAX(v) > v", "neither a GROUP BY expression nor an aggregate"},
	} {
		_, err := e.Exec("CREATE MATERIALIZED VIEW bad AS " + c.q)
		if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: error %v, want one saying %q", c.q, err, c.err)
		}
	}
}

// viewFixture is a database and the DML its stream may run: per table,
// a generator of one column value.
type viewFixture struct {
	name    string
	open    func(t *testing.T) *Engine
	tables  map[string][]func(r *rand.Rand) string // column 0 is the INT primary key
	queries []string                               // candidate view queries
	guard   [2]string                              // table and INT column of the guard view
}

func intOrNull(lo, n int) func(r *rand.Rand) string {
	return func(r *rand.Rand) string {
		if r.Intn(10) == 0 {
			return "NULL"
		}
		return fmt.Sprint(lo + r.Intn(n))
	}
}

func floatOrNull(r *rand.Rand) string {
	if r.Intn(10) == 0 {
		return "NULL"
	}
	return fmt.Sprintf("%.3f", r.Float64()*100-20)
}

func stringOrNull(r *rand.Rand) string {
	return []string{"NULL", "'alpha'", "'beta'", "'Alpha'", "''", "'a%b_1'", "'str_7'", "'beta'"}[r.Intn(8)]
}

func boolOrNull(r *rand.Rand) string {
	return []string{"TRUE", "FALSE", "TRUE", "FALSE", "NULL"}[r.Intn(5)]
}

// TestViewDifferential maintains every statement of the VM and parallel
// differential corpora that is a legal materialized view, and the two
// firehose views, under a seeded stream of 200 statements per fixture —
// inserts, updates, deletes, a failing statement every ~20 (a duplicate
// key, a SET error part-way, or a row that only the last view in name
// order cannot fold, so every view before it takes its delta back), and
// transactions that roll back or commit. After every statement each view
// must equal its SELECT: exactly, kind for kind, except that a cell
// holding a SUM or AVG may differ by 1e-9 relative when FLOAT (an
// incremental float sum is not bit-reproducible) and a bare MIN/MAX cell
// compares by key (which of equal values represents them is not
// defined).
func TestViewDifferential(t *testing.T) {
	firehose := func(t *testing.T) *Engine {
		e := newTestDB(t)
		mustExec(t, e, "CREATE TABLE entities (id INT PRIMARY KEY, name STRING)")
		mustExec(t, e, "CREATE TABLE events (id INT PRIMARY KEY, entity INT, v INT, ts INT)")
		for i := 0; i < 8; i++ {
			mustExec(t, e, fmt.Sprintf("INSERT INTO entities VALUES (%d, 'entity-%02d')", i, i))
		}
		for i := 0; i < 200; i++ {
			mustExec(t, e, fmt.Sprintf("INSERT INTO events VALUES (%d, %d, %d, %d)", i, i%8, (i*7919)%1000, i))
		}
		return e
	}
	fixtures := []viewFixture{
		{
			name: "vm", open: func(t *testing.T) *Engine { return newVMTestDB(t) },
			tables:  map[string][]func(*rand.Rand) string{"v": {nil, intOrNull(-5, 20), floatOrNull, stringOrNull, boolOrNull}},
			queries: vmDifferentialStmts, guard: [2]string{"v", "a"},
		},
		{
			name: "parallel", open: func(t *testing.T) *Engine {
				e := newParTestDB(t, 400)
				mustExec(t, e, "CREATE VIEW mixv AS SELECT id, CASE WHEN id < 2000 THEN v ELSE s END AS m FROM p")
				return e
			},
			tables: map[string][]func(*rand.Rand) string{
				"p":   {nil, intOrNull(0, 1000), floatOrNull, stringOrNull, boolOrNull},
				"dim": {nil, stringOrNull},
			},
			queries: parallelDifferentialStmts, guard: [2]string{"p", "v"},
		},
		{
			name: "firehose", open: firehose,
			tables: map[string][]func(*rand.Rand) string{
				"events":   {nil, intOrNull(0, 9), intOrNull(0, 1000), intOrNull(0, 1000)},
				"entities": {nil, stringOrNull},
			},
			queries: []string{
				"SELECT entity, COUNT(*) AS n, SUM(v) AS s FROM events GROUP BY entity",
				"SELECT e.id, n.name, e.v FROM events e JOIN entities n ON e.entity = n.id WHERE e.v >= 990",
			},
			guard: [2]string{"events", "v"},
		},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) { runViewDifferential(t, fx) })
	}
}

// viewCheck is one maintained view and how to compare its cells.
type viewCheck struct {
	name, query string
	cell        []byte // per column: '=' exact, '~' FLOAT within 1e-9 relative, 'h' key
}

func runViewDifferential(t *testing.T, fx viewFixture) {
	e := fx.open(t)
	var views []viewCheck
	for i, q := range fx.queries {
		name := fmt.Sprintf("dv%02d", i)
		if _, err := e.Exec("CREATE MATERIALIZED VIEW " + name + " AS " + q); err != nil {
			continue
		}
		vc := viewCheck{name: name, query: q}
		st, _ := sqltext.Parse(q)
		for _, it := range st.(*sqltext.Select).Items {
			c := byte('=')
			if fc, ok := it.Expr.(*sqltext.FuncCall); ok && !it.Star && (strings.EqualFold(fc.Name, "MIN") || strings.EqualFold(fc.Name, "MAX")) {
				c = 'h'
			} else if !it.Star && (strings.Contains(it.Expr.String(), "SUM(") || strings.Contains(it.Expr.String(), "AVG(")) {
				c = '~'
			}
			vc.cell = append(vc.cell, c)
		}
		views = append(views, vc)
	}
	t.Logf("%s: %d of %d corpus statements are legal views", fx.name, len(views), len(fx.queries))
	// The guard sorts after every dv view and folds only INT operands: a
	// row with a guard value over 10^8 fails it last.
	guard := fmt.Sprintf("SELECT COUNT(*) AS n, MIN(CASE WHEN %s > 100000000 THEN 'x' ELSE 0 END) AS m FROM %s", fx.guard[1], fx.guard[0])
	mustExec(t, e, "CREATE MATERIALIZED VIEW zz_guard AS "+guard)
	views = append(views, viewCheck{name: "zz_guard", query: guard, cell: []byte("==")})

	check := func(when string) {
		t.Helper()
		for _, v := range views {
			got, err := e.Query("SELECT * FROM " + v.name)
			if err != nil {
				t.Fatalf("%s: reading view %s: %v", when, v.name, err)
			}
			want, err := e.Query(v.query)
			if err != nil {
				t.Fatalf("%s: view %s's query %s: %v", when, v.name, v.query, err)
			}
			if msg := diffCells(got.Rows, want.Rows, v.cell); msg != "" {
				t.Fatalf("%s: view %s (%s): %s", when, v.name, v.query, msg)
			}
		}
	}
	check("after CREATE")

	r := rand.New(rand.NewSource(27))
	var tables []string
	for name := range fx.tables {
		tables = append(tables, name)
	}
	sort.Strings(tables)
	nextID := 100000
	row := func(table string, id int) string {
		cells := []string{fmt.Sprint(id)}
		for _, gen := range fx.tables[table][1:] {
			cells = append(cells, gen(r))
		}
		return "(" + strings.Join(cells, ", ") + ")"
	}
	liveID := func(table string) int {
		res := mustExec(t, e, "SELECT "+colName(e, table, 0)+" FROM "+table)
		if len(res.Rows) == 0 {
			return -1
		}
		return int(res.Rows[r.Intn(len(res.Rows))][0].Int())
	}
	inTxn, txns := 0, 0 // statements left in the open transaction; transactions run
	for step := 0; step < 200; step++ {
		table := tables[0]
		if len(tables) > 1 && r.Intn(5) == 0 {
			table = tables[1]
		}
		gens, key := fx.tables[table], colName(e, table, 0)
		var sql string
		mustFail := false
		switch k := r.Intn(10); {
		case step%20 == 19:
			mustFail = true
			nextID += 2
			switch step / 20 % 3 {
			case 0:
				sql = fmt.Sprintf("INSERT INTO %s VALUES %s, %s", table, row(table, nextID), row(table, liveID(table)))
			case 1:
				sql = fmt.Sprintf("UPDATE %s SET %s = 10 / (%s - %d)", table, colName(e, table, 1), key, liveID(table))
			default:
				table = fx.guard[0]
				bad := strings.Split(strings.Trim(row(table, nextID+1), "()"), ", ")
				bad[colIndex(e, table, fx.guard[1])] = "999999999"
				sql = fmt.Sprintf("INSERT INTO %s VALUES %s, (%s)", table, row(table, nextID), strings.Join(bad, ", "))
			}
		case k < 4:
			n := 1 + r.Intn(4)
			var rows []string
			for i := 0; i < n; i++ {
				nextID++
				rows = append(rows, row(table, nextID))
			}
			sql = fmt.Sprintf("INSERT INTO %s VALUES %s", table, strings.Join(rows, ", "))
		case k < 7:
			c := 1 + r.Intn(len(gens)-1)
			where := fmt.Sprintf("%s = %d", key, liveID(table))
			if r.Intn(3) == 0 {
				where = fmt.Sprintf("%s %% 9 = %d", key, r.Intn(9))
			}
			sql = fmt.Sprintf("UPDATE %s SET %s = %s WHERE %s", table, colName(e, table, c), gens[c](r), where)
		default:
			where := fmt.Sprintf("%s = %d", key, liveID(table))
			if r.Intn(4) == 0 {
				where = fmt.Sprintf("%s %% 23 = %d", key, r.Intn(23))
			}
			sql = fmt.Sprintf("DELETE FROM %s WHERE %s", table, where)
		}
		if inTxn == 0 && step%30 == 5 {
			mustExec(t, e, "BEGIN")
			inTxn = 2 + r.Intn(5)
		}
		_, err := e.Exec(sql)
		if mustFail && err == nil {
			t.Fatalf("step %d: %s: succeeded", step, sql)
		}
		check(fmt.Sprintf("step %d: %s (err %v)", step, sql, err))
		if inTxn > 0 {
			if inTxn--; inTxn == 0 {
				end := []string{"ROLLBACK", "COMMIT"}[txns%2]
				txns++
				mustExec(t, e, end)
				check(fmt.Sprintf("step %d: %s", step, end))
			}
		}
	}
	if inTxn > 0 {
		mustExec(t, e, "COMMIT")
		check("final COMMIT")
	}
}

func colIndex(e *Engine, table, col string) int {
	return e.Store().Table(table).Schema.ColIndex(col)
}

func colName(e *Engine, table string, i int) string {
	return e.Store().Table(table).Schema.Columns[i].Name
}

// diffCells compares two row multisets cell by cell under the per-column
// rules of viewCheck.cell; it returns "" when they match.
func diffCells(got, want []types.Row, cell []byte) string {
	key := func(r types.Row) string {
		var sb strings.Builder
		for j, v := range r {
			switch {
			case j < len(cell) && cell[j] == 'h':
				sb.WriteString(hashKey(v))
			case j < len(cell) && cell[j] == '~' && v.Kind() == types.KindFloat:
				fmt.Fprintf(&sb, "%.6g", v.Float())
			default:
				fmt.Fprintf(&sb, "%s:%q", v.Kind(), v.String())
			}
			sb.WriteByte(' ')
		}
		return sb.String()
	}
	sorted := func(rows []types.Row) []types.Row {
		type keyed struct {
			k string
			r types.Row
		}
		ks := make([]keyed, len(rows))
		for i, r := range rows {
			ks[i] = keyed{key(r), r}
		}
		sort.Slice(ks, func(a, b int) bool { return ks[a].k < ks[b].k })
		out := make([]types.Row, len(ks))
		for i := range ks {
			out[i] = ks[i].r
		}
		return out
	}
	g, w := sorted(got), sorted(want)
	if len(g) != len(w) {
		return fmt.Sprintf("%d rows, query has %d\n got %v\nwant %v", len(g), len(w), g, w)
	}
	for i := range g {
		if len(g[i]) != len(w[i]) {
			return fmt.Sprintf("row width %d, query's %d", len(g[i]), len(w[i]))
		}
		for j := range g[i] {
			a, b := g[i][j], w[i][j]
			ok := a.Kind() == b.Kind() && a.String() == b.String()
			switch {
			case ok:
			case j < len(cell) && cell[j] == 'h':
				ok = hashKey(a) == hashKey(b)
			case j < len(cell) && cell[j] == '~' && a.Kind() == types.KindFloat && b.Kind() == types.KindFloat:
				ok = math.Abs(a.Float()-b.Float()) <= 1e-9*math.Max(math.Abs(a.Float()), math.Abs(b.Float()))
			}
			if !ok {
				return fmt.Sprintf("row %d col %d: view %s:%q, query %s:%q\n got %v\nwant %v", i, j, a.Kind(), a.String(), b.Kind(), b.String(), g, w)
			}
		}
	}
	return ""
}

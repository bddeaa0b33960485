package engine

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"ediflow/internal/engine/vm"
	"ediflow/internal/sqltext"
	"ediflow/internal/storage"
	"ediflow/internal/types"
)

// forceParallel shrinks the morsel size so even tiny test tables (two
// morsels and up) fan out to width workers, and restores it on cleanup.
func forceParallel(t testing.TB, e *Engine, width, slotsPerMorsel int) {
	t.Helper()
	old := morselSlots
	morselSlots = slotsPerMorsel
	t.Cleanup(func() { morselSlots = old })
	e.parallelism.Store(int64(width))
}

// execThreeWay runs sql at width 1 — under TestStatementCorpus checked
// against the golden corpus, which holds what the tree-walk interpreter
// returned — and at the given width, requiring byte-identical behavior:
// same error presence and text, same rows in order (kind + rendering),
// and the same rows-scanned tally. A width-1 statement must not register
// as parallel.
func execThreeWay(t *testing.T, e *Engine, width int, sql string, args ...types.Value) {
	t.Helper()
	var scanned [2]int64
	run := func(i, w int) (*Result, error) {
		e.parallelism.Store(int64(w))
		s0, q0 := e.mRowsScanned.Value(), e.mParQueries.Value()
		res, err := execSQL(t, e, sql, args...)
		if w == 1 && e.mParQueries.Value() != q0 {
			t.Fatalf("%s: width-1 statement ticked vm.parallel_queries", sql)
		}
		scanned[i] = e.mRowsScanned.Value() - s0
		return res, err
	}
	res, err := run(0, 1)
	wide, werr := again(func() (*Result, error) { return run(1, width) })
	e.parallelism.Store(1)
	label := fmt.Sprintf("%s (width %d)", sql, width)
	sameOutcome(t, label, wide, werr, res, err)
	if err == nil && scanned[0] != scanned[1] {
		t.Fatalf("%s: rows_scanned divergence: width 1 %d, width %d %d", label, scanned[0], width, scanned[1])
	}
}

// newParTestDB seeds a table big enough to split into many morsels
// under the shrunken test morsel size: mixed kinds, NULL stripes,
// strings containing LIKE metacharacters, and a small side table for
// joins.
func newParTestDB(t testing.TB, rows int) *Engine {
	t.Helper()
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE p (id INT PRIMARY KEY, v INT, w FLOAT, s STRING, b BOOL)")
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		if sb.Len() == 0 {
			sb.WriteString("INSERT INTO p (id, v, w, s, b) VALUES ")
		} else {
			sb.WriteString(", ")
		}
		v := fmt.Sprintf("%d", (i*7919)%1000)
		if i%23 == 0 {
			v = "NULL"
		}
		w := fmt.Sprintf("%d.%02d", i%50, i%97)
		if i%31 == 0 {
			w = "NULL"
		}
		s := fmt.Sprintf("'str_%d'", i%211)
		switch i % 13 {
		case 0:
			s = "NULL"
		case 1:
			s = fmt.Sprintf("'a%%b_%d'", i%7) // literal % and _ in data
		case 2:
			s = "''"
		}
		b := "TRUE"
		if i%3 == 1 {
			b = "FALSE"
		} else if i%29 == 0 {
			b = "NULL"
		}
		fmt.Fprintf(&sb, "(%d, %s, %s, %s, %s)", i, v, w, s, b)
		if (i+1)%200 == 0 || i == rows-1 {
			mustExec(t, e, sb.String())
			sb.Reset()
		}
	}
	mustExec(t, e, "CREATE TABLE dim (k INT PRIMARY KEY, label STRING)")
	for k := 0; k < 7; k++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO dim (k, label) VALUES (%d, 'g%d')", k, k))
	}
	return e
}

// parallelDifferentialStmts is TestParallelDifferential's corpus over
// newParTestDB; TestViewDifferential maintains its legal view shapes.
var parallelDifferentialStmts = []string{
	// Filtered scans with projection pushdown (bare and computed).
	"SELECT id FROM p WHERE v > 500",
	"SELECT id, v, w FROM p WHERE (v * 3 + id) % 7 = 0",
	"SELECT id * 2 + v FROM p WHERE v < 100 AND b",
	"SELECT id FROM p WHERE v IS NULL",
	"SELECT id FROM p WHERE s IS NOT NULL AND v >= 0 LIMIT 17",
	"SELECT DISTINCT v FROM p WHERE v < 50",
	// Full-width rows (no pushdown: ORDER BY needs source rows).
	"SELECT id, s FROM p WHERE v > 900 ORDER BY s, id DESC LIMIT 25",
	"SELECT * FROM p WHERE w > 40.0 ORDER BY id LIMIT 10",
	// LIKE specializations (prefix/suffix/contains/exact) over data
	// holding literal % and _ characters, plus the generic matcher.
	"SELECT id FROM p WHERE s LIKE 'a%'",
	"SELECT id FROM p WHERE s LIKE '%_3'",
	"SELECT id FROM p WHERE s LIKE '%b_%'",
	"SELECT id FROM p WHERE s LIKE 'a%b_3'",
	"SELECT id FROM p WHERE s LIKE 'str_1'",
	"SELECT id FROM p WHERE s NOT LIKE 'str%'",
	"SELECT id FROM p WHERE s LIKE '%'",
	// Aggregation: column-native folds, grouped and global.
	"SELECT COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM p",
	"SELECT SUM(w), AVG(w), MIN(w), MAX(w) FROM p WHERE v > 250",
	"SELECT MIN(s), MAX(s), COUNT(s) FROM p",
	"SELECT v % 7, COUNT(*), SUM(id) FROM p WHERE v IS NOT NULL GROUP BY v % 7",
	"SELECT v % 10, AVG(v) FROM p GROUP BY v % 10 HAVING COUNT(*) > 100",
	"SELECT COUNT(DISTINCT v), SUM(DISTINCT v) FROM p",
	"SELECT b, MIN(w), MAX(id) FROM p GROUP BY b",
	"SELECT COUNT(*) FROM p WHERE s LIKE 'str%'",
	// Grouped COUNT(*) and DISTINCT folds (a per-state seen-set).
	"SELECT v % 7, COUNT(*), COUNT(DISTINCT s), SUM(DISTINCT v % 10), AVG(DISTINCT w), MIN(DISTINCT s) FROM p GROUP BY v % 7",
	"SELECT b, COUNT(DISTINCT v), COUNT(v), MAX(w) FROM p GROUP BY b ORDER BY COUNT(*) DESC",
	// An empty relation: the implicit group still yields one row, a
	// GROUP BY none.
	"SELECT COUNT(*), COUNT(v), SUM(v), MIN(s), COUNT(DISTINCT v), 1 + 1 FROM p WHERE id < 0",
	"SELECT v % 7, COUNT(*), SUM(v) FROM p WHERE id < 0 GROUP BY v % 7",
	// A DISTINCT argument that errors only in the group HAVING
	// rejects stays silent; without HAVING the same error surfaces.
	"SELECT v % 3, COUNT(DISTINCT 10 / (v % 3)), SUM(10 / (v % 3)) FROM p WHERE v IS NOT NULL GROUP BY v % 3 HAVING v % 3 > 0",
	"SELECT v % 3, COUNT(DISTINCT 10 / (v % 3)) FROM p WHERE v IS NOT NULL GROUP BY v % 3",
	// An IN (subquery) aggregate argument and expressions over
	// aggregates beside bare aggregates.
	"SELECT v % 5, SUM(v), COUNT(v % 7 IN (SELECT k FROM dim WHERE k > 2)), MAX(id), SUM(w) / COUNT(*), MIN(id) + 1 FROM p GROUP BY v % 5",
	"SELECT v % 5, MAX(s) FROM p GROUP BY v % 5 HAVING SUM(v) > 100000 AND COUNT(DISTINCT b) = 2",
	"SELECT SUM(*) FROM p",
	// Order-sensitive folds, width 1 like every fold: float sums
	// (addition order matters) and MIN/MAX over mixed comparability
	// classes, global and grouped.
	"SELECT b, SUM(w), AVG(w * 1.1), SUM(v + w) FROM p GROUP BY b",
	"SELECT MIN(CASE WHEN id % 2 = 0 THEN v ELSE id * 1.5 END), MAX(CASE WHEN id % 3 = 0 THEN w ELSE id END) FROM p",
	"SELECT MAX(CASE WHEN id > 2900 THEN s ELSE v END) FROM p",
	"SELECT v % 4, MIN(CASE WHEN id > 2900 THEN s ELSE v END) FROM p WHERE v IS NOT NULL AND s IS NOT NULL GROUP BY v % 4",
	"SELECT MIN(m), MAX(m), COUNT(m) FROM mixv",
	"SELECT MIN(m), MAX(m) FROM mixv WHERE id < 2000",
	"SELECT id % 3, MAX(m) FROM mixv WHERE id < 2000 GROUP BY id % 3",
	// Joins: the primary-key probe and the hash build run at width 1.
	"SELECT COUNT(*) FROM p JOIN dim ON p.v % 7 = dim.k",
	"SELECT dim.label, COUNT(*) FROM p JOIN dim ON p.v % 7 = dim.k GROUP BY dim.label",
	"SELECT p.id FROM p LEFT JOIN dim ON p.v % 7 = dim.k AND dim.k > 3 WHERE p.id < 40 ORDER BY p.id",
	// Right side keyed on an unindexed column: the width-1 hash build
	// runs over NULL stripes, duplicate keys and a two-column key.
	"SELECT d.k, b.id FROM dim d JOIN p b ON d.k = b.v",
	"SELECT d.label, COUNT(*), MIN(b.id) FROM dim d LEFT JOIN p b ON d.k = b.v AND b.id > 1000 GROUP BY d.label",
	"SELECT a.id, b.id FROM p a JOIN p b ON a.v = b.v AND a.s = b.s WHERE a.id < 300 AND b.id > a.id",
	// Error statements: WHERE errors, projection errors, fold errors.
	"SELECT id FROM p WHERE v / (id - 1500) >= 0",
	"SELECT v / (id - 2999) FROM p WHERE v IS NOT NULL",
	"SELECT SUM(s) FROM p",
	"SELECT MIN(s), SUM(s) FROM p GROUP BY v % 3",
	"SELECT id FROM p WHERE v + s > 0",
	// Subqueries and unknown functions over a relation large enough to
	// fan out: scan filter, GROUP BY key, aggregate argument, and a
	// projection whose arithmetic item errs on a later row than its
	// unknown function.
	"SELECT id, v * 2 FROM p WHERE v % 7 IN (SELECT k FROM dim WHERE k > 2) AND id % 100 = 0",
	"SELECT v % 7 IN (SELECT k FROM dim WHERE k > 2), COUNT(*), SUM(v) FROM p GROUP BY v % 7 IN (SELECT k FROM dim WHERE k > 2)",
	"SELECT COUNT(v % 7 IN (SELECT k FROM dim WHERE k > 2)), MAX(NOSUCH(v)) FROM p WHERE id < 0",
	"SELECT v % 5, COUNT(NOSUCH(v)) FROM p GROUP BY v % 5",
	"SELECT id, v / (id - 2500), CASE WHEN id = 1200 THEN NOSUCH(v) ELSE 1 END FROM p WHERE v IS NOT NULL",
	"SELECT id FROM p WHERE v > (SELECT MAX(k) FROM dim) * 160 AND v / (id - 2990) >= 0",
	// ORDER BY an aggregate: a group's key, not its first row's.
	"SELECT v % 5, SUM(v) FROM p GROUP BY v % 5 ORDER BY SUM(v) DESC",
	"SELECT v % 5 FROM p GROUP BY v % 5 HAVING COUNT(*) > 100 ORDER BY MIN(id) DESC, COUNT(*)",
}

// TestParallelDifferential: every hot shape — filtered scans with and
// without projection pushdown, aggregation (plain, grouped, DISTINCT,
// HAVING), hash joins, LIKE specializations, ORDER BY over parallel
// scans, and error statements — must behave byte-identically as the
// interpreter did (the golden corpus), at width 1 and fanned out,
// including the rows_scanned tally.
func TestParallelDifferential(t *testing.T) {
	e := newParTestDB(t, 3000)
	forceParallel(t, e, 4, 256)
	// A view column declared STRING that holds ints below id 2000 and
	// strings above: MIN/MAX over it compares across kinds, so only a
	// front-to-back fold yields the interpreter's result and error.
	mustExec(t, e, "CREATE VIEW mixv AS SELECT id, CASE WHEN id < 2000 THEN v ELSE s END AS m FROM p")
	for _, sql := range parallelDifferentialStmts {
		execThreeWay(t, e, 4, sql)
	}
	// Same corpus at width 2 and 8 for morsel-boundary coverage.
	for _, w := range []int{2, 8} {
		execThreeWay(t, e, w, "SELECT id, v FROM p WHERE (v * 3 + id) % 7 = 0")
		execThreeWay(t, e, w, "SELECT COUNT(*), SUM(v), AVG(w), MIN(s), MAX(v) FROM p WHERE v % 7 != 0")
		execThreeWay(t, e, w, "SELECT id FROM p WHERE v / (id - 1500) >= 0")
	}
}

// TestParallelTinyMorsels drives the differential corpus from the VM
// tests' table shape with pathologically small morsels (2 slots), so
// every morsel is a sliver of one batch and the gather concatenates
// several single-batch outputs.
func TestParallelTinyMorsels(t *testing.T) {
	e := newVMTestDB(t)
	forceParallel(t, e, 4, 2)
	stmts := []string{
		"SELECT id FROM v WHERE a > 0",
		"SELECT id, a + f FROM v WHERE a >= -1",
		"SELECT id FROM v WHERE s LIKE 'a%'",
		"SELECT id FROM v WHERE s LIKE '%eta'",
		"SELECT id FROM v WHERE s LIKE '_lpha'",
		"SELECT COUNT(*), SUM(a), AVG(f), MIN(s), MAX(s) FROM v",
		"SELECT b, COUNT(*) FROM v GROUP BY b",
		"SELECT id FROM v WHERE a + s > 0",
		"SELECT a + s FROM v WHERE id > 0",
	}
	for _, sql := range stmts {
		execThreeWay(t, e, 4, sql)
	}
}

// TestParallelMetrics: a fanned-out query must tick vm.parallel_queries,
// vm.morsels and vm.parallel_workers; a serial query must not.
func TestParallelMetrics(t *testing.T) {
	e := newParTestDB(t, 3000)
	forceParallel(t, e, 4, 256)
	q0, m0, w0 := e.mParQueries.Value(), e.mParMorsels.Value(), e.mParWorkers.Value()
	mustExec(t, e, "SELECT id FROM p WHERE v > 500")
	if e.mParQueries.Value() != q0+1 {
		t.Fatalf("vm.parallel_queries: got %d, want %d", e.mParQueries.Value(), q0+1)
	}
	if e.mParMorsels.Value() <= m0 {
		t.Fatal("vm.morsels did not increase")
	}
	if got := e.mParWorkers.Value() - w0; got < 2 || got > 4 {
		t.Fatalf("vm.parallel_workers delta: got %d, want 2..4", got)
	}
	// Width 1 — by configuration, or because the relation is under two
	// morsels — is not a parallel query: none of the three counters the
	// benchmark's vm.parallel_query_share / vm.morsels_per_query read
	// may move, whatever phases the statement runs.
	for _, c := range []struct {
		width int
		sql   string
	}{
		{1, "SELECT id FROM p WHERE v > 500"},
		{1, "SELECT v % 7, COUNT(*), SUM(id) FROM p GROUP BY v % 7"},
		{1, "SELECT COUNT(*) FROM p JOIN dim ON p.v % 7 = dim.k"},
		{4, "SELECT label FROM dim WHERE k > 2"},
		{4, "SELECT id, v FROM p WHERE id = 77"},
	} {
		e.parallelism.Store(int64(c.width))
		q1, m1, w1 := e.mParQueries.Value(), e.mParMorsels.Value(), e.mParWorkers.Value()
		mustExec(t, e, c.sql)
		if e.mParQueries.Value() != q1 || e.mParMorsels.Value() != m1 || e.mParWorkers.Value() != w1 {
			t.Fatalf("%s: width-1 statement moved vm.parallel_queries/vm.morsels/vm.parallel_workers by %d/%d/%d", c.sql,
				e.mParQueries.Value()-q1, e.mParMorsels.Value()-m1, e.mParWorkers.Value()-w1)
		}
	}
	res := mustExec(t, e, "SELECT count(*) FROM sys_metrics WHERE name LIKE 'vm.parallel%' OR name = 'vm.morsels'")
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("sys_metrics parallel rows: got %d, want 3", res.Rows[0][0].Int())
	}
}

// TestOnlyScansFanOut: the compiled snapshot scan with a WHERE is the
// one parallel operator. Group keys, aggregate folds and hash-join
// builds over a table large enough to fan out run at width 1 when its
// scan has no WHERE; a filtered GROUP BY fans out its scan alone and
// counts as one parallel query.
func TestOnlyScansFanOut(t *testing.T) {
	e := newParTestDB(t, 3000)
	forceParallel(t, e, 4, 256)
	for _, sql := range []string{
		"SELECT v % 7, COUNT(*), SUM(id) FROM p GROUP BY v % 7",
		"SELECT d.k, b.id FROM dim d JOIN p b ON d.k = b.v",
	} {
		q0, m0, w0 := e.mParQueries.Value(), e.mParMorsels.Value(), e.mParWorkers.Value()
		mustExec(t, e, sql)
		if e.mParQueries.Value() != q0 || e.mParMorsels.Value() != m0 || e.mParWorkers.Value() != w0 {
			t.Fatalf("%s: moved vm.parallel_queries/vm.morsels/vm.parallel_workers by %d/%d/%d", sql,
				e.mParQueries.Value()-q0, e.mParMorsels.Value()-m0, e.mParWorkers.Value()-w0)
		}
	}
	q0 := e.mParQueries.Value()
	mustExec(t, e, "SELECT v % 7, COUNT(*), SUM(id) FROM p WHERE v > 100 GROUP BY v % 7")
	if got := e.mParQueries.Value() - q0; got != 1 {
		t.Fatalf("filtered GROUP BY: vm.parallel_queries moved by %d, want 1", got)
	}
	if e.parExtra.Load() != 0 {
		t.Fatalf("leaked worker reservations: %d", e.parExtra.Load())
	}
}

// TestSubqueryPredicateFansOut: a scan whose WHERE holds a subquery fans
// out like any other — every worker's machine reads the subquery through
// the statement's binder, which runs it once — and returns width 1's
// rows. So does its projection's subquery, which runs on whichever
// worker hands a morsel to the sink. -race is the second witness.
func TestSubqueryPredicateFansOut(t *testing.T) {
	e := newParTestDB(t, 3000)
	forceParallel(t, e, 4, 256)
	const sql = "SELECT id, v * 2, (SELECT MIN(label) FROM dim) FROM p WHERE v % 7 IN (SELECT k FROM dim WHERE k > 2) AND (SELECT MAX(k) FROM dim) > 5"
	var rows [2]*Result
	for i, width := range []int{1, 4} {
		e.parallelism.Store(int64(width))
		s0, q0 := e.mRowsScanned.Value(), e.mParQueries.Value()
		rows[i] = mustExec(t, e, sql)
		if got := e.mRowsScanned.Value() - s0; got != 3000+7+7+7 {
			t.Fatalf("width %d: scanned %d rows, want 3000 and each subquery's 7 once", width, got)
		}
		if fanned := e.mParQueries.Value() != q0; fanned != (width > 1) {
			t.Fatalf("width %d: fanned out %v", width, fanned)
		}
		if e.parExtra.Load() != 0 {
			t.Fatalf("width %d: leaked worker reservations: %d", width, e.parExtra.Load())
		}
	}
	if len(rows[0].Rows) == 0 {
		t.Fatal("the predicate kept no row")
	}
	sameOutcome(t, sql+" (width 4)", rows[1], nil, rows[0], nil)
}

// TestParallelFailedStatementTally: when WHERE fails, the lanes kept
// before the failing batch have reached the sink at every width, as they
// do at width 1, so a sink's subquery — in the projection or in an
// aggregate's argument — has run and its rows count in rows_scanned
// exactly when it did at width 1; the table's own rows count at no
// width. WHERE fails in morsel 0's first batch (nothing reached the
// sink), in its second batch, in morsel 2 and on the last row.
func TestParallelFailedStatementTally(t *testing.T) {
	const n = 8 * vm.BatchSize
	e := newPhaseTestDB(t, n)
	mustExec(t, e, "CREATE TABLE d (k INT)")
	mustExec(t, e, "INSERT INTO d (k) VALUES (1), (2), (3), (4), (5), (6), (7)")
	forceParallel(t, e, 4, 2*vm.BatchSize)
	for _, at := range []struct {
		id      int
		scanned int64 // the subquery's 7 rows, once it has run
	}{{5, 0}, {vm.BatchSize + 5, 7}, {5*vm.BatchSize + 5, 7}, {n - 1, 7}} {
		where := fmt.Sprintf(" FROM ph WHERE CASE WHEN id = %d THEN 1 / 0 ELSE 1 END = 1", at.id)
		for _, sql := range []string{
			"SELECT id, (SELECT COUNT(*) FROM d)" + where,
			"SELECT COUNT(*), SUM(id + (SELECT COUNT(*) FROM d))" + where,
		} {
			var errs [2]string
			for i, width := range []int{1, 4} {
				e.parallelism.Store(int64(width))
				s0 := e.mRowsScanned.Value()
				_, err := e.Exec(sql)
				if err == nil {
					t.Fatalf("%s (width %d): no error", sql, width)
				}
				errs[i] = err.Error()
				if got := e.mRowsScanned.Value() - s0; got != at.scanned {
					t.Errorf("%s (width %d): rows_scanned %d, want %d", sql, width, got, at.scanned)
				}
			}
			if errs[0] != errs[1] {
				t.Errorf("%s: width 1 error %q, width 4 error %q", sql, errs[0], errs[1])
			}
			if e.parExtra.Load() != 0 {
				t.Fatalf("%s: leaked worker reservations: %d", sql, e.parExtra.Load())
			}
		}
	}
}

// TestParallelHandOffBatches: a wide scan passes its sink exactly the
// batches the width-1 scan passes, in the same order — each batch's
// lanes by tid — with morsels of four whole batches, so a later
// morsel's worker is often partway through when its turn comes. With a
// WHERE error, the sink gets width 1's batches before the failing one
// and nothing after it.
func TestParallelHandOffBatches(t *testing.T) {
	const n = 16 * vm.BatchSize
	e := newPhaseTestDB(t, n)
	forceParallel(t, e, 4, 4*vm.BatchSize)
	for _, sql := range []string{
		"SELECT id FROM ph WHERE id % 3 != 0 AND v != 7",
		fmt.Sprintf("SELECT id FROM ph WHERE v != 7 AND CASE WHEN id = %d THEN 1 / 0 ELSE 1 END = 1", 9*vm.BatchSize+5),
	} {
		st, err := sqltext.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		sel := st.(*sqltext.Select)
		scan := func(width int) (got [][]int64, err error) {
			e.parallelism.Store(int64(width))
			ctx := &stmtCtx{snap: storage.SeqLatest}
			defer ctx.release()
			sp := e.newPlan(sel, false).sel
			src, err := e.buildFrom(sp, nil, nil, ctx)
			if err != nil {
				t.Fatal(err)
			}
			err = e.scanTable(src.tbl, e.newBinder(sp.subs, nil, ctx), &sp.where, func(s *batch) {
				got = append(got, slices.Clone(s.tids))
			})
			if e.parExtra.Load() != 0 {
				t.Fatalf("%s (width %d): leaked worker reservations: %d", sql, width, e.parExtra.Load())
			}
			return got, err
		}
		want, werr := scan(1)
		if len(want) < 8 {
			t.Fatalf("%s: width 1 sank %d batches, want several morsels' worth", sql, len(want))
		}
		for run := 0; run < 20; run++ {
			got, err := scan(4)
			if fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Fatalf("%s (width 4, run %d): error %v, width 1 %v", sql, run, err, werr)
			}
			if !slices.EqualFunc(got, want, slices.Equal[[]int64]) {
				t.Fatalf("%s (width 4, run %d): sink got %d batches unlike width 1's %d", sql, run, len(got), len(want))
			}
		}
	}
}

// TestParallelWorkerBudget: the worker pool is engine-wide — with the
// whole budget pinned by a fake reservation, scans degrade to serial
// rather than oversubscribing.
func TestParallelWorkerBudget(t *testing.T) {
	e := newParTestDB(t, 3000)
	forceParallel(t, e, 4, 256)
	if got := e.reserveWorkers(3); got != 3 {
		t.Fatalf("reserveWorkers(3): got %d", got)
	}
	q0 := e.mParQueries.Value()
	mustExec(t, e, "SELECT id FROM p WHERE v > 500") // budget gone: serial
	if e.mParQueries.Value() != q0 {
		t.Fatal("scan went parallel with the worker budget exhausted")
	}
	e.releaseWorkers(3)
	mustExec(t, e, "SELECT id FROM p WHERE v > 500")
	if e.mParQueries.Value() != q0+1 {
		t.Fatal("scan stayed serial after the budget was released")
	}
	if e.parExtra.Load() != 0 {
		t.Fatalf("leaked worker reservations: %d", e.parExtra.Load())
	}
}

// TestExplainParallelMarker: EXPLAIN shows [parallel n=K] exactly when
// the table clears the threshold and parallelism is on.
func TestExplainParallelMarker(t *testing.T) {
	e := newParTestDB(t, 3000)
	forceParallel(t, e, 4, 256)
	res := mustExec(t, e, "EXPLAIN SELECT id FROM p WHERE v > 500")
	out := planText(res)
	if !strings.Contains(out, "full-scan [compiled] [parallel n=4]") {
		t.Fatalf("missing parallel marker:\n%s", out)
	}
	e.parallelism.Store(1)
	res = mustExec(t, e, "EXPLAIN SELECT id FROM p WHERE v > 500")
	if out = planText(res); strings.Contains(out, "[parallel") {
		t.Fatalf("parallel marker with parallelism=1:\n%s", out)
	}
	e.parallelism.Store(4)
	morselSlots = 2048 // 3000 slots: under two full morsels
	res = mustExec(t, e, "EXPLAIN SELECT id FROM p WHERE v > 500")
	if out = planText(res); strings.Contains(out, "[parallel") {
		t.Fatalf("parallel marker below row threshold:\n%s", out)
	}
}

func planText(res *Result) string {
	var sb strings.Builder
	for _, r := range res.Rows {
		sb.WriteString(r[0].String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestParallelStress runs parallel SELECTs of every hot shape against
// concurrent writer churn and vacuum (checkpoint). Results cannot be
// compared to a serial baseline (the data moves), but every query must
// succeed and the race detector must stay quiet — the MVCC snapshot
// pins each scan to a consistent version set no matter how many
// workers walk it.
func TestParallelStress(t *testing.T) {
	e := newParTestDB(t, 3000)
	forceParallel(t, e, 4, 256)
	stop := make(chan struct{})
	var churn, readers sync.WaitGroup

	churn.Add(1)
	go func() { // writer churn: inserts, updates, deletes
		defer churn.Done()
		i := 3000
		for {
			select {
			case <-stop:
				return
			default:
			}
			e.Exec(fmt.Sprintf("INSERT INTO p (id, v, w, s, b) VALUES (%d, %d, 1.5, 'churn_%d', TRUE)", i, i%1000, i%17))
			e.Exec(fmt.Sprintf("UPDATE p SET v = v + 1 WHERE id = %d", i-1000))
			e.Exec(fmt.Sprintf("DELETE FROM p WHERE id = %d", i-2000))
			i++
		}
	}()
	churn.Add(1)
	go func() { // vacuum churn
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.Checkpoint(); err != nil && err != ErrCheckpointTxnOpen {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()

	queries := []string{
		"SELECT id FROM p WHERE v > 500",
		"SELECT id, v * 2 FROM p WHERE (v + id) % 5 = 0",
		"SELECT COUNT(*), SUM(v), MIN(s), MAX(w) FROM p WHERE v IS NOT NULL",
		"SELECT v % 7, COUNT(*) FROM p GROUP BY v % 7",
		"SELECT COUNT(*) FROM p JOIN dim ON p.v % 7 = dim.k",
		"SELECT id FROM p WHERE s LIKE 'str%'",
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(seed int) {
			defer readers.Done()
			for i := 0; i < 60; i++ {
				q := queries[(i+seed)%len(queries)]
				if _, err := e.Exec(q); err != nil {
					t.Errorf("%s: %v", q, err)
					return
				}
			}
		}(r)
	}

	readers.Wait()
	close(stop)
	churn.Wait()
	if e.parExtra.Load() != 0 {
		t.Fatalf("leaked worker reservations: %d", e.parExtra.Load())
	}
}

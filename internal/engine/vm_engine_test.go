package engine

import (
	"fmt"
	"strings"
	"testing"

	"ediflow/internal/engine/vm"
	"ediflow/internal/sqltext"
	"ediflow/internal/types"
)

// execBothModes runs sql twice and requires the second run — which finds
// its programs cached and draws the machines the first run released
// from their pools — to match the first: same error presence and text,
// same columns, same rows in order, values compared by kind and
// rendering. Under TestStatementCorpus the second run is also checked
// against the golden corpus, which holds what the tree-walk interpreter
// returned for it.
func execBothModes(t *testing.T, e *Engine, sql string, args ...types.Value) {
	t.Helper()
	compareModes(t, e, sql, func() (*Result, error) { return execSQL(t, e, sql, args...) })
}

// compareModes is execBothModes over an arbitrary run, returning the
// second run's outcome. A run may return rows beside an error (the table
// an erroring UPDATE left behind); they are compared too.
func compareModes(t *testing.T, e *Engine, label string, run func() (*Result, error)) (*Result, error) {
	t.Helper()
	first, ferr := again(run)
	res, err := run()
	sameOutcome(t, label+" (pooled rerun)", res, err, first, ferr)
	return res, err
}

func sameOutcome(t *testing.T, label string, got *Result, gerr error, want *Result, werr error) {
	t.Helper()
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: error divergence\ngot:  %v\nwant: %v", label, gerr, werr)
	}
	if gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("%s: error text divergence\ngot:  %v\nwant: %v", label, gerr, werr)
	}
	if got == nil || want == nil {
		if got != want {
			t.Fatalf("%s: one run returned no result", label)
		}
		return
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: row count divergence: got %d, want %d", label, len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		if len(got.Rows[i]) != len(want.Rows[i]) {
			t.Fatalf("%s row %d: width divergence", label, i)
		}
		for j := range got.Rows[i] {
			gv, wv := got.Rows[i][j], want.Rows[i][j]
			if gv.Kind() != wv.Kind() || gv.String() != wv.String() {
				t.Fatalf("%s row %d col %d: got %s(%s), want %s(%s)",
					label, i, j, gv.Kind(), gv.String(), wv.Kind(), wv.String())
			}
		}
	}
}

// updateBothModes runs an UPDATE of w, a scratch copy of v refilled
// before each run, twice (execBothModes) and compares the error and the
// table it leaves behind; it returns the second run's.
func updateBothModes(t *testing.T, e *Engine, sql string) (*Result, error) {
	t.Helper()
	return compareModes(t, e, sql, func() (*Result, error) {
		refillW(t, e)
		_, err := execSQL(t, e, sql)
		return mustExec(t, e, "SELECT id, a, f, s, b FROM w ORDER BY id"), err
	})
}

func refillW(t testing.TB, e *Engine) {
	mustExec(t, e, "DELETE FROM w")
	mustExec(t, e, "INSERT INTO w (id, a, f, s, b) SELECT id, a, f, s, b FROM v")
}

func newVMTestDB(t testing.TB) *Engine {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE v (id INT PRIMARY KEY, a INT, f FLOAT, s STRING, b BOOL)")
	rows := []string{
		"(1, 10, 1.5, 'alpha', TRUE)",
		"(2, -3, 2.25, 'beta', FALSE)",
		"(3, NULL, NULL, NULL, NULL)",
		"(4, 0, 0.0, '', TRUE)",
		"(5, 7, -4.5, 'Alpha', FALSE)",
		"(6, 1000000, 3.0, 'a%b_c', TRUE)",
		"(7, -1, 0.5, 'beta', NULL)",
	}
	for _, r := range rows {
		mustExec(t, e, "INSERT INTO v (id, a, f, s, b) VALUES "+r)
	}
	mustExec(t, e, "CREATE TABLE w (id INT PRIMARY KEY, a INT, f FLOAT, s STRING, b BOOL)")
	return e
}

// vmDifferentialStmts is TestVMDifferentialStatements' catalog over
// newVMTestDB; TestViewDifferential maintains its legal view shapes.
var vmDifferentialStmts = []string{
	// Comparisons and arithmetic over ints/floats with NULLs mixed in.
	"SELECT id FROM v WHERE a > 0",
	"SELECT id FROM v WHERE a >= -1 AND a <= 10",
	"SELECT id FROM v WHERE a * 2 + 1 = 15",
	"SELECT id, a + f FROM v",
	"SELECT id, a - f, a * f FROM v",
	"SELECT id FROM v WHERE f < 2.0 OR a > 5",
	"SELECT id FROM v WHERE NOT (a > 0)",
	"SELECT id FROM v WHERE a != 7",
	// NULL 3VL: NULL comparisons drop rows; IS NULL keeps them.
	"SELECT id FROM v WHERE a = NULL",
	"SELECT id FROM v WHERE a IS NULL",
	"SELECT id FROM v WHERE a IS NOT NULL AND b",
	"SELECT id FROM v WHERE b OR a > 100",
	"SELECT id, a IS NULL FROM v",
	// Errors: division by zero only when the erroring row survives.
	"SELECT id FROM v WHERE 10 / a > 0 AND a > 0",
	"SELECT id, 10 / a FROM v",
	"SELECT id, 10 / a FROM v WHERE a != 0 AND a IS NOT NULL",
	"SELECT id, a % 3 FROM v WHERE a IS NOT NULL AND a != 0",
	// Type-coercion failures must error identically.
	"SELECT id FROM v WHERE s > 1",
	"SELECT id, a + s FROM v",
	"SELECT id FROM v WHERE b + 1 = 2",
	// Strings: LIKE, concat, case sensitivity.
	"SELECT id FROM v WHERE s LIKE 'a%'",
	"SELECT id FROM v WHERE s LIKE '%eta'",
	"SELECT id FROM v WHERE s LIKE '_lpha'",
	"SELECT id FROM v WHERE s NOT LIKE 'b%'",
	"SELECT id, s || '-x' FROM v",
	"SELECT id FROM v WHERE s || 'z' = 'betaz'",
	// IN with constants, params, NULL semantics.
	"SELECT id FROM v WHERE a IN (10, 7, -1)",
	"SELECT id FROM v WHERE a IN (10, NULL)",
	"SELECT id FROM v WHERE a NOT IN (10, 7)",
	"SELECT id FROM v WHERE a NOT IN (10, NULL)",
	"SELECT id FROM v WHERE s IN ('alpha', 'beta')",
	// BETWEEN.
	"SELECT id FROM v WHERE a BETWEEN 0 AND 10",
	"SELECT id FROM v WHERE f BETWEEN -5.0 AND 1.0",
	"SELECT id FROM v WHERE a NOT BETWEEN 0 AND 10",
	// Functions: builtins over mixed/NULL input.
	"SELECT id, ABS(a), LENGTH(s) FROM v",
	"SELECT id, UPPER(s), LOWER(s) FROM v",
	"SELECT id, COALESCE(a, -99) FROM v",
	"SELECT id, SUBSTR(s, 2, 2) FROM v",
	"SELECT id, NULLIF(a, 0), IIF(a > 0, 'pos', 'neg') FROM v",
	"SELECT id, ROUND(f), FLOOR(f), CEIL(f) FROM v WHERE f IS NOT NULL",
	"SELECT id, SQRT(a) FROM v WHERE a >= 0",
	"SELECT id, SQRT(a) FROM v",
	"SELECT id, CAST_INT(f) FROM v WHERE f IS NOT NULL",
	"SELECT id, CAST_INT(s) FROM v",
	// CASE, both forms.
	"SELECT id, CASE WHEN a > 0 THEN 'pos' WHEN a < 0 THEN 'neg' ELSE 'zero' END FROM v",
	"SELECT id, CASE a WHEN 10 THEN 'ten' WHEN 0 THEN 'zero' END FROM v",
	// Unary minus.
	"SELECT id, -a, -f FROM v",
	// Aggregates fed by compiled argument vectors.
	"SELECT COUNT(*), SUM(a), AVG(a), MIN(a), MAX(a) FROM v",
	"SELECT COUNT(a), COUNT(DISTINCT s) FROM v",
	"SELECT s, COUNT(*), SUM(a) FROM v GROUP BY s",
	"SELECT a % 2, COUNT(*) FROM v WHERE a IS NOT NULL AND a != 0 GROUP BY a % 2",
	"SELECT s, SUM(a) FROM v GROUP BY s HAVING SUM(a) > 0",
	"SELECT SUM(a + 1), SUM(f * 2.0) FROM v",
	// ORDER BY / LIMIT on compiled scans.
	"SELECT id FROM v WHERE a IS NOT NULL ORDER BY a DESC LIMIT 3",
	"SELECT id, a FROM v ORDER BY id LIMIT 2 OFFSET 2",
	// A subquery item beside lowered ones.
	"SELECT id, a * 2, (SELECT MAX(a) FROM v) FROM v WHERE id <= 3",
	// An arithmetic item and an unknown function erring on different
	// rows: the single row-major loop must surface the lowest row's
	// error, and within a row the leftmost item's.
	"SELECT id, 10 / (id - 5), CASE WHEN id = 3 THEN NOSUCH(a) ELSE 1 END FROM v",
	"SELECT id, 10 / (id - 3), CASE WHEN id = 5 THEN NOSUCH(a) ELSE 1 END FROM v",
	"SELECT id, CASE WHEN id = 3 THEN NOSUCH(a) ELSE 1 END, 10 / (id - 3) FROM v",
	// Subquery and unknown-function WHEREs before an arithmetic
	// projection; WHERE errors beat projection errors.
	"SELECT id, a * 2 FROM v WHERE a IN (SELECT a FROM v WHERE a > 0)",
	"SELECT id, 10 / (id - 1) FROM v WHERE NOSUCH(a) > 0",
	"SELECT DISTINCT s FROM v WHERE EXISTS (SELECT 1 FROM v WHERE a > 5) LIMIT 3 OFFSET 1",
	"SELECT DISTINCT s FROM v WHERE a IS NOT NULL LIMIT 3 OFFSET 1",
	// Errors stay lazy: an unknown function or column over an empty
	// relation is never evaluated.
	"SELECT NOSUCH(a) FROM v WHERE id < 0",
	"SELECT nosuch FROM v WHERE id < 0",
	"SELECT s, COUNT(NOSUCH(a)) FROM v WHERE id < 0 GROUP BY NOSUCH(s)",
	"SELECT NOSUCH(a) FROM v",
	"SELECT nosuch FROM v",
	// Subqueries and unknown functions as GROUP BY keys, aggregate
	// arguments and in HAVING.
	"SELECT COUNT(*), MIN(a) FROM v GROUP BY a IN (SELECT a FROM v WHERE a > 5)",
	"SELECT COUNT(a IN (SELECT a FROM v WHERE a > 5)), SUM(a) FROM v",
	"SELECT s, COUNT(NOSUCH(a)) FROM v GROUP BY s",
	"SELECT s, SUM(a) FROM v GROUP BY s HAVING SUM(a) IN (SELECT a FROM v)",
	// An ambiguous name in a self-join errs where it is evaluated.
	"SELECT x.id, a FROM v x JOIN v y ON x.id = y.id",
	"SELECT x.id FROM v x JOIN v y ON x.id = y.id WHERE a > 0",
	// A failing subquery fails the same way on every row.
	"SELECT id FROM v WHERE a IN (SELECT 10 / (a - 7) FROM v)",
}

// TestVMDifferentialStatements runs a catalog of full statements and
// requires the interpreter's behavior (the golden corpus) and the
// pooled rerun's to be bit-identical — including NULL three-valued
// logic, lane-held errors, and type-coercion failures.
func TestVMDifferentialStatements(t *testing.T) {
	e := newVMTestDB(t)
	for _, sql := range vmDifferentialStmts {
		execBothModes(t, e, sql)
	}
	// Parameterized forms.
	e2 := newVMTestDB(t)
	execBothModes(t, e2, "SELECT id FROM v WHERE a > ?", types.NewInt(0))
	execBothModes(t, e2, "SELECT id FROM v WHERE a IN (?, ?)", types.NewInt(10), types.NewInt(7))
	execBothModes(t, e2, "SELECT id, a + ? FROM v", types.NewInt(5))
	execBothModes(t, e2, "SELECT id FROM v WHERE s LIKE ?", types.NewString("%eta"))
	execBothModes(t, e2, "SELECT id FROM v WHERE a IN (SELECT a FROM v WHERE a > ?)", types.NewInt(0))
	execBothModes(t, e2, "SELECT id, a + ? FROM v WHERE id < 0")

	// UPDATE SET, with and without subqueries and unknown functions,
	// erring mid-way and not.
	for _, sql := range []string{
		"UPDATE w SET a = a * 2 + 1, s = s || '!' WHERE a IS NOT NULL",
		"UPDATE w SET a = (SELECT MAX(a) FROM v), f = f + 1 WHERE id > 2",
		"UPDATE w SET a = 10 / (id - 3), f = f + 1",
		"UPDATE w SET f = f + 1, a = CASE WHEN id = 4 THEN NOSUCH(a) ELSE a END",
		"UPDATE w SET a = NOSUCH(a) WHERE id < 0",
		"UPDATE w SET a = a + 1 WHERE a IN (SELECT a FROM v WHERE a > 5)",
	} {
		updateBothModes(t, e2, sql)
	}
}

// TestVMDifferentialUpdates covers the compiled UPDATE SET and
// UPDATE/DELETE WHERE paths: at width 1 against the golden corpus, and
// with scans forced into two-row morsels at width 4 against width 1.
func TestVMDifferentialUpdates(t *testing.T) {
	run := func(width int) []string {
		e := newVMTestDB(t)
		forceParallel(t, e, width, 2)
		mustExec(t, e, "UPDATE v SET a = a * 2 + 1 WHERE a IS NOT NULL")
		mustExec(t, e, "UPDATE v SET s = s || '!' WHERE s LIKE 'a%'")
		mustExec(t, e, "DELETE FROM v WHERE a > 100")
		res := mustExec(t, e, "SELECT id, a, f, s, b FROM v ORDER BY id")
		var out []string
		for _, r := range res.Rows {
			out = append(out, types.RowKey(r))
		}
		return out
	}
	one := run(1)
	var four []string
	again(func() (*Result, error) { four = run(4); return nil, nil })
	if len(one) != len(four) {
		t.Fatalf("row count divergence: width 1 %d, width 4 %d", len(one), len(four))
	}
	for k := range one {
		if one[k] != four[k] {
			t.Fatalf("row %d divergence\nwidth 1: %s\nwidth 4: %s", k, one[k], four[k])
		}
	}
}

// FuzzVMDifferential feeds arbitrary expression text through every
// expression site — scan filter, projection, GROUP BY key beside an
// aggregate argument, UPDATE SET — requiring the rows and first error of
// the tree-walk oracle run per row of v (refSelect, refUpdate), and a
// pooled rerun identical to the first. NOW() is excluded: it is the one
// non-deterministic builtin.
func FuzzVMDifferential(f *testing.F) {
	seeds := []string{
		"a > 0",
		"a * 2 + f",
		"a / (a - 7)",
		"s LIKE 'a%'",
		"a IN (10, NULL, 7)",
		"NOT (a > 0 OR b)",
		"CASE WHEN a > 0 THEN s ELSE 'x' END",
		"COALESCE(a, f, 0)",
		"a BETWEEN -1 AND f",
		"s || s = 'betabeta'",
		"UPPER(s) = 'ALPHA'",
		"a IS NULL AND b IS NOT NULL",
		"-a % 3",
		"IIF(b, a, f)",
		"SUBSTR(s, a, 2)",
		"a + s",
		"1 / 0",
		// Shapes that lower to a subquery instruction or to lanes holding
		// an error: subqueries, an unknown function, an ambiguous column
		// in a self-join.
		"a IN (SELECT a FROM v)",
		"EXISTS (SELECT 1 FROM v WHERE a > 5)",
		"(SELECT MAX(a) FROM v) > a",
		"NOSUCH(a)",
		"a FROM v x JOIN v y ON x.id = y.id --", // ambiguous column in a self-join
	}
	for _, s := range seeds {
		f.Add(s)
	}
	e := newVMTestDB(f)
	f.Fuzz(func(t *testing.T, expr string) {
		if len(expr) > 200 || strings.Contains(strings.ToUpper(expr), "NOW") {
			t.Skip()
		}
		for _, sql := range []string{
			"SELECT id FROM v WHERE " + expr,
			"SELECT id, " + expr + " FROM v",
			"SELECT COUNT(*), MIN(" + expr + ") FROM v GROUP BY " + expr,
		} {
			execBothModes(t, e, sql)
			if st, err := sqltext.Parse(sql); err == nil {
				if sel, ok := st.(*sqltext.Select); ok {
					if want, werr, ok := refSelect(e, sel); ok {
						got, gerr := e.Exec(sql)
						sameOutcome(t, sql+" (oracle)", got, gerr, want, werr)
					}
				}
			}
		}
		sql := "UPDATE w SET a = " + expr
		got, gerr := updateBothModes(t, e, sql)
		if st, err := sqltext.Parse(sql); err == nil {
			if up, ok := st.(*sqltext.Update); ok {
				if want, werr, ok := refUpdate(t, e, up); ok {
					sameOutcome(t, sql+" (oracle)", got, gerr, want, werr)
				}
			}
		}
	})
}

// TestVMStaleProgramAfterDDL pins the regression from the issue: a
// compiled program captured against one table layout must never execute
// against a different one after DDL drops/recreates the table.
func TestVMStaleProgramAfterDDL(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE d (x INT, y INT, z INT)")
	mustExec(t, e, "INSERT INTO d (x, y, z) VALUES (1, 2, 3)")
	const q = "SELECT x FROM d WHERE y + z > 0"
	if res := mustExec(t, e, q); len(res.Rows) != 1 {
		t.Fatalf("warmup: want 1 row, got %d", len(res.Rows))
	}
	if e.plans.len() == 0 {
		t.Fatal("no plan, and so no compiled program, cached after warmup")
	}
	// Recreate the table without z: the cached program's column slots
	// would read past the new row width if served stale.
	mustExec(t, e, "DROP TABLE d")
	if n := e.plans.len(); n != 0 {
		t.Fatalf("DDL did not purge the plans and their programs: %d entries", n)
	}
	mustExec(t, e, "CREATE TABLE d (x INT, y INT)")
	mustExec(t, e, "INSERT INTO d (x, y) VALUES (5, 6)")
	if _, err := e.Exec(q); err == nil {
		t.Fatal("query referencing dropped column z should now fail")
	}
	// And a layout-compatible query must run fresh, not stale.
	if res := mustExec(t, e, "SELECT x FROM d WHERE y > 0"); len(res.Rows) != 1 || res.Rows[0][0].Int() != 5 {
		t.Fatalf("post-DDL query wrong result: %v", res.Rows)
	}
}

// TestVMFunctionRegistryInvalidation: re-registering a scalar function
// must purge compiled programs, otherwise the old implementation stays
// baked into cached code.
func TestVMFunctionRegistryInvalidation(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE r (x INT)")
	mustExec(t, e, "INSERT INTO r (x) VALUES (10)")
	e.RegisterFunc("SCALE", func(args []types.Value) (types.Value, error) {
		n, err := args[0].AsInt()
		if err != nil {
			return types.Null, err
		}
		return types.NewInt(2 * n), nil
	})
	const q = "SELECT SCALE(x) FROM r"
	if res := mustExec(t, e, q); res.Rows[0][0].Int() != 20 {
		t.Fatalf("first impl: got %v", res.Rows[0][0])
	}
	e.RegisterFunc("SCALE", func(args []types.Value) (types.Value, error) {
		n, err := args[0].AsInt()
		if err != nil {
			return types.Null, err
		}
		return types.NewInt(3 * n), nil
	})
	if res := mustExec(t, e, q); res.Rows[0][0].Int() != 30 {
		t.Fatalf("re-registered impl not picked up: got %v (stale compiled program?)", res.Rows[0][0])
	}
	// UDFs cannot shadow builtins.
	e.RegisterFunc("ABS", func([]types.Value) (types.Value, error) {
		return types.NewInt(-1), nil
	})
	if res := mustExec(t, e, "SELECT ABS(-5) FROM r"); res.Rows[0][0].Int() != 5 {
		t.Fatalf("builtin ABS shadowed: got %v", res.Rows[0][0])
	}
}

// TestVMBatchBoundaries sweeps result sizes around the batch constant —
// 0, 1, batch-1, batch, batch+1, 3*batch — against plain scans (at width
// 1 and fanned out over 256-slot morsels), LIMIT, and top-k. Catches
// off-by-one selection carryover at batch edges.
func TestVMBatchBoundaries(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE big (n INT, grp INT)")
	total := 3*vm.BatchSize + 17
	var sb strings.Builder
	for i := 0; i < total; i++ {
		if sb.Len() == 0 {
			sb.WriteString("INSERT INTO big (n, grp) VALUES ")
		} else {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i%10)
		if (i+1)%1000 == 0 || i == total-1 {
			mustExec(t, e, sb.String())
			sb.Reset()
		}
	}

	forceParallel(t, e, 1, 256)
	sizes := []int{0, 1, vm.BatchSize - 1, vm.BatchSize, vm.BatchSize + 1, 3 * vm.BatchSize}
	for _, want := range sizes {
		sql := fmt.Sprintf("SELECT n FROM big WHERE n < %d", want)
		res, err := execSQL(t, e, sql)
		if err != nil || len(res.Rows) != want {
			t.Fatalf("size %d: got %v, %v", want, res, err)
		}
		e.parallelism.Store(4)
		wide, werr := again(func() (*Result, error) { return execSQL(t, e, sql) })
		e.parallelism.Store(1)
		sameOutcome(t, sql+" (width 4)", wide, werr, res, err)
		// LIMIT capping a larger compiled result to the boundary size.
		res = mustExec(t, e, fmt.Sprintf("SELECT n FROM big WHERE n >= 0 LIMIT %d", want))
		if len(res.Rows) != want {
			t.Fatalf("LIMIT %d: got %d rows", want, len(res.Rows))
		}
		// Top-k: ORDER BY with LIMIT over the compiled scan.
		res = mustExec(t, e, fmt.Sprintf("SELECT n FROM big ORDER BY n DESC LIMIT %d", want))
		if len(res.Rows) != want {
			t.Fatalf("top-k %d: got %d rows", want, len(res.Rows))
		}
		for i := 1; i < len(res.Rows); i++ {
			if res.Rows[i][0].Int() > res.Rows[i-1][0].Int() {
				t.Fatalf("top-k %d: not descending at %d", want, i)
			}
		}
	}
	// Batched grouping across chunk edges.
	execBothModes(t, e, "SELECT grp, COUNT(*), SUM(n) FROM big GROUP BY grp")
}

// TestVMMultiBatchLogicalReuse: regression for stale selection bits.
// Bool vectors are reused across batches and the AND/OR kernels
// skip-write false lanes, so a true bit surviving from batch k would
// over-match batch k+1 unless reuse zeroes the storage. The first
// predicate is the sharpest probe: its left operand is dense in batch 1
// and all-false afterwards, so any leaked bit shows up as extra rows.
func TestVMMultiBatchLogicalReuse(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE mb (n INT)")
	total := 4 * vm.BatchSize
	mustExec(t, e, "BEGIN")
	for i := 0; i < total; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO mb (n) VALUES (%d)", i))
	}
	mustExec(t, e, "COMMIT")
	for _, q := range []string{
		fmt.Sprintf("SELECT n FROM mb WHERE n < %d AND n %% 7 = 0", vm.BatchSize),
		"SELECT n FROM mb WHERE (n * 3 + 1) % 7 = 0 AND n % 11 != 0",
		fmt.Sprintf("SELECT n FROM mb WHERE n %% 13 = 0 OR n >= %d", 3*vm.BatchSize),
		"SELECT COUNT(*) FROM mb WHERE n % 2 = 0 AND n % 3 = 0",
	} {
		execBothModes(t, e, q)
	}
}

// TestErrorsStayLazy: a name that does not resolve, an unknown function
// and a failing subquery err only where evaluation reaches them — never
// behind a FALSE AND operand, and never over a relation with no rows.
func TestErrorsStayLazy(t *testing.T) {
	e := newVMTestDB(t) // w is empty
	for _, sql := range []string{
		"SELECT id FROM v WHERE id > 100 AND nofunc(a) = 1",
		"SELECT id FROM v WHERE id > 100 AND nosuch IN (SELECT 1 / 0 FROM v)",
		"SELECT nofunc(a) FROM w",
		"SELECT nosuch, COUNT(nofunc(a)) FROM w GROUP BY nosuch",
		"SELECT id FROM w WHERE a IN (SELECT nosuch FROM v)",
		"SELECT id FROM v ORDER BY CASE WHEN id > 0 THEN 1 ELSE nosuch END LIMIT 0",
	} {
		if res, err := execSQL(t, e, sql); err != nil || len(res.Rows) != 0 {
			t.Errorf("%s: got %v, %v; want no rows and no error", sql, res, err)
		}
	}
	if _, err := execSQL(t, e, "SELECT id FROM v WHERE id > 6 AND nofunc(a) = 1"); err == nil || err.Error() != "engine: unknown function NOFUNC" {
		t.Errorf("a reached unknown function: got %v", err)
	}
}

// TestVMMetricsCounters: the vm.* counters must tick for compiled
// statements.
func TestVMMetricsCounters(t *testing.T) {
	e := newVMTestDB(t)
	c0, b0, r0 := e.mVMCompile.Value(), e.mVMBatches.Value(), e.mVMRows.Value()
	mustExec(t, e, "SELECT id FROM v WHERE a > 0")
	if e.mVMCompile.Value() == c0 {
		t.Fatal("vm.compile did not increase")
	}
	if e.mVMBatches.Value() == b0 || e.mVMRows.Value() == r0 {
		t.Fatal("vm.exec_batches / vm.rows did not increase")
	}
	// Counters are exported through sys_metrics.
	res := mustExec(t, e, "SELECT name FROM sys_metrics WHERE name LIKE 'vm.%'")
	if len(res.Rows) < 3 {
		t.Fatalf("sys_metrics vm.* rows: got %d, want >= 3", len(res.Rows))
	}
}

// TestExplainCompiledMarkers: every full-scan filter and every
// non-aggregate projection runs on the VM, so the markers appear on those
// plan shapes whatever the expressions hold — subqueries and names that
// do not resolve included — and never on index paths or aggregates.
func TestExplainCompiledMarkers(t *testing.T) {
	e := newVMTestDB(t)
	wantLine(t, explainLines(t, e, "SELECT id FROM v WHERE a + 1 > 0"), "scan v: full-scan [compiled]")
	wantLine(t, explainLines(t, e, "SELECT a * 2 FROM v WHERE a > 0"), "project: compiled")
	wantLine(t, explainLines(t, e, "UPDATE v SET a = 0 WHERE a < 0"), "update v: full-scan [compiled]")
	wantLine(t, explainLines(t, e, "DELETE FROM v WHERE a < 0"), "delete v: full-scan [compiled]")
	lines := explainLines(t, e, "SELECT id, NOSUCH(a) FROM v WHERE a > (SELECT MIN(a) FROM v)")
	wantLine(t, lines, "scan v: full-scan [compiled]")
	wantLine(t, lines, "project: compiled")
	wantLine(t, explainLines(t, e, "DELETE FROM v WHERE nosuch IN (SELECT a FROM v)"), "delete v: full-scan [compiled]")
	// An index path and an aggregate projection carry no marker.
	wantLine(t, explainLines(t, e, "SELECT id FROM v WHERE id = 3"), "scan v: pk-point")
	for _, l := range explainLines(t, e, "SELECT COUNT(*) FROM v WHERE a > 0") {
		if l == "project: compiled" {
			t.Fatalf("aggregate projection marked %q", l)
		}
	}
}

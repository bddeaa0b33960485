package engine

import (
	"fmt"
	"strings"
	"testing"

	"ediflow/internal/engine/vm"
	"ediflow/internal/types"
)

// execBothModes runs sql under compiled evaluation and on the reference
// (interpretAll: every expression through the interpreter instruction,
// aggregates through evalAgg) and requires identical results: same error
// presence/text, same columns, same rows in order, with values compared
// by kind and rendering.
func execBothModes(t *testing.T, e *Engine, sql string, args ...types.Value) {
	t.Helper()
	compareModes(t, e, sql, func() (*Result, error) { return execSQL(t, e, sql, args...) })
}

// compareModes is execBothModes over an arbitrary run. A run may return
// rows beside an error (the table an erroring UPDATE left behind); they
// are compared too. The compiled mode runs twice in a row: the second
// run finds its programs cached and draws the machines the first run
// released from their pools, and must match the reference all the same.
func compareModes(t *testing.T, e *Engine, label string, run func() (*Result, error)) {
	t.Helper()
	cres, cerr := run()
	pres, perr := run()
	e.interpretAll.Store(true)
	ires, ierr := run()
	e.interpretAll.Store(false)
	sameOutcome(t, label, cres, cerr, ires, ierr)
	sameOutcome(t, label+" (pooled rerun)", pres, perr, ires, ierr)
}

func sameOutcome(t *testing.T, label string, cres *Result, cerr error, ires *Result, ierr error) {
	t.Helper()
	if (cerr == nil) != (ierr == nil) {
		t.Fatalf("%s: error divergence\ncompiled:  %v\nreference: %v", label, cerr, ierr)
	}
	if cerr != nil && cerr.Error() != ierr.Error() {
		t.Fatalf("%s: error text divergence\ncompiled:  %v\nreference: %v", label, cerr, ierr)
	}
	if cres == nil || ires == nil {
		if cres != ires {
			t.Fatalf("%s: one mode returned no result", label)
		}
		return
	}
	if len(cres.Rows) != len(ires.Rows) {
		t.Fatalf("%s: row count divergence: compiled %d, reference %d", label, len(cres.Rows), len(ires.Rows))
	}
	for i := range cres.Rows {
		if len(cres.Rows[i]) != len(ires.Rows[i]) {
			t.Fatalf("%s row %d: width divergence", label, i)
		}
		for j := range cres.Rows[i] {
			cv, iv := cres.Rows[i][j], ires.Rows[i][j]
			if cv.Kind() != iv.Kind() || cv.String() != iv.String() {
				t.Fatalf("%s row %d col %d: compiled %s(%s), reference %s(%s)",
					label, i, j, cv.Kind(), cv.String(), iv.Kind(), iv.String())
			}
		}
	}
}

// updateBothModes runs an UPDATE of w, a scratch copy of v refilled
// before each run, in both modes and compares the error and the table
// it leaves behind (rows before an erroring one stay applied).
func updateBothModes(t *testing.T, e *Engine, sql string) {
	t.Helper()
	compareModes(t, e, sql, func() (*Result, error) {
		mustExec(t, e, "DELETE FROM w")
		mustExec(t, e, "INSERT INTO w (id, a, f, s, b) SELECT id, a, f, s, b FROM v")
		_, err := execSQL(t, e, sql)
		return mustExec(t, e, "SELECT id, a, f, s, b FROM w ORDER BY id"), err
	})
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

// TestVMDifferentialStatements runs a catalog of full statements in both
// evaluation modes and requires bit-identical behavior — including NULL
// three-valued logic, lane-held errors, and type-coercion failures.
func TestVMDifferentialStatements(t *testing.T) {
	e := newVMTestDB(t)
	stmts := []string{
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
		// Mixed compiled/interpreted projection (subquery item falls back).
		"SELECT id, a * 2, (SELECT MAX(a) FROM v) FROM v WHERE id <= 3",
		// A lowered item and an interpreted one erring on different rows:
		// the single row-major loop must surface the lowest row's error,
		// and within a row the leftmost item's.
		"SELECT id, 10 / (id - 5), CASE WHEN id = 3 THEN NOSUCH(a) ELSE 1 END FROM v",
		"SELECT id, 10 / (id - 3), CASE WHEN id = 5 THEN NOSUCH(a) ELSE 1 END FROM v",
		"SELECT id, CASE WHEN id = 3 THEN NOSUCH(a) ELSE 1 END, 10 / (id - 3) FROM v",
		// Interpreted WHERE (no projection pushdown) before a lowered
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
		// Interpreted GROUP BY keys, aggregate arguments and HAVING.
		"SELECT COUNT(*), MIN(a) FROM v GROUP BY a IN (SELECT a FROM v WHERE a > 5)",
		"SELECT COUNT(a IN (SELECT a FROM v WHERE a > 5)), SUM(a) FROM v",
		"SELECT s, COUNT(NOSUCH(a)) FROM v GROUP BY s",
		"SELECT s, SUM(a) FROM v GROUP BY s HAVING SUM(a) IN (SELECT a FROM v)",
		// An ambiguous name in a self-join is the interpreter's to report.
		"SELECT x.id, a FROM v x JOIN v y ON x.id = y.id",
		"SELECT x.id FROM v x JOIN v y ON x.id = y.id WHERE a > 0",
		// A failing subquery fails the same way on every row.
		"SELECT id FROM v WHERE a IN (SELECT 10 / (a - 7) FROM v)",
	}
	for _, sql := range stmts {
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

	// UPDATE SET, lowered and interpreted, erring mid-way and not.
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
// UPDATE/DELETE WHERE paths against the interpreter.
func TestVMDifferentialUpdates(t *testing.T) {
	run := func(compiled bool) []string {
		e := newVMTestDB(t)
		e.interpretAll.Store(!compiled)
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
	c, i := run(true), run(false)
	if len(c) != len(i) {
		t.Fatalf("row count divergence: compiled %d, interpreted %d", len(c), len(i))
	}
	for k := range c {
		if c[k] != i[k] {
			t.Fatalf("row %d divergence\ncompiled:    %s\ninterpreted: %s", k, c[k], i[k])
		}
	}
}

// FuzzVMDifferential feeds arbitrary expression text through both
// evaluation modes at every expression site — scan filter, projection,
// GROUP BY key beside an aggregate argument, UPDATE SET — requiring
// identical rows and identical error text. NOW() is excluded: it is the
// one non-deterministic builtin, so the two executions legitimately
// differ.
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
		// Shapes that do not lower: the interpreter instruction.
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
		}
		updateBothModes(t, e, "UPDATE w SET a = "+expr)
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
	if e.progs.len() == 0 {
		t.Fatal("no compiled program cached after warmup")
	}
	// Recreate the table without z: the cached program's column slots
	// would read past the new row width if served stale.
	mustExec(t, e, "DROP TABLE d")
	if n := e.progs.len(); n != 0 {
		t.Fatalf("DDL did not purge compiled programs: %d entries", n)
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
	// UDFs work interpreted too, and cannot shadow builtins.
	e.interpretAll.Store(true)
	if res := mustExec(t, e, q); res.Rows[0][0].Int() != 30 {
		t.Fatalf("interpreted UDF: got %v", res.Rows[0][0])
	}
	e.interpretAll.Store(false)
	e.RegisterFunc("ABS", func([]types.Value) (types.Value, error) {
		return types.NewInt(-1), nil
	})
	if res := mustExec(t, e, "SELECT ABS(-5) FROM r"); res.Rows[0][0].Int() != 5 {
		t.Fatalf("builtin ABS shadowed: got %v", res.Rows[0][0])
	}
}

// TestVMBatchBoundaries sweeps result sizes around the batch constant —
// 0, 1, batch-1, batch, batch+1, 3*batch — against plain scans, LIMIT,
// and top-k, under both evaluation modes. Catches off-by-one selection
// carryover at batch edges.
func TestVMBatchBoundaries(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE big (n INT, grp INT)")
	total := 3*vm.BatchSize + 17
	mustExec(t, e, "BEGIN")
	for i := 0; i < total; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO big (n, grp) VALUES (%d, %d)", i, i%10))
	}
	mustExec(t, e, "COMMIT")

	sizes := []int{0, 1, vm.BatchSize - 1, vm.BatchSize, vm.BatchSize + 1, 3 * vm.BatchSize}
	for _, want := range sizes {
		sql := fmt.Sprintf("SELECT n FROM big WHERE n < %d", want)
		for _, compiled := range []bool{true, false} {
			e.interpretAll.Store(!compiled)
			res := mustExec(t, e, sql)
			if len(res.Rows) != want {
				t.Fatalf("compiled=%v size %d: got %d rows", compiled, want, len(res.Rows))
			}
		}
		// LIMIT capping a larger compiled result to the boundary size.
		res := mustExec(t, e, fmt.Sprintf("SELECT n FROM big WHERE n >= 0 LIMIT %d", want))
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
	e.interpretAll.Store(false)
	// Batched grouping across chunk edges must agree with the interpreter.
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

// TestVMMetricsCounters: the vm.* counters must tick for compiled
// statements and vm.fallback must tick for unlowerable expressions.
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
	f0 := e.mVMFallback.Value()
	mustExec(t, e, "SELECT id FROM v WHERE a > (SELECT MIN(a) FROM v)")
	if e.mVMFallback.Value() == f0 {
		t.Fatal("vm.fallback did not increase for subquery predicate")
	}
	// Counters are exported through sys_metrics.
	res := mustExec(t, e, "SELECT name FROM sys_metrics WHERE name LIKE 'vm.%'")
	if len(res.Rows) < 4 {
		t.Fatalf("sys_metrics vm.* rows: got %d, want >= 4", len(res.Rows))
	}
}

// TestExplainCompiledMarkers: the marker must appear on lowered nodes
// and stay absent when the expression falls back.
func TestExplainCompiledMarkers(t *testing.T) {
	e := newVMTestDB(t)
	wantLine(t, explainLines(t, e, "SELECT id FROM v WHERE a + 1 > 0"), "scan v: full-scan [compiled]")
	wantLine(t, explainLines(t, e, "SELECT a * 2 FROM v WHERE a > 0"), "project: compiled")
	wantLine(t, explainLines(t, e, "UPDATE v SET a = 0 WHERE a < 0"), "update v: full-scan [compiled]")
	wantLine(t, explainLines(t, e, "DELETE FROM v WHERE a < 0"), "delete v: full-scan [compiled]")
	// Subquery predicates cannot lower: no marker.
	for _, l := range explainLines(t, e, "SELECT id FROM v WHERE a > (SELECT MIN(a) FROM v)") {
		if strings.Contains(l, "[compiled]") {
			t.Fatalf("unexpected compiled marker in %q", l)
		}
	}
	// With the VM disabled the marker disappears entirely.
	e.interpretAll.Store(true)
	for _, l := range explainLines(t, e, "SELECT id FROM v WHERE a + 1 > 0") {
		if strings.Contains(l, "compiled") {
			t.Fatalf("compiled marker with VM off: %q", l)
		}
	}
}

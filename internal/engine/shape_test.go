package engine

import (
	"fmt"
	"strings"
	"testing"

	"ediflow/internal/sqltext"
	"ediflow/internal/types"
)

// asWritten, while TestShapedMatchesAsWritten drives a suite, holds the
// twin of every engine the suite runs statements on.
var asWritten *shapeTwins

type shapeTwins struct {
	twins      map[*Engine]*Engine
	statements int // texts run
	shaped     int // of which sqltext.Shape lifted literals
}

// execSQL is how the engine tests run a statement text: e.Exec, under
// TestStatementCorpus one line of the golden corpus, and under
// TestExplainMatchesExecution an EXPLAIN checked against a run of the
// statement it explains. Inside
// TestShapedMatchesAsWritten the same text also runs as written —
// ExecStmt(sqltext.Parse(text)), past the plan cache and shaping — on a
// twin of e that has run every statement e has, at the same width, and
// the two outcomes must be identical: error text, columns, rows in order,
// affected count, tids and rows scanned.
func execSQL(t testing.TB, e *Engine, sql string, args ...types.Value) (*Result, error) {
	t.Helper()
	if asWritten == nil {
		if corpus == nil {
			res, err := e.Exec(sql, args...)
			if explained != nil && err == nil {
				explained.check(t, e, sql, args, res)
			}
			return res, err
		}
		s0 := e.mRowsScanned.Value()
		res, err := e.Exec(sql, args...)
		corpus.record(sql, args, res, err, e.mRowsScanned.Value()-s0)
		return res, err
	}
	twin := asWritten.twins[e]
	if twin == nil {
		twin = newTestDB(t)
		asWritten.twins[e] = twin
	}
	twin.parallelism.Store(e.parallelism.Load())
	asWritten.statements++
	if shaped, _ := sqltext.Shape(sql, args); shaped != sql {
		asWritten.shaped++
	}

	s0 := e.mRowsScanned.Value()
	res, err := e.Exec(sql, args...)
	scanned := e.mRowsScanned.Value() - s0
	s0 = twin.mRowsScanned.Value()
	wres, werr := (*Result)(nil), error(nil)
	if st, perr := sqltext.Parse(sql); perr != nil {
		werr = perr
	} else {
		wres, werr = twin.ExecStmt(st, args...)
	}
	wscanned := twin.mRowsScanned.Value() - s0

	if got, want := outcome(res, err, scanned), outcome(wres, werr, wscanned); got != want {
		at := 0 // show both from just before where they part
		for at < len(got) && at < len(want) && got[at] == want[at] {
			at++
		}
		at = max(0, at-80)
		t.Fatalf("%s\nshaped:     …%.240s\nas written: …%.240s", sql, got[at:], want[at:])
	}
	return res, err
}

// outcome renders everything a statement's caller can observe.
func outcome(res *Result, err error, scanned int64) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "columns %q affected %d tids %v scanned %d rows", res.Columns, res.Affected, res.TIDs, scanned)
	for _, r := range res.Rows {
		sb.WriteString(" [")
		for _, v := range r {
			fmt.Fprintf(&sb, "%s:%s|", v.Kind(), v)
		}
		sb.WriteString("]")
	}
	return sb.String()
}

// TestShapedMatchesAsWritten runs the differential and planner suites
// with every statement checked shaped against as written (execSQL). The
// suites' own set-up loads its tables with literal multi-row INSERTs, and
// their corpora hold literal IN lists, so both lifted positions are
// exercised on every kind, NULL and error they cover.
func TestShapedMatchesAsWritten(t *testing.T) {
	shaped := 0
	for _, suite := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"ShapedStatements", TestShapedStatements},
		{"VMDifferentialStatements", TestVMDifferentialStatements},
		{"VMDifferentialUpdates", TestVMDifferentialUpdates},
		{"ParallelDifferential", TestParallelDifferential},
		{"TwinTables", TestTwinTables},
		// planner_test.go, but for TestIndexMaintenanceAcrossMutationsAndReplay,
		// whose second engine reopens a directory its twin never saw.
		{"ExplainAccessPaths", TestExplainAccessPaths},
		{"CreateIndexBackfillAndPlannerPickup", TestCreateIndexBackfillAndPlannerPickup},
		{"InFastPathDeduplicates", TestInFastPathDeduplicates},
		{"PlanCacheHitMissAndDDLInvalidation", TestPlanCacheHitMissAndDDLInvalidation},
		{"ScanAccountingCountsExaminedRows", TestScanAccountingCountsExaminedRows},
		{"TopKMatchesFullSort", TestTopKMatchesFullSort},
		{"MultiColumnHashJoin", TestMultiColumnHashJoin},
		{"JoinProbesStorageIndex", TestJoinProbesStorageIndex},
		{"UniqueColumnPath", TestUniqueColumnPath},
		{"ExplainRoundTripThroughPrinter", TestExplainRoundTripThroughPrinter},
	} {
		t.Run(suite.name, func(t *testing.T) {
			tw := &shapeTwins{twins: map[*Engine]*Engine{}}
			asWritten = tw
			defer func() { asWritten = nil }()
			suite.run(t)
			t.Logf("%d statements, %d shaped", tw.statements, tw.shaped)
			shaped += tw.shaped
		})
	}
	if shaped == 0 {
		t.Fatal("no statement was shaped: the check compared nothing")
	}
}

// TestShapedStatements: literals lifted out of VALUES rows and WHERE IN
// lists bind the values the parser would have given them — every kind,
// NULL, escaped quotes, exponents, an integer too wide for INT, beside the
// caller's own '?' — and errors read as they would for the text as sent.
func TestShapedStatements(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE s (id INT PRIMARY KEY, i INT, f FLOAT, str STRING, b BOOL)")
	mustExec(t, e, `INSERT INTO s (id, i, f, str, b) VALUES
		(1, 10, 1.5, 'it''s', TRUE), (2, NULL, 1e3, NULL, FALSE), (3, 9223372036854775807, 9223372036854775808, '', NULL)`)
	mustExec(t, e, "INSERT INTO s (id, i, f, str, b) VALUES (?, 20, ?, 'x', ?), (5, ?, 7, ?, FALSE)",
		types.NewInt(4), types.NewFloat(2.5), types.NewBool(true), types.NewInt(50), types.NewString("y"))
	mustExec(t, e, "INSERT INTO s (id, i, f, str) VALUES (6, 2.0, 3, 'z')") // INT from FLOAT, FLOAT from INT

	res := mustExec(t, e, "SELECT id, i, f, str, b FROM s ORDER BY id")
	want := []string{
		"INT:1|INT:10|FLOAT:1.5|STRING:it's|BOOL:true|",
		"INT:2|NULL:NULL|FLOAT:1000|NULL:NULL|BOOL:false|",
		"INT:3|INT:9223372036854775807|FLOAT:9.223372036854776e+18|STRING:|NULL:NULL|",
		"INT:4|INT:20|FLOAT:2.5|STRING:x|BOOL:true|",
		"INT:5|INT:50|FLOAT:7|STRING:y|BOOL:false|",
		"INT:6|INT:2|FLOAT:3|STRING:z|NULL:NULL|",
	}
	if got := renderRows(res, true); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("table after shaped INSERTs:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	for _, q := range []struct {
		sql  string
		args []types.Value
		ids  string
	}{
		{"SELECT id FROM s WHERE i IN (10, NULL, 20) ORDER BY id", nil, "[1 4]"},
		{"SELECT id FROM s WHERE str IN ('it''s', '', 'y') ORDER BY id", nil, "[1 3 5]"},
		{"SELECT id FROM s WHERE f IN (1e3, 1.5, 9223372036854775808) ORDER BY id", nil, "[1 2 3]"},
		{"SELECT id FROM s WHERE f IN (1000, 7) ORDER BY id", nil, "[2 5]"},
		{"SELECT id FROM s WHERE id IN (?, 2, ?, 5.0) ORDER BY id", []types.Value{types.NewInt(1), types.NewInt(4)}, "[1 2 4 5]"},
		{"SELECT id FROM s WHERE b IN (TRUE, NULL) ORDER BY id", nil, "[1 4]"},
		{"SELECT id FROM s WHERE id NOT IN (1, 2, 3) AND (i IN (50, 2) OR str IN ('x')) ORDER BY id", nil, "[4 5 6]"},
		{"SELECT id FROM s WHERE _tid IN (1, 2) ORDER BY id", nil, "[1 2]"},
		// Mixed kinds: '20' equals no INT, 2.0 equals 2.
		{"SELECT id FROM s WHERE i IN (10, '20', ?, 2.0) ORDER BY id", []types.Value{types.NewString("x")}, "[1 6]"},
	} {
		res := mustExec(t, e, q.sql, q.args...)
		var ids []int64
		for _, r := range res.Rows {
			ids = append(ids, r[0].Int())
		}
		if got := fmt.Sprint(ids); got != q.ids {
			t.Errorf("%s: ids %s, want %s", q.sql, got, q.ids)
		}
	}
	if res := mustExec(t, e, "UPDATE s SET i = 0 WHERE id IN (1, 2, 99)"); res.Affected != 2 {
		t.Errorf("UPDATE … IN: affected %d, want 2", res.Affected)
	}
	if res := mustExec(t, e, "DELETE FROM s WHERE str IN ('x', 'y') OR b IN (NULL)"); res.Affected != 2 {
		t.Errorf("DELETE … IN: affected %d, want 2", res.Affected)
	}

	for _, c := range []struct {
		sql  string
		args []types.Value
		want string
	}{
		{"INSERT INTO s (id, i) VALUES (7, 1e)", nil, `bad number "1e"`},
		{"INSERT INTO s (id, i) VALUES (7, 1), (8, 'eight')", nil, "column s.i"},
		{"INSERT INTO s (id, i) VALUES (7, 1), (1, 2)", nil, "duplicate"},
		{"INSERT INTO s (id, i) VALUES (?, 1)", nil, "missing argument for parameter 1"},
		{"SELECT id FROM s WHERE i IN (1, ?)", nil, "missing argument for parameter 1"},
	} {
		_, err := execSQL(t, e, c.sql, c.args...)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.sql, err, c.want)
		}
	}
	// The bad number is reported against the text as sent, not its shape.
	if _, err := execSQL(t, e, "INSERT INTO s (id, i) VALUES (7, 1e)"); err == nil || !strings.Contains(err.Error(), "VALUES (7, 1e)") {
		t.Errorf("parse error %v does not quote the text as sent", err)
	}
	// The failed statements left nothing behind.
	if n := mustExec(t, e, "SELECT COUNT(*) FROM s WHERE id >= 7").Rows[0][0].Int(); n != 0 {
		t.Errorf("%d rows of failed INSERTs remain", n)
	}
}

// TestPlanCacheKeysShapes: bulk loads of one row count share one cache
// entry, and the entry holds placeholders, not the loads' data.
func TestPlanCacheKeysShapes(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE bulk (id INT PRIMARY KEY, s STRING)")
	miss0, hit0 := e.mPlanMiss.Value(), e.mPlanHit.Value()
	for i := 0; i < 149; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO bulk (id, s) VALUES (%d, 'row %d'), (%d, NULL)", 2*i, i, 2*i+1))
	}
	if n := e.plans.len(); n != 1 {
		t.Fatalf("149 loads of one shape left %d cache entries, want 1", n)
	}
	if miss, hit := e.mPlanMiss.Value()-miss0, e.mPlanHit.Value()-hit0; miss != 1 || hit != 148 {
		t.Fatalf("plan cache: %d misses, %d hits; want 1, 148", miss, hit)
	}
	v, ok := e.plans.get(planKey{text: "INSERT INTO bulk (id, s) VALUES (?, ?), (?, ?)"})
	if !ok {
		t.Fatal("no entry under the loads' shape")
	}
	if got := v.([]*plan)[0].stmt.String(); strings.Contains(got, "row") {
		t.Fatalf("cached statement holds a load's data: %s", got)
	}
	if n := mustExec(t, e, "SELECT COUNT(*) FROM bulk WHERE s IS NULL").Rows[0][0].Int(); n != 149 {
		t.Fatalf("%d NULL rows loaded, want 149", n)
	}
	// The slow-query log records the shape: a lifted literal prints as '?'.
	if _, err := execSQL(t, e, "INSERT INTO bulk (id, s) VALUES (0, 'dup'), (1, NULL)"); err == nil {
		t.Fatal("duplicate key accepted")
	}
	res := mustExec(t, e, "SELECT sql FROM sys_slow_queries WHERE err IS NOT NULL")
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "INSERT INTO bulk (id, s) VALUES (?, ?), (?, ?)" {
		t.Fatalf("sys_slow_queries: %v", res.Rows)
	}
}

package ivm_test

import (
	"testing"

	"strings"

	"ediflow/internal/engine"
	"ediflow/internal/ivm"
	"ediflow/internal/sqltext"
	"ediflow/internal/storage"
	"ediflow/internal/types"
)

// newEval builds a real engine as the Evaluator (the intended wiring).
func newEval(t *testing.T, ddl ...string) *engine.Engine {
	t.Helper()
	st, err := storage.Open("")
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(st)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	for _, s := range ddl {
		if _, err := e.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func parseSel(t *testing.T, q string) *sqltext.Select {
	t.Helper()
	st, err := sqltext.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	return st.(*sqltext.Select)
}

func TestClassification(t *testing.T) {
	e := newEval(t, "CREATE TABLE t (k STRING, v INT)", "CREATE TABLE s (k STRING, w INT)")
	cases := []struct {
		q     string
		class ivm.Class
		err   bool
	}{
		{"SELECT k, v FROM t WHERE v > 1", ivm.ClassDeltaQuery, false},
		{"SELECT t.k, s.w FROM t JOIN s ON t.k = s.k", ivm.ClassDeltaQuery, false},
		{"SELECT k, COUNT(*) FROM t GROUP BY k", ivm.ClassAggregate, false},
		{"SELECT COUNT(*) FROM t", ivm.ClassAggregate, false},
		{"SELECT k FROM t ORDER BY k", 0, true},
		{"SELECT k FROM t LIMIT 3", 0, true},
		{"SELECT DISTINCT k FROM t", 0, true},
		{"SELECT a.k FROM t a, t b", 0, true},                                     // self join
		{"SELECT t.k, COUNT(*) FROM t JOIN s ON t.k = s.k GROUP BY t.k", 0, true}, // agg over join
		{"SELECT k, COUNT(DISTINCT v) FROM t GROUP BY k", ivm.ClassAggregate, false},
		{"SELECT v, COUNT(*) FROM t GROUP BY k", 0, true}, // output not grouped
		{"SELECT x.k FROM (SELECT k FROM t) AS x", 0, true},
		{"SELECT a.k FROM t a LEFT JOIN s b ON a.k = b.k", 0, true},
	}
	for _, c := range cases {
		m, err := ivm.New("v", parseSel(t, c.q), e)
		if c.err {
			if err == nil {
				t.Errorf("%q should be rejected, got class %v", c.q, m.Class())
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", c.q, err)
			continue
		}
		if m.Class() != c.class {
			t.Errorf("%q: class %v, want %v", c.q, m.Class(), c.class)
		}
	}
}

func TestDependsOnAndTables(t *testing.T) {
	e := newEval(t, "CREATE TABLE t (k STRING, v INT)", "CREATE TABLE s (k STRING, w INT)")
	m, err := ivm.New("v", parseSel(t, "SELECT t.k FROM t JOIN s ON t.k = s.k"), e)
	if err != nil {
		t.Fatal(err)
	}
	if !m.DependsOn("T") || !m.DependsOn("s") || m.DependsOn("other") {
		t.Error("DependsOn")
	}
	if len(m.Tables()) != 2 {
		t.Errorf("%v", m.Tables())
	}
}

func TestDeltaQueryMaintainer(t *testing.T) {
	e := newEval(t, "CREATE TABLE t (k STRING, v INT)")
	e.Exec("INSERT INTO t VALUES ('a', 5), ('b', 50)")
	m, err := ivm.New("big", parseSel(t, "SELECT k, v FROM t WHERE v > 10"), e)
	if err != nil {
		t.Fatal(err)
	}
	init, err := m.Init()
	if err != nil || len(init) != 1 || init[0][0].Str() != "b" {
		t.Fatalf("%v %v", init, err)
	}
	// Insert delta: only matching rows come back as adds.
	adds, removes, err := m.Delta("t", []types.Row{
		{types.NewString("c"), types.NewInt(99)},
		{types.NewString("d"), types.NewInt(1)},
	}, nil)
	if err != nil || len(adds) != 1 || len(removes) != 0 {
		t.Fatalf("%v %v %v", adds, removes, err)
	}
	if adds[0][0].Str() != "c" {
		t.Fatalf("%v", adds)
	}
	// Delete delta.
	adds, removes, err = m.Delta("t", nil, []types.Row{{types.NewString("b"), types.NewInt(50)}})
	if err != nil || len(adds) != 0 || len(removes) != 1 {
		t.Fatalf("%v %v %v", adds, removes, err)
	}
	// Unrelated table: no-op.
	adds, removes, err = m.Delta("other", []types.Row{{types.NewInt(1)}}, nil)
	if err != nil || adds != nil || removes != nil {
		t.Fatalf("%v %v %v", adds, removes, err)
	}
}

func TestAggregateMaintainerCounting(t *testing.T) {
	e := newEval(t, "CREATE TABLE t (k STRING, v INT)")
	e.Exec("INSERT INTO t VALUES ('a', 1), ('a', 2), ('b', 3)")
	m, err := ivm.New("agg", parseSel(t, "SELECT k, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo FROM t GROUP BY k"), e)
	if err != nil {
		t.Fatal(err)
	}
	init, err := m.Init()
	if err != nil || len(init) != 2 {
		t.Fatalf("%v %v", init, err)
	}

	// Insert into an existing group: emits remove(old)+add(new).
	e.Exec("INSERT INTO t VALUES ('a', 0)") // keep base in sync for MIN recompute
	adds, removes, err := m.Delta("t", []types.Row{{types.NewString("a"), types.NewInt(0)}}, nil)
	if err != nil || len(adds) != 1 || len(removes) != 1 {
		t.Fatalf("%v %v %v", adds, removes, err)
	}
	if adds[0][1].Int() != 3 || adds[0][2].Int() != 3 || adds[0][3].Int() != 0 {
		t.Fatalf("group a after insert: %v", adds[0])
	}

	// Delete the MIN: forces the recompute path against the base table.
	e.Exec("DELETE FROM t WHERE k = 'a' AND v = 0")
	adds, removes, err = m.Delta("t", nil, []types.Row{{types.NewString("a"), types.NewInt(0)}})
	if err != nil || len(adds) != 1 || len(removes) != 1 {
		t.Fatalf("%v %v %v", adds, removes, err)
	}
	if adds[0][3].Int() != 1 {
		t.Fatalf("MIN after extreme delete: %v", adds[0])
	}

	// Delete the whole group: emits a bare remove.
	e.Exec("DELETE FROM t WHERE k = 'b'")
	adds, removes, err = m.Delta("t", nil, []types.Row{{types.NewString("b"), types.NewInt(3)}})
	if err != nil || len(adds) != 0 || len(removes) != 1 {
		t.Fatalf("%v %v %v", adds, removes, err)
	}

	// Deleting from an unknown group is a state error.
	if _, _, err := m.Delta("t", nil, []types.Row{{types.NewString("ghost"), types.NewInt(1)}}); err == nil {
		t.Error("unknown-group delete must error")
	}
}

func TestAggregateWhereFilter(t *testing.T) {
	e := newEval(t, "CREATE TABLE t (k STRING, v INT)")
	m, err := ivm.New("agg", parseSel(t, "SELECT k, COUNT(*) AS n FROM t WHERE v >= 10 GROUP BY k"), e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Init(); err != nil {
		t.Fatal(err)
	}
	// A filtered-out row changes nothing.
	adds, removes, err := m.Delta("t", []types.Row{{types.NewString("a"), types.NewInt(1)}}, nil)
	if err != nil || len(adds) != 0 || len(removes) != 0 {
		t.Fatalf("%v %v %v", adds, removes, err)
	}
	adds, _, err = m.Delta("t", []types.Row{{types.NewString("a"), types.NewInt(15)}}, nil)
	if err != nil || len(adds) != 1 || adds[0][1].Int() != 1 {
		t.Fatalf("%v %v", adds, err)
	}
}

func TestAggregateAvgAndNulls(t *testing.T) {
	e := newEval(t, "CREATE TABLE t (k STRING, v INT)")
	m, err := ivm.New("agg", parseSel(t, "SELECT k, AVG(v) AS mean, COUNT(v) AS cnt FROM t GROUP BY k"), e)
	if err != nil {
		t.Fatal(err)
	}
	m.Init()
	adds, _, err := m.Delta("t", []types.Row{
		{types.NewString("a"), types.NewInt(10)},
		{types.NewString("a"), types.Null},
		{types.NewString("a"), types.NewInt(20)},
	}, nil)
	if err != nil || len(adds) != 1 {
		t.Fatalf("%v %v", adds, err)
	}
	if adds[0][1].Float() != 15.0 || adds[0][2].Int() != 2 {
		t.Fatalf("AVG/COUNT with NULLs: %v", adds[0])
	}
}

// Regression: WHERE evaluation errors must abort maintenance (mirroring
// the engine's statement semantics), not silently drop the row.
func TestWhereErrorPropagates(t *testing.T) {
	e := newEval(t, "CREATE TABLE t (k STRING, v INT)")
	m, err := ivm.New("w", parseSel(t, "SELECT k, COUNT(*) AS n FROM t WHERE k GROUP BY k"), e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Init(); err != nil {
		t.Fatal(err)
	}
	// 'x' does not coerce to BOOL: the delta must fail loudly.
	_, _, err = m.Delta("t", []types.Row{{types.NewString("x"), types.NewInt(1)}}, nil)
	if err == nil {
		t.Fatal("WHERE coercion error was swallowed")
	}
	if !strings.Contains(err.Error(), "WHERE") {
		t.Fatalf("error should identify the WHERE clause: %v", err)
	}
	// NULL still just excludes the row, as in the engine.
	adds, removes, err := m.Delta("t", []types.Row{{types.Null, types.NewInt(1)}}, nil)
	if err != nil || len(adds) != 0 || len(removes) != 0 {
		t.Fatalf("%v %v %v", adds, removes, err)
	}
}

// Regression: a row inserted and deleted within one coalesced batch must
// net out instead of tripping "delete from unknown group".
func TestBatchInsertDeleteNetsOut(t *testing.T) {
	e := newEval(t, "CREATE TABLE t (k STRING, v INT)")
	m, err := ivm.New("agg", parseSel(t, "SELECT k, COUNT(*) AS n FROM t GROUP BY k"), e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Init(); err != nil {
		t.Fatal(err)
	}
	row := types.Row{types.NewString("g"), types.NewInt(1)}
	adds, removes, err := m.Delta("t", []types.Row{row}, []types.Row{row})
	if err != nil {
		t.Fatalf("insert+delete of same row in one batch: %v", err)
	}
	if len(adds) != 0 || len(removes) != 0 {
		t.Fatalf("net effect must be empty: %v %v", adds, removes)
	}
	// Same for insert→update→delete: both sides carry both versions.
	v1 := types.Row{types.NewString("h"), types.NewInt(70)}
	v2 := types.Row{types.NewString("h"), types.NewInt(71)}
	adds, removes, err = m.Delta("t", []types.Row{v1, v2}, []types.Row{v1, v2})
	if err != nil || len(adds) != 0 || len(removes) != 0 {
		t.Fatalf("insert→update→delete must net to zero: %v %v %v", adds, removes, err)
	}
}

// Regression: deletes used to fold in before inserts, so a batch whose
// delete lands in a group created by its own (non-cancelling) insert
// erred out.
func TestBatchInsertBeforeDelete(t *testing.T) {
	e := newEval(t, "CREATE TABLE t (k STRING, v INT)")
	m, err := ivm.New("agg", parseSel(t, "SELECT k, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY k"), e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Init(); err != nil {
		t.Fatal(err)
	}
	adds, removes, err := m.Delta("t",
		[]types.Row{
			{types.NewString("g"), types.NewInt(1)},
			{types.NewString("g"), types.NewInt(2)},
			{types.NewString("g"), types.NewInt(3)},
		},
		[]types.Row{{types.NewString("g"), types.NewInt(2)}})
	if err != nil {
		t.Fatalf("delete from batch-created group: %v", err)
	}
	if len(adds) != 1 || len(removes) != 0 {
		t.Fatalf("%v %v", adds, removes)
	}
	if adds[0][1].Int() != 2 || adds[0][2].Int() != 4 {
		t.Fatalf("group after net batch: %v", adds[0])
	}
}

// Regression: types.Compare errors in the MIN/MAX insert path were
// silently ignored, corrupting extremes on mixed-kind input.
func TestMinMaxCompareErrorSurfaces(t *testing.T) {
	e := newEval(t, "CREATE TABLE t (k STRING, v INT)")
	m, err := ivm.New("agg", parseSel(t, "SELECT k, MIN(v) AS lo FROM t GROUP BY k"), e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Init(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Delta("t", []types.Row{{types.NewString("a"), types.NewInt(5)}}, nil); err != nil {
		t.Fatal(err)
	}
	// A STRING where the established extreme is INT cannot be ordered.
	_, _, err = m.Delta("t", []types.Row{{types.NewString("a"), types.NewString("zz")}}, nil)
	if err == nil {
		t.Fatal("incomparable MIN argument must error, not corrupt the extreme")
	}
	// The NULL fast paths stay intact: NULL args are skipped, and NULL
	// extremes never reach Compare.
	adds, _, err := m.Delta("t", []types.Row{{types.NewString("a"), types.Null}}, nil)
	if err != nil || len(adds) != 0 {
		t.Fatalf("%v %v", adds, err)
	}
}

func TestNetDelta(t *testing.T) {
	r := func(vals ...int64) types.Row {
		out := make(types.Row, len(vals))
		for i, v := range vals {
			out[i] = types.NewInt(v)
		}
		return out
	}
	ins := []types.Row{r(1), r(2), r(2), r(3)}
	del := []types.Row{r(2), r(4)}
	_, netIns, _, netDel, cancelled := ivm.NetDelta(nil, ins, nil, del)
	if cancelled != 1 {
		t.Fatalf("cancelled: %d", cancelled)
	}
	// One of the duplicate 2s cancels; the other survives.
	if len(netIns) != 3 || len(netDel) != 1 || netDel[0][0].Int() != 4 {
		t.Fatalf("%v %v", netIns, netDel)
	}
	// Disjoint multisets come back untouched (fast path).
	_, netIns, _, netDel, cancelled = ivm.NetDelta(nil, ins[:1], nil, del[1:])
	if cancelled != 0 || len(netIns) != 1 || len(netDel) != 1 {
		t.Fatalf("%v %v %d", netIns, netDel, cancelled)
	}
	// Full annihilation.
	_, _, _, _, cancelled = ivm.NetDelta(nil, []types.Row{r(7)}, nil, []types.Row{r(7)})
	if cancelled != 1 {
		t.Fatalf("cancelled: %d", cancelled)
	}
	// Tuple ids stay aligned with the surviving rows on both sides: a
	// delete may cancel an insert that came later in the batch.
	insT, ins2, delT, del2, cancelled := ivm.NetDelta(
		[]int64{10, 11, 12}, []types.Row{r(1), r(2), r(3)},
		[]int64{20, 21, 22}, []types.Row{r(3), r(5), r(1)})
	if cancelled != 2 {
		t.Fatalf("cancelled: %d", cancelled)
	}
	if len(insT) != 1 || insT[0] != 11 || ins2[0][0].Int() != 2 {
		t.Fatalf("inserted: %v %v", insT, ins2)
	}
	if len(delT) != 1 || delT[0] != 21 || del2[0][0].Int() != 5 {
		t.Fatalf("deleted: %v %v", delT, del2)
	}
}

package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ediflow/internal/engine/vm"
	"ediflow/internal/sqltext"
	"ediflow/internal/types"
)

// answer renders what a statement answers: its columns and rows, its
// affected count, or its error.
func answer(e *Engine, sql string, args ...types.Value) string {
	res, err := e.Exec(sql, args...)
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprint(res.Columns, res.Rows, res.Affected)
}

// cachedShapes are run from the plan cache before and after every
// catalog change TestCachedPlanSeesCatalogChange makes.
var cachedShapes = []string{
	"SELECT id, v FROM t WHERE id = 1",
	"SELECT id FROM t WHERE k = 7 ORDER BY id",
	"EXPLAIN SELECT id FROM t WHERE k = 7",
	"SELECT * FROM t2",
	"SELECT k, n FROM v ORDER BY k",
	"SELECT twice(v) FROM t WHERE id = 2",
	"SELECT COUNT(*) FROM t WHERE v IN (SELECT a FROM t2)",
	"UPDATE t SET v = v WHERE id = 3",
	"DELETE FROM t2 WHERE a < 0",
}

// TestCachedPlanSeesCatalogChange: a plan resolves its FROM entries,
// access paths and functions once, so every change to what it resolved
// against must reach the plans already cached. Each cached shape's
// answer after each change must equal that of a fresh engine which went
// through the same changes without ever running the shapes.
func TestCachedPlanSeesCatalogChange(t *testing.T) {
	var history []func(*Engine)
	e := newTestDB(t)
	step := func(what string, change func(*Engine)) {
		t.Helper()
		for _, q := range cachedShapes { // cached, and run from the cache
			answer(e, q)
			answer(e, q)
		}
		history = append(history, change)
		change(e)
		fresh := newTestDB(t)
		for _, c := range history {
			c(fresh)
		}
		for _, q := range cachedShapes {
			if got, want := answer(e, q), answer(fresh, q); got != want {
				t.Errorf("after %s: %s\ncached: %s\nfresh:  %s", what, q, got, want)
			}
		}
	}
	sql := func(stmts ...string) func(*Engine) {
		return func(x *Engine) {
			for _, s := range stmts {
				mustExec(t, x, s)
			}
		}
	}
	twice := func(n int64) func(*Engine) {
		return func(x *Engine) {
			x.RegisterFunc("twice", func(a []types.Value) (types.Value, error) {
				return types.NewInt(n * a[0].Int()), nil
			})
		}
	}
	step("CREATE TABLE", sql("CREATE TABLE t (id INT PRIMARY KEY, k INT, v INT)",
		"INSERT INTO t VALUES (1, 7, 10), (2, 7, 20), (3, 8, 30), (4, 7, 40)"))
	step("CREATE TABLE", sql("CREATE TABLE t2 (a INT)", "INSERT INTO t2 VALUES (20), (30)"))
	wantLine(t, explainLines(t, e, "SELECT id FROM t WHERE k = 7"), "scan t: full-scan [compiled]")
	step("CREATE INDEX", sql("CREATE INDEX t_k ON t (k)"))
	if got := answer(e, "EXPLAIN SELECT id FROM t WHERE k = 7"); !strings.Contains(got, "scan t: index(t_k)") {
		t.Errorf("the cached EXPLAIN shape did not switch to the index: %s", got)
	}
	step("CREATE VIEW", sql("CREATE VIEW v AS SELECT k, COUNT(*) AS n FROM t GROUP BY k"))
	step("DROP VIEW", sql("DROP VIEW v"))
	step("DROP TABLE", sql("DROP TABLE t2"))
	step("CREATE TABLE with other columns", sql("CREATE TABLE t2 (b STRING, a INT)", "INSERT INTO t2 VALUES ('x', 10)"))
	step("RegisterFunc", twice(2))
	step("RegisterFunc again", twice(3))
	step("RegisterVirtual shadowing a table", func(x *Engine) {
		x.RegisterVirtual("t", []string{"id", "k", "v"}, func() []types.Row {
			return []types.Row{{types.NewInt(1), types.NewInt(7), types.NewInt(-1)}}
		})
	})

	// DDL through ApplyReplicated, and a snapshot apply, on a replica
	// whose plans are cached.
	primary := openDir(t, t.TempDir())
	primary.Store().EnableReplFeed(0)
	replica := newTestDB(t)
	shapes := []string{"SELECT * FROM r WHERE id = 1", "EXPLAIN SELECT id FROM r WHERE k = 2", "SELECT COUNT(*) FROM r"}
	var cursor uint64
	var shipped [][]byte
	ship := func(what string, stmts ...string) {
		t.Helper()
		for _, q := range shapes {
			answer(replica, q)
			answer(replica, q)
		}
		for _, s := range stmts {
			mustExec(t, primary, s)
		}
		recs, next, _, err := primary.Store().ReplFetch(cursor, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		cursor, shipped = next, append(shipped, recs...)
		if _, err := replica.ApplyReplicated(recs, ""); err != nil {
			t.Fatal(err)
		}
		fresh := newTestDB(t)
		if _, err := fresh.ApplyReplicated(shipped, ""); err != nil {
			t.Fatal(err)
		}
		for _, q := range shapes {
			if got, want := answer(replica, q), answer(fresh, q); got != want {
				t.Errorf("replicated %s: %s\ncached: %s\nfresh:  %s", what, q, got, want)
			}
		}
	}
	ship("CREATE TABLE", "CREATE TABLE r (id INT PRIMARY KEY, k INT)", "INSERT INTO r VALUES (1, 2), (2, 2), (3, 5)")
	ship("CREATE INDEX", "CREATE INDEX r_k ON r (k)")
	snap, _, err := primary.ReplSnapshot() // applied below, over what comes next
	if err != nil {
		t.Fatal(err)
	}
	ship("DROP TABLE", "DROP TABLE r")
	ship("CREATE TABLE with other columns", "CREATE TABLE r (k INT, id INT)", "INSERT INTO r VALUES (2, 1)")
	for _, q := range shapes {
		answer(replica, q)
	}
	fresh := newTestDB(t)
	for _, x := range []*Engine{replica, fresh} {
		if err := x.ApplyReplSnapshot(snap); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range shapes {
		if got, want := answer(replica, q), answer(fresh, q); got != want {
			t.Errorf("snapshot apply: %s\ncached: %s\nfresh:  %s", q, got, want)
		}
	}
}

// TestCatalogRebuildUnderLockFreeReads: a replica applying snapshots
// swaps in its tables and its catalog while lock-free SELECTs plan and
// read against them. Each is built aside and swapped in whole, so a
// reader sees the state before an apply or after it, never one being
// built: every read, counted, gives its exact answer — never an error,
// never an empty result (run under -race).
func TestCatalogRebuildUnderLockFreeReads(t *testing.T) {
	primary := newTestDB(t)
	mustExec(t, primary, "CREATE TABLE r (id INT PRIMARY KEY, k INT)")
	mustExec(t, primary, "INSERT INTO r VALUES (1, 2), (2, 2), (3, 5)")
	mustExec(t, primary, "CREATE MATERIALIZED VIEW rv AS SELECT k, COUNT(*) AS n FROM r GROUP BY k")
	snap, _, err := primary.ReplSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	replica := newTestDB(t)
	replica.SetReadOnly()
	if err := replica.ApplyReplSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	var (
		stop  = make(chan struct{})
		wg    sync.WaitGroup
		reads atomic.Int64
		mu    sync.Mutex
		bad   []string
	)
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// A new text each time: each plans afresh against the
				// tables and the catalog.
				bound := w*1_000_000 + i + 10
				for q, want := range map[string]string{
					fmt.Sprintf("SELECT id FROM r WHERE k = 2 AND id < %d ORDER BY id", bound): "[id] [[1] [2]] 0",
					fmt.Sprintf("SELECT n FROM rv WHERE k = 5 AND n < %d", bound):              "[n] [[1]] 0",
				} {
					reads.Add(1)
					if got := answer(replica, q); got != want {
						mu.Lock()
						bad = append(bad, fmt.Sprintf("%s: %s, want %s", q, got, want))
						mu.Unlock()
					}
				}
			}
		}()
	}
	// Apply until the readers have read through enough applies, at any
	// GOMAXPROCS.
	applies := 0
	for ; applies < 20 || reads.Load() < 200 && applies < 2000; applies++ {
		if err := replica.ApplyReplSnapshot(snap); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if n := reads.Load(); n == 0 {
		t.Fatalf("no read ran during %d applies", applies)
	}
	if len(bad) > 0 {
		t.Errorf("%d of %d reads during %d applies went wrong; first: %s", len(bad), reads.Load(), applies, bad[0])
	}
	for q, want := range map[string]string{
		"SELECT id FROM r WHERE k = 2 ORDER BY id": "[id] [[1] [2]] 0",
		"SELECT n FROM rv WHERE k = 5":             "[n] [[1]] 0",
	} {
		if got := answer(replica, q); got != want {
			t.Errorf("%s: %s, want %s", q, got, want)
		}
	}
}

// TestFailedCatalogChangeLeavesNoPlan: a catalog change that fails
// part-way must still purge, after its last change. A failed CREATE VIEW
// adds its backing table and drops it again; a shape planned in between
// (by a function the view's query calls) must not stay cached against
// the dropped table. A replicated batch that fails after its DDL record
// has changed the catalog must reach the shapes cached before it.
func TestFailedCatalogChangeLeavesNoPlan(t *testing.T) {
	const probe = "SELECT COUNT(*) FROM __view_bad"
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY)")
	mustExec(t, e, "INSERT INTO t VALUES (1), (2)")
	var during string
	e.RegisterFunc("peek", func(a []types.Value) (types.Value, error) {
		during = answer(e, probe) // planned and cached mid-CREATE
		during = answer(e, probe)
		return types.Null, fmt.Errorf("peek refuses %d", a[0].Int())
	})
	if _, err := e.Exec("CREATE VIEW bad AS SELECT id, peek(id) AS p FROM t"); err == nil {
		t.Fatal("CREATE VIEW over a failing function succeeded")
	}
	if during == answer(newTestDB(t), probe) {
		t.Fatalf("the probe did not see the transient backing table: %s", during)
	}
	if got, want := answer(e, probe), answer(newTestDB(t), probe); got != want {
		t.Errorf("after a failed CREATE VIEW: %s\ncached: %s\nfresh:  %s", probe, got, want)
	}

	primary := openDir(t, t.TempDir())
	primary.Store().EnableReplFeed(0)
	mustExec(t, primary, "CREATE TABLE r (id INT PRIMARY KEY)")
	recs, _, _, err := primary.Store().ReplFetch(0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	batch := append(recs, []byte("not a record"))
	replica, fresh := newTestDB(t), newTestDB(t)
	answer(replica, "SELECT * FROM r")
	answer(replica, "SELECT * FROM r")
	for _, x := range []*Engine{replica, fresh} {
		if _, err := x.ApplyReplicated(batch, ""); err == nil {
			t.Fatal("a batch with a garbage record applied")
		}
	}
	if got, want := answer(replica, "SELECT * FROM r"), answer(fresh, "SELECT * FROM r"); got != want {
		t.Errorf("after a failed replicated batch: SELECT * FROM r\ncached: %s\nfresh:  %s", got, want)
	}
}

// TestCachedShapeAllocCeiling pins what one execution of a cached point
// statement allocates: its plan is resolved, bound and compiled once, so
// an execution pays only for its context, its machines' bindings, the
// rows it reads and what it returns. The shapes are BenchmarkPlanCache's
// point SELECT and the mixed read/write workload's writes.
func TestCachedShapeAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceiling is meaningless under the race detector")
	}
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE bench (id INT PRIMARY KEY, grp STRING, v INT)")
	for i := 0; i < 1000; i++ {
		mustExec(t, e, "INSERT INTO bench (id, grp, v) VALUES (?, ?, ?)", types.NewInt(int64(i)), types.NewString(fmt.Sprintf("g%d", i%11)), types.NewInt(int64(7*i)))
	}
	mustExec(t, e, "CREATE INDEX idx_bench_grp ON bench (grp)")
	mustExec(t, e, "CREATE TABLE items (id INT PRIMARY KEY, grp INT, v INT, pad STRING)")
	mustExec(t, e, "CREATE INDEX items_grp ON items (grp)")
	for i := 0; i < 1000; i++ {
		mustExec(t, e, "INSERT INTO items (id, grp, v, pad) VALUES (?, ?, ?, 'pad')", types.NewInt(int64(i)), types.NewInt(int64(i%10)), types.NewInt(int64(i)))
	}
	const runs = 200
	next := 5000
	for _, c := range []struct {
		sql     string
		ceiling float64
		args    func(i int) []types.Value
	}{
		{"SELECT v FROM bench WHERE id = ?", 15, func(i int) []types.Value { return []types.Value{types.NewInt(int64(i % 1000))} }},
		{"UPDATE items SET v = ? WHERE id = ?", 26, func(i int) []types.Value { return []types.Value{types.NewInt(int64(i)), types.NewInt(int64(i % 1000))} }},
		{"INSERT INTO items (id, grp, v, pad) VALUES (?, ?, ?, ?)", 15, func(i int) []types.Value {
			return []types.Value{types.NewInt(int64(next + i)), types.NewInt(3), types.NewInt(4), types.NewString("pad")}
		}},
		{"DELETE FROM items WHERE id = ?", 20, func(i int) []types.Value { return []types.Value{types.NewInt(int64(next + i))} }},
	} {
		bound := make([][]types.Value, runs+1) // built ahead: the caller's cost, not the engine's
		for i := range bound {
			bound[i] = c.args(i)
		}
		mustExec(t, e, c.sql, c.args(runs+1)...) // planned and cached
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			if _, err := e.Exec(c.sql, bound[i]...); err != nil {
				t.Fatal(err)
			}
			i++
		})
		t.Logf("%s: %.0f allocations", c.sql, allocs)
		if allocs > c.ceiling {
			t.Errorf("%s allocates %.0f objects per execution, ceiling %.0f", c.sql, allocs, c.ceiling)
		}
	}
}

// TestCachedPlanConcurrentSessions runs the same cached shapes from
// several sessions at once — a point SELECT, a point UPDATE, a
// morsel-parallel scan and a GROUP BY — while another session runs DDL
// and registers functions, each purging the plan cache under them. Every
// answer must be its own: a plan is shared, an execution's state is not.
func TestCachedPlanConcurrentSessions(t *testing.T) {
	defer func(old int) { morselSlots = old }(morselSlots)
	morselSlots = 2 * vm.BatchSize
	e := newTestDB(t)
	e.parallelism.Store(4)
	mustExec(t, e, "CREATE TABLE big (id INT PRIMARY KEY, g INT, v INT)")
	const n = 8 * vm.BatchSize
	var sb strings.Builder
	for i := 0; i < n; i++ {
		if sb.Len() == 0 {
			sb.WriteString("INSERT INTO big (id, g, v) VALUES ")
		} else {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d)", i, i%8, i)
		if (i+1)%500 == 0 || i == n-1 {
			mustExec(t, e, sb.String())
			sb.Reset()
		}
	}
	e.RegisterFunc("inc", func(a []types.Value) (types.Value, error) { return types.NewInt(a[0].Int() + 1), nil })
	var wg sync.WaitGroup
	stop, ddlDone := make(chan struct{}), make(chan struct{})
	go func() { // the DDL session
		defer close(ddlDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("scratch%d", i%3)
			_, _ = e.Exec("DROP TABLE IF EXISTS " + name)
			if _, err := e.Exec("CREATE TABLE " + name + " (a INT)"); err != nil {
				t.Error(err)
				return
			}
			e.RegisterFunc("inc", func(a []types.Value) (types.Value, error) { return types.NewInt(a[0].Int() + 1), nil })
		}
	}()
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for round := 0; round < 12; round++ {
				id := int64(s*1000 + round)
				res, err := e.Exec("SELECT id, inc(v) FROM big WHERE id = ?", types.NewInt(id))
				if err != nil || len(res.Rows) != 1 || res.Rows[0][1].Int() != id+1 {
					t.Errorf("session %d: point SELECT %d: %v %v", s, id, res, err)
					return
				}
				if res, err = e.Exec("UPDATE big SET v = ? WHERE id = ?", types.NewInt(id), types.NewInt(id)); err != nil || res.Affected != 1 {
					t.Errorf("session %d: point UPDATE %d: %v %v", s, id, res, err)
					return
				}
				cut := int64(round%8 + 1)
				if res, err = e.Exec("SELECT COUNT(*) FROM big WHERE g < ? AND inc(v) > 0", types.NewInt(cut)); err != nil || res.Rows[0][0].Int() != cut*n/8 {
					t.Errorf("session %d: parallel scan below %d: %v %v", s, cut, res, err)
					return
				}
				if res, err = e.Exec("SELECT g, COUNT(*) FROM big GROUP BY g ORDER BY g"); err != nil || len(res.Rows) != 8 || res.Rows[3][1].Int() != n/8 {
					t.Errorf("session %d: GROUP BY: %v %v", s, res, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(stop)
	<-ddlDone
}

// TestQueryNamesNonSelectByKeyword: Query names a statement it refuses by
// its first keyword, read from the statement's kind.
func TestQueryNamesNonSelectByKeyword(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE q (a INT)")
	for sql, kw := range map[string]string{
		"INSERT INTO q VALUES (1)":       "INSERT",
		"CREATE INDEX qa ON q (a)":       "CREATE",
		"EXPLAIN SELECT a FROM q":        "EXPLAIN",
		"DROP TABLE IF EXISTS nothing":   "DROP",
		"UPDATE q SET a = 2 WHERE a = 1": "UPDATE",
	} {
		_, err := e.Query(sql)
		if want := "engine: Query requires a SELECT, got " + kw; err == nil || err.Error() != want {
			t.Errorf("Query(%q): %v, want %q", sql, err, want)
		}
	}
	if st, err := sqltext.Parse("BEGIN"); err != nil || st.Kind().Keyword() != "BEGIN" {
		t.Errorf("BEGIN: %v %v", st, err)
	}
}

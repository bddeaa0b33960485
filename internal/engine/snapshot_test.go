package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ediflow/internal/storage"
	"ediflow/internal/types"
)

// TestSnapshotStatementAtomicity: a multi-row UPDATE is published as one
// unit, so a concurrent snapshot reader must never observe a
// half-applied statement. Each UPDATE adds exactly 1 to every row, so
// every consistent snapshot has sum(bal) divisible by the row count.
// Run with -race: the readers iterate version chains with no engine
// locks held while the writer commits.
func TestSnapshotStatementAtomicity(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)")
	const n = 16
	for i := 0; i < n; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO acct (id, bal) VALUES (%d, 0)", i))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.Exec("UPDATE acct SET bal = bal + 1"); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var reads int
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		res, err := e.Query("SELECT SUM(bal) FROM acct")
		if err != nil {
			t.Fatal(err)
		}
		sum := res.Rows[0][0].Int()
		if sum%n != 0 {
			t.Fatalf("torn statement visible: sum=%d (not a multiple of %d)", sum, n)
		}
		reads++
	}
	close(stop)
	wg.Wait()
	if reads == 0 {
		t.Fatal("no reads completed")
	}
}

// TestSnapshotTransactionAtomicity: BEGIN..COMMIT publishes at COMMIT
// only, so no published snapshot seq ever lands mid-transaction — a
// snapshot reader sees the whole transfer or none of it, never half.
// (Plain SELECTs issued while a transaction is open belong to the
// transaction's session by the engine contract — the server's exclusive
// baton enforces that — and read their own uncommitted writes; snapshot
// readers here pin a published seq with AS OF.)
func TestSnapshotTransactionAtomicity(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)")
	mustExec(t, e, "INSERT INTO acct (id, bal) VALUES (1, 500)")
	mustExec(t, e, "INSERT INTO acct (id, bal) VALUES (2, 500)")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Alternate direction so balances stay bounded.
			a, b := 1, 2
			if i%2 == 1 {
				a, b = 2, 1
			}
			for _, sql := range []string{
				"BEGIN",
				fmt.Sprintf("UPDATE acct SET bal = bal - 10 WHERE id = %d", a),
				fmt.Sprintf("UPDATE acct SET bal = bal + 10 WHERE id = %d", b),
				"COMMIT",
			} {
				if _, err := e.Exec(sql); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		seq := e.Store().SnapshotSeq()
		res, err := e.Query(fmt.Sprintf("SELECT SUM(bal) FROM acct AS OF %d", seq))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].Int(); got != 1000 {
			t.Fatalf("published seq %d lands mid-transaction: sum=%d", seq, got)
		}
	}
	close(stop)
	wg.Wait()
}

// TestAsOfReadsPreDeleteState: R-delta deferred deletion — an AS OF read
// pinned before a DELETE still sees the deleted rows (§VI-A).
func TestAsOfReadsPreDeleteState(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	seq := e.Store().SnapshotSeq()

	mustExec(t, e, "DELETE FROM users WHERE city = 'paris'")
	res := mustExec(t, e, "SELECT COUNT(*) FROM users")
	if got := res.Rows[0][0].Int(); got != 2 {
		t.Fatalf("latest count: %d", got)
	}

	res = mustExec(t, e, "SELECT COUNT(*) FROM users AS OF ?", types.NewInt(seq))
	if got := res.Rows[0][0].Int(); got != 5 {
		t.Fatalf("AS OF count: %d (want 5)", got)
	}
	// Index point lookups honor the pinned seq too.
	res = mustExec(t, e, "SELECT name FROM users WHERE id = 1 AS OF "+fmt.Sprint(seq))
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "ana" {
		t.Fatalf("AS OF point read: %+v", res.Rows)
	}
	res = mustExec(t, e, "SELECT name FROM users WHERE id = 1")
	if len(res.Rows) != 0 {
		t.Fatalf("latest point read resurrected a deleted row: %+v", res.Rows)
	}
}

// TestAsOfBelowVacuumFloorRefused: once Checkpoint's vacuum pass has
// reclaimed versions, reads below the floor fail with ErrSnapshotTooOld
// instead of silently returning wrong data.
func TestAsOfBelowVacuumFloorRefused(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	mustExec(t, e, "DELETE FROM users WHERE id = 1")
	mustExec(t, e, "UPDATE users SET age = 99 WHERE id = 2")
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	floor := e.Store().VacuumFloor()
	if floor <= 0 {
		t.Fatalf("vacuum floor not raised: %d", floor)
	}
	_, err := e.Query("SELECT * FROM users AS OF ?", types.NewInt(floor-1))
	if !errors.Is(err, storage.ErrSnapshotTooOld) {
		t.Fatalf("want ErrSnapshotTooOld, got %v", err)
	}
	// At the floor it still works.
	if _, err := e.Query("SELECT * FROM users AS OF ?", types.NewInt(floor)); err != nil {
		t.Fatalf("AS OF floor: %v", err)
	}
}

// TestAsOfOnlyTopLevel: AS OF inside a subquery is rejected — one
// statement reads at one seq.
func TestAsOfOnlyTopLevel(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	_, err := e.Query("SELECT * FROM (SELECT id FROM users AS OF 1) sub")
	if err == nil || !strings.Contains(err.Error(), "top-level") {
		t.Fatalf("subquery AS OF: %v", err)
	}
}

// TestSelectResultsNotAliased is the regression for the row-aliasing
// bug: returned result rows used to alias live table storage, so a
// later UPDATE/DELETE (swap-compaction) mutated rows a session already
// held. Run with -race to catch the write-after-return.
func TestSelectResultsNotAliased(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	res := mustExec(t, e, "SELECT id, name, city FROM users ORDER BY id")

	var wg sync.WaitGroup
	var mismatch atomic.Bool
	wg.Add(1)
	go func() { // reader re-checks the returned rows while writers churn
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if res.Rows[0][1].Str() != "ana" || res.Rows[4][2].Str() != "paris" {
				mismatch.Store(true)
				return
			}
		}
	}()
	mustExec(t, e, "UPDATE users SET name = 'zed', city = 'oslo'")
	mustExec(t, e, "DELETE FROM users WHERE id < 4")
	wg.Wait()
	if mismatch.Load() {
		t.Fatal("result rows mutated after SELECT returned")
	}
	if res.Rows[0][1].Str() != "ana" || len(res.Rows) != 5 {
		t.Fatalf("result snapshot changed: %+v", res.Rows)
	}

	// Nor do they alias pooled VM storage: the same statement run again
	// reuses the machines (registers, broadcasts, scratch batch) the first
	// run released, over different data, and the first result must not
	// notice.
	const q = "SELECT id, name || '!', id * ? FROM users WHERE id > ? ORDER BY id"
	first := mustExec(t, e, q, types.NewInt(10), types.NewInt(3))
	want := make([]string, len(first.Rows))
	for i, r := range first.Rows {
		want[i] = types.RowKey(r)
	}
	mustExec(t, e, "UPDATE users SET name = 'yan'")
	second := mustExec(t, e, q, types.NewInt(-1), types.NewInt(0))
	if len(first.Rows) == 0 || len(second.Rows) == 0 || second.Rows[0][1].Str() != "yan!" {
		t.Fatalf("rerun: first %v, second %v", first.Rows, second.Rows)
	}
	for i, r := range first.Rows {
		if types.RowKey(r) != want[i] {
			t.Fatalf("first result row %d changed after the statement ran again: %v", i, r)
		}
	}
}

// TestSelectResultDetachedFromStorage: rows handed out by a top-level
// SELECT are the caller's. Overwriting a slot or scribbling on a BYTES
// payload must never reach the stored version, whichever tail built the
// result — scan-side projection, index fetch + projection, star,
// aggregate, subquery source.
func TestSelectResultDetachedFromStorage(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE blobs (id INT PRIMARY KEY, payload BYTES, n INT)")
	for i := 1; i <= 3; i++ {
		mustExec(t, e, "INSERT INTO blobs (id, payload, n) VALUES (?, ?, ?)",
			types.NewInt(int64(i)), types.NewBytes([]byte("payload")), types.NewInt(int64(i)))
	}
	for _, sql := range []string{
		"SELECT id, payload FROM blobs WHERE n > 0",
		"SELECT id, payload FROM blobs WHERE id = 2",
		"SELECT * FROM blobs",
		"SELECT id, payload FROM blobs ORDER BY id DESC",
		"SELECT MIN(id), MIN(payload) FROM blobs",
		"SELECT id, payload FROM (SELECT id, payload FROM blobs WHERE n > 0) sub",
	} {
		res := mustExec(t, e, sql)
		for _, r := range res.Rows {
			copy(r[1].Bytes(), "XXXXXXX")
			r[0] = types.NewInt(-1)
		}
		check := mustExec(t, e, "SELECT id, payload FROM blobs WHERE n > 0")
		for i, r := range check.Rows {
			if r[0].Int() != int64(i+1) || string(r[1].Bytes()) != "payload" {
				t.Fatalf("%s: mutating its result reached storage: row %d = %v", sql, i, r)
			}
		}
	}
}

// TestSlowLogRowsScannedExact is the regression for the rows_scanned
// over-count: the slow log used to record the delta of the global
// counter, which concurrent SELECTs inflated. The per-statement tally
// must be exact per table no matter how many scans overlap.
func TestSlowLogRowsScannedExact(t *testing.T) {
	e := newTestDB(t)
	e.SlowLog().SetThreshold(0) // record every statement
	mustExec(t, e, "CREATE TABLE big (id INT PRIMARY KEY, x INT)")
	mustExec(t, e, "CREATE TABLE small (id INT PRIMARY KEY, x INT)")
	for i := 0; i < 100; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO big (id, x) VALUES (%d, %d)", i, i))
	}
	for i := 0; i < 7; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO small (id, x) VALUES (%d, %d)", i, i))
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			sql := "SELECT COUNT(*) FROM big WHERE x >= 0"
			if w%2 == 1 {
				sql = "SELECT COUNT(*) FROM small WHERE x >= 0"
			}
			for i := 0; i < 25; i++ {
				if _, err := e.Query(sql); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	checked := 0
	for _, ent := range e.SlowLog().Snapshot() {
		switch {
		case strings.Contains(ent.SQL, "FROM big"):
			if ent.RowsScanned != 100 {
				t.Fatalf("big scan recorded %d rows_scanned (want exactly 100): %q", ent.RowsScanned, ent.SQL)
			}
			checked++
		case strings.Contains(ent.SQL, "FROM small"):
			if ent.RowsScanned != 7 {
				t.Fatalf("small scan recorded %d rows_scanned (want exactly 7): %q", ent.RowsScanned, ent.SQL)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no scan entries recorded")
	}
}

// TestQueryErrorNamesKeyword is the regression for the %T leak: a
// non-SELECT through Query must be reported by its SQL keyword, not the
// internal AST type name; and multi-statement scripts are rejected
// outright rather than silently running the first statement.
func TestQueryErrorNamesKeyword(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)

	_, err := e.Query("DELETE FROM users")
	if err == nil {
		t.Fatal("Query accepted DELETE")
	}
	if !strings.Contains(err.Error(), "DELETE") || strings.Contains(err.Error(), "sqltext") {
		t.Fatalf("error should name the keyword, not the internal type: %v", err)
	}
	res := mustExec(t, e, "SELECT COUNT(*) FROM users")
	if res.Rows[0][0].Int() != 5 {
		t.Fatal("rejected DELETE must not execute")
	}

	if _, err := e.Query("SELECT 1; DELETE FROM users"); err == nil {
		t.Fatal("Query accepted a multi-statement script")
	}
	res = mustExec(t, e, "SELECT COUNT(*) FROM users")
	if res.Rows[0][0].Int() != 5 {
		t.Fatal("trailing statement of a rejected script executed")
	}
}

// TestSnapshotMetricsExposed: the mvcc gauges ride sys_metrics.
func TestSnapshotMetricsExposed(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	mustExec(t, e, "UPDATE users SET age = 1 WHERE id = 1")
	res := mustExec(t, e, "SELECT name FROM sys_metrics WHERE name IN ('mvcc.versions', 'mvcc.snapshot_seq', 'mvcc.snapshot_age', 'mvcc.vacuumed')")
	if len(res.Rows) != 4 {
		t.Fatalf("mvcc metrics rows: %+v", res.Rows)
	}
}

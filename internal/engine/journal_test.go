package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ediflow/internal/storage"
	"ediflow/internal/types"
)

// newJournalDB opens an engine with a data table t and a journal table
// jr holding (seq, ts, tbl, op, first tid) per change event of every
// table but jr itself.
func newJournalDB(t *testing.T) *Engine {
	t.Helper()
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, e, "CREATE TABLE jr (seq INT PRIMARY KEY, ts INT, tbl STRING, op STRING, tid INT)")
	if err := e.Journal("jr", journalRowOf); err != nil {
		t.Fatal(err)
	}
	return e
}

func journalRowOf(ev *ChangeEvent, ts int64) (types.Row, bool) {
	if strings.EqualFold(ev.Table, "jr") {
		return nil, false
	}
	return types.Row{types.NewInt(ev.Seq), types.NewInt(ts), types.NewString(ev.Table),
		types.NewString(string(ev.Op)), types.NewInt(ev.TIDs[0])}, true
}

func countOf(t *testing.T, e *Engine, sql string, args ...types.Value) int64 {
	t.Helper()
	return mustExec(t, e, sql, args...).Rows[0][0].Int()
}

// TestJournalRowSharesItsStatementsSnapshot: a statement's journal row is
// published with its data change, so every snapshot a reader can take
// holds both or neither — at each published seq, AS OF, and under a
// reader racing the writer.
func TestJournalRowSharesItsStatementsSnapshot(t *testing.T) {
	e := newJournalDB(t)
	const both = "SELECT (SELECT COUNT(*) FROM t), (SELECT COUNT(*) FROM jr WHERE tbl = 't')"
	stop := make(chan struct{})
	var torn []string
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
			res, err := e.Query(both)
			if err != nil {
				torn = append(torn, err.Error())
				return
			}
			if r := res.Rows[0]; r[0].Int() != r[1].Int() {
				torn = append(torn, fmt.Sprintf("%d rows, %d journal rows", r[0].Int(), r[1].Int()))
			}
		}
	}()
	var seqs []int64
	for i := 0; i < 200; i++ {
		mustExec(t, e, "INSERT INTO t VALUES (?, 0)", types.NewInt(int64(i)))
		seqs = append(seqs, e.Store().SnapshotSeq())
	}
	close(stop)
	wg.Wait()
	if len(torn) > 0 {
		t.Fatalf("a reader saw a change without its journal row (or the reverse) %d times, first: %s", len(torn), torn[0])
	}
	for i, seq := range seqs {
		rows := countOf(t, e, "SELECT COUNT(*) FROM t AS OF ?", types.NewInt(seq))
		journal := countOf(t, e, "SELECT COUNT(*) FROM jr AS OF ?", types.NewInt(seq))
		if rows != int64(i+1) || journal != int64(i+1) {
			t.Fatalf("AS OF %d: %d rows and %d journal rows, want %d of each", seq, rows, journal, i+1)
		}
	}
}

// TestJournalTransactionAtCommit: a transaction journals all its events
// as one set at COMMIT, none before, and nothing on ROLLBACK.
func TestJournalTransactionAtCommit(t *testing.T) {
	e := newJournalDB(t)
	mustExec(t, e, "BEGIN")
	mustExec(t, e, "INSERT INTO t VALUES (1, 0), (2, 0)")
	mustExec(t, e, "UPDATE t SET v = 5 WHERE id = 1")
	mustExec(t, e, "DELETE FROM t WHERE id = 2")
	if n := countOf(t, e, "SELECT COUNT(*) FROM jr"); n != 0 {
		t.Fatalf("%d journal rows before COMMIT", n)
	}
	mustExec(t, e, "COMMIT")
	res := mustExec(t, e, "SELECT op, _tid FROM jr ORDER BY seq")
	if got := fmt.Sprint(res.Rows); !strings.HasPrefix(got, "[[INSERT") || len(res.Rows) != 3 ||
		res.Rows[1][0].Str() != "UPDATE" || res.Rows[2][0].Str() != "DELETE" {
		t.Fatalf("journal after COMMIT: %v", got)
	}
	// One set: the three rows were written together, tids adjacent.
	if d := res.Rows[2][1].Int() - res.Rows[0][1].Int(); d != 2 {
		t.Fatalf("journal rows not one set: tids %v", res.Rows)
	}
	mustExec(t, e, "BEGIN")
	mustExec(t, e, "INSERT INTO t VALUES (3, 0)")
	mustExec(t, e, "ROLLBACK")
	if n := countOf(t, e, "SELECT COUNT(*) FROM jr"); n != 3 {
		t.Fatalf("ROLLBACK journaled: %d rows, want 3", n)
	}
}

// TestJournalFailureUndoesTheWrite: a journal row that cannot be written
// (its seq is taken) fails the statement, or the COMMIT, and undoes it.
func TestJournalFailureUndoesTheWrite(t *testing.T) {
	e := newJournalDB(t)
	mustExec(t, e, "CREATE MATERIALIZED VIEW vt AS SELECT COUNT(*) AS n FROM t")
	mustExec(t, e, "INSERT INTO t VALUES (1, 0)")
	// jr's own writes are not journaled, so the seqs after the one this
	// INSERT draws can be taken.
	e.mu.Lock()
	next := e.seq + 2
	e.mu.Unlock()
	taken := make([]string, 10)
	for i := range taken {
		taken[i] = fmt.Sprintf("(%d, 0, 'x', 'INSERT', 0)", next+int64(i))
	}
	mustExec(t, e, "INSERT INTO jr VALUES "+strings.Join(taken, ", "))
	if _, err := e.Exec("INSERT INTO t VALUES (2, 0)"); err == nil {
		t.Fatal("statement with a colliding journal row succeeded")
	}
	mustExec(t, e, "BEGIN")
	mustExec(t, e, "UPDATE t SET v = 9")
	if _, err := e.Exec("COMMIT"); err == nil || e.InTxn() {
		t.Fatalf("COMMIT with a colliding journal row: err %v, in transaction %v", err, e.InTxn())
	}
	if got := fmt.Sprint(mustExec(t, e, "SELECT id, v FROM t").Rows); got != "[[1 0]]" {
		t.Fatalf("t after failed writes: %s", got)
	}
	if n := countOf(t, e, "SELECT n FROM vt"); n != 1 {
		t.Fatalf("view after failed writes: %d, want 1", n)
	}
	mustExec(t, e, "DELETE FROM jr WHERE tbl = 'x'")
	mustExec(t, e, "INSERT INTO t VALUES (2, 0)")
	if n := countOf(t, e, "SELECT COUNT(*) FROM jr WHERE tbl = 't'"); n != 2 {
		t.Fatalf("journal rows of t: %d, want 2", n)
	}
}

// TestJournalSeqOrderIsCommitOrder: under concurrent writers the journal
// rows go to the store in seq order, and each names the data row its
// statement wrote, so seq order is the order the changes committed in.
func TestJournalSeqOrderIsCommitOrder(t *testing.T) {
	e := newJournalDB(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := e.Exec("INSERT INTO t VALUES (?, ?)", types.NewInt(int64(w*1000+i)), types.NewInt(int64(w))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	res := mustExec(t, e, "SELECT jr.seq, jr._tid, t._tid FROM jr JOIN t ON t._tid = jr.tid ORDER BY jr.seq")
	if len(res.Rows) != 400 {
		t.Fatalf("%d journal rows matched a data row, want 400", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		p, r := res.Rows[i-1], res.Rows[i]
		if r[1].Int() <= p[1].Int() || r[2].Int() <= p[2].Int() {
			t.Fatalf("seq %d after seq %d: journal tids %d→%d, data tids %d→%d",
				r[0].Int(), p[0].Int(), p[1].Int(), r[1].Int(), p[2].Int(), r[2].Int())
		}
	}
}

// TestJournalInstallRaisesSeq: installing the journal raises the seq
// counter past every seq its table holds, and a nil row uninstalls it.
func TestJournalInstallRaisesSeq(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, e, "CREATE TABLE jr (seq INT PRIMARY KEY, ts INT, tbl STRING, op STRING, tid INT)")
	mustExec(t, e, "INSERT INTO jr VALUES (500, 0, 't', 'INSERT', 0)")
	if err := e.Journal("nope", journalRowOf); err == nil {
		t.Fatal("journal into a missing table installed")
	}
	if err := e.Journal("jr", journalRowOf); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "INSERT INTO t VALUES (1, 0)")
	if n := countOf(t, e, "SELECT MAX(seq) FROM jr"); n != 501 {
		t.Fatalf("first journaled seq %d, want 501", n)
	}
	if err := e.Journal("jr", nil); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "INSERT INTO t VALUES (2, 0)")
	if n := countOf(t, e, "SELECT COUNT(*) FROM jr"); n != 2 {
		t.Fatalf("uninstalled journal still writes: %d rows", n)
	}
}

// openUnclosed opens an in-memory engine the test does not close on
// cleanup: a test of the write lock must not hang in its cleanup when the
// lock is held.
func openUnclosed(t *testing.T) *Engine {
	t.Helper()
	st, err := storage.Open("")
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(st)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// recovered runs sql and returns what it panicked with, if anything.
func recovered(e *Engine, sql string) (v any) {
	defer func() { v = recover() }()
	e.Exec(sql)
	return nil
}

// withinFiveSeconds runs steps in order on another goroutine and fails
// the test if they do not finish in time: a write lock held after a panic
// blocks the next statement, and the test must fail rather than hang.
func withinFiveSeconds(t *testing.T, steps ...func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		for _, step := range steps {
			if err := step(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the write lock is still held after a panic under it")
	}
}

// wantPanic is a step: sql must panic with want.
func wantPanic(e *Engine, sql string, want any) func() error {
	return func() error {
		if v := recovered(e, sql); v != want {
			return fmt.Errorf("%s: recovered %v, want the panic %v", sql, v, want)
		}
		return nil
	}
}

// wantRows is a step: the SELECT sql must print as want.
func wantRows(e *Engine, sql, want string) func() error {
	return func() error {
		res, err := e.Query(sql)
		if err != nil {
			return err
		}
		if got := fmt.Sprint(res.Rows); got != want {
			return fmt.Errorf("%s = %s, want %s", sql, got, want)
		}
		return nil
	}
}

// exec is a step: sql must succeed.
func exec(e *Engine, sql string) func() error {
	return func() error {
		_, err := e.Exec(sql)
		return err
	}
}

// TestPanicInStatementReleasesWriteLock: a UDF that panics in an UPDATE's
// SET reaches the caller; the write lock is released, so the next
// statement and Close return.
func TestPanicInStatementReleasesWriteLock(t *testing.T) {
	e := openUnclosed(t)
	for _, sql := range []string{"CREATE TABLE t (id INT PRIMARY KEY, v INT)", "INSERT INTO t VALUES (1, 1), (2, 2)"} {
		if _, err := e.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	e.RegisterFunc("boom", func([]types.Value) (types.Value, error) { panic("boom") })
	withinFiveSeconds(t,
		wantPanic(e, "UPDATE t SET v = boom(v)", "boom"),
		exec(e, "UPDATE t SET v = v + 1"),
		wantRows(e, "SELECT SUM(v) FROM t", "[[5]]"),
		e.Close)
}

// TestJournalPanicUndoesTheWrite: a journal hook that panics after the
// statement's rows and views are written undoes the statement, views
// included; one that panics at COMMIT leaves the transaction open, as it
// was. Either releases the lock.
// Only the last UPDATE is journaled: its row and its view's.
func TestJournalPanicUndoesTheWrite(t *testing.T) {
	e := openUnclosed(t)
	for _, sql := range []string{
		"CREATE TABLE t (id INT PRIMARY KEY, v INT)",
		"CREATE TABLE jr (seq INT PRIMARY KEY, ts INT, tbl STRING, op STRING, tid INT)",
		"CREATE MATERIALIZED VIEW vs AS SELECT SUM(v) AS s FROM t",
		"INSERT INTO t VALUES (1, 1), (2, 2)",
	} {
		if _, err := e.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	var armed atomic.Bool
	if err := e.Journal("jr", func(ev *ChangeEvent, ts int64) (types.Row, bool) {
		if armed.Load() {
			panic("journal boom")
		}
		return journalRowOf(ev, ts)
	}); err != nil {
		t.Fatal(err)
	}
	arm := func(on bool) func() error { return func() error { armed.Store(on); return nil } }
	withinFiveSeconds(t,
		arm(true),
		wantPanic(e, "UPDATE t SET v = v + 10", "journal boom"),
		arm(false),
		exec(e, "BEGIN"),
		exec(e, "UPDATE t SET v = v + 100"),
		arm(true),
		wantPanic(e, "COMMIT", "journal boom"),
		arm(false),
		exec(e, "ROLLBACK"),
		exec(e, "UPDATE t SET v = v + 1"),
		wantRows(e, "SELECT (SELECT SUM(v) FROM t), (SELECT s FROM vs), (SELECT COUNT(*) FROM jr)", "[[5 5 2]]"),
		e.Close)
}

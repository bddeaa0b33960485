package notify

import (
	"errors"
	"fmt"
	"testing"

	"ediflow/internal/database"
	"ediflow/internal/fault"
	"ediflow/internal/storage"
	"ediflow/internal/types"
)

// TestJournalOneCommitPerWrite: with the notifier attached to a durable
// store, one UPDATE is one store commit and one fsync — its notification
// row rides the statement's own commit instead of a second one.
func TestJournalOneCommitPerWrite(t *testing.T) {
	db, err := database.OpenWith(t.TempDir(), storage.Options{Sync: storage.SyncCommit})
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNotifier(db)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		n.Close()
		db.Close()
	})
	for _, sql := range []string{
		"CREATE TABLE items (id INT PRIMARY KEY, v INT)",
		"INSERT INTO items VALUES (1, 0), (2, 0)",
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	commits, fsyncs := db.Metrics().Counter("wal.commits"), db.Metrics().Counter("wal.fsyncs")
	for i := 1; i <= 5; i++ {
		c0, f0 := commits.Value(), fsyncs.Value()
		if _, err := db.Exec("UPDATE items SET v = ? WHERE id = 1", types.NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
		if dc, df := commits.Value()-c0, fsyncs.Value()-f0; dc != 1 || df != 1 {
			t.Fatalf("UPDATE %d: %d commits and %d fsyncs, want 1 and 1", i, dc, df)
		}
	}
	if got, err := db.QueryInt("SELECT COUNT(*) FROM " + database.TableNotification + " WHERE tbl = 'items' AND op = 'UPDATE'"); err != nil || got != 5 {
		t.Fatalf("notification rows for the UPDATEs: %d (%v), want 5", got, err)
	}
}

// TestJournalVisibleWithItsChange: at every snapshot a reader can take,
// a write and its notification row are both visible or both not — read
// by a reader racing the writer, and again AS OF every published seq the
// reader saw.
func TestJournalVisibleWithItsChange(t *testing.T) {
	db, _ := setup(t)
	both := "SELECT (SELECT COUNT(*) FROM authors), (SELECT COUNT(*) FROM " + database.TableNotification + ")"
	stop, seen := make(chan struct{}), make(chan []int64)
	go func() {
		var seqs []int64
		for {
			select {
			case <-stop:
				seen <- seqs
				return
			default:
			}
			seqs = append(seqs, db.Store().SnapshotSeq())
			if res, err := db.Query(both); err != nil || res.Rows[0][0].Int() != res.Rows[0][1].Int() {
				t.Errorf("a reader saw %v (%v): rows and notification rows differ", res.Rows, err)
				seen <- nil
				return
			}
		}
	}()
	for i := 0; i < 300; i++ {
		if _, err := db.Exec("INSERT INTO authors VALUES (?, 'a')", types.NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	for _, seq := range <-seen {
		rows, err := db.QueryInt("SELECT COUNT(*) FROM authors AS OF ?", types.NewInt(seq))
		if err != nil {
			t.Fatal(err)
		}
		journal, err := db.QueryInt("SELECT COUNT(*) FROM "+database.TableNotification+" AS OF ?", types.NewInt(seq))
		if err != nil {
			t.Fatal(err)
		}
		if rows != journal {
			t.Fatalf("AS OF %d: %d rows and %d notification rows", seq, rows, journal)
		}
	}
}

// journalWorkload opens a database on fs, attaches a notifier and
// writes authors rows, renaming every second one, one statement at a
// time. It returns how many statements were acknowledged before the
// first error, Close's included.
func journalWorkload(fs fault.FS) (acked int, err error) {
	db, err := database.OpenWith("db", storage.Options{Sync: storage.SyncCommit, FS: fs})
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := db.Close(); err == nil {
			err = cerr
		}
	}()
	n, err := NewNotifier(db)
	if err != nil {
		return 0, err
	}
	defer n.Close()
	if _, err := db.Exec("CREATE TABLE authors (id INT PRIMARY KEY, name STRING)"); err != nil {
		return 0, err
	}
	for i := int64(0); i < 8; i++ {
		if _, err := db.Exec("INSERT INTO authors VALUES (?, 'a')", types.NewInt(i)); err != nil {
			return acked, err
		}
		acked++
		if i%2 == 1 {
			if _, err := db.Exec("UPDATE authors SET name = 'b' WHERE id = ?", types.NewInt(i)); err != nil {
				return acked, err
			}
			acked++
		}
	}
	return acked, nil
}

// TestCrashJournalEveryFaultPoint power-cycles the notifier's write loop
// at every filesystem fault point. After reopening, the notification rows
// and the data changes match one to one (no row without its change, no
// change without its row), no acknowledged write is lost, and the next
// write succeeds with a seq above every recovered one.
func TestCrashJournalEveryFaultPoint(t *testing.T) {
	count := fault.NewInject(fault.NewMemFS())
	if _, err := journalWorkload(count); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	total := count.Steps()
	for i := 1; i <= total; i++ {
		mem := fault.NewMemFS()
		inj := fault.NewInject(mem)
		inj.CrashAfter(i)
		acked, err := journalWorkload(inj)
		if !errors.Is(err, fault.ErrCrashed) {
			t.Fatalf("crash point %d/%d: workload ended with %v, want a crash", i, total, err)
		}
		mem.PowerCycle()
		if err := checkJournalAfterCrash(mem, acked); err != nil {
			t.Fatalf("crash point %d/%d (%s): %v", i, total, inj.Trace()[i-1], err)
		}
	}
}

func checkJournalAfterCrash(fs fault.FS, acked int) error {
	db, err := database.OpenWith("db", storage.Options{Sync: storage.SyncCommit, FS: fs})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE IF NOT EXISTS authors (id INT PRIMARY KEY, name STRING)"); err != nil {
		return err
	}
	// Each INSERT's notification row names its row's tid; each UPDATE's
	// names the row it renamed.
	data, err := db.Query("SELECT _tid, name FROM authors")
	if err != nil {
		return err
	}
	journal, err := db.Query("SELECT op, tids FROM " + database.TableNotification + " WHERE tbl = 'authors'")
	if err != nil {
		return err
	}
	want := map[string]bool{}
	for _, r := range data.Rows {
		tid := fmt.Sprint(r[0].Int())
		want["INSERT "+tid] = true
		if r[1].Str() == "b" {
			want["UPDATE "+tid] = true
		}
	}
	for _, r := range journal.Rows {
		key := r[0].Str() + " " + r[1].Str()
		if !want[key] {
			return fmt.Errorf("notification row %s without its change", key)
		}
		delete(want, key)
	}
	if len(want) > 0 {
		return fmt.Errorf("changes without their notification rows: %v", want)
	}
	if len(journal.Rows) < acked {
		return fmt.Errorf("%d notification rows, but %d writes were acknowledged", len(journal.Rows), acked)
	}
	maxSeq, err := db.QueryInt("SELECT COALESCE(MAX(seq_no), 0) FROM " + database.TableNotification)
	if err != nil {
		return err
	}
	n, err := NewNotifier(db)
	if err != nil {
		return err
	}
	defer n.Close()
	if _, err := db.Exec("INSERT INTO authors VALUES (1000, 'after')"); err != nil {
		return fmt.Errorf("first write after reopen: %w", err)
	}
	next, err := db.QueryInt("SELECT seq_no FROM " + database.TableNotification + " WHERE tids = (SELECT CAST_STRING(_tid) FROM authors WHERE id = 1000)")
	if err != nil || next <= maxSeq {
		return fmt.Errorf("first seq after reopen %d (%v), want above %d", next, err, maxSeq)
	}
	return nil
}

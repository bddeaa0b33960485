package server

import (
	"testing"
	"time"

	"ediflow/internal/client"
)

// TestMayOpenTxnKeywordScope: only a statement whose LEADING keyword is
// BEGIN takes the baton exclusively. Regression for the review finding
// where substring matching made any workload mentioning "begin" in an
// identifier or literal (a begin_ts column on every INSERT) serialize
// behind the exclusive baton, silently defeating group commit; and for a
// comment before BEGIN, which the engine skips and the old sniffing did
// not, so the transaction opened under the shared baton.
func TestMayOpenTxnKeywordScope(t *testing.T) {
	for _, tc := range []struct {
		sql  string
		want bool
	}{
		{"BEGIN", true},
		{"begin", true},
		{"  Begin  ", true},
		{"BEGIN; INSERT INTO t VALUES (1); COMMIT", true},
		{"INSERT INTO t VALUES (1); begin", true},
		{"INSERT INTO t VALUES (1);   BEGIN ;COMMIT", true},
		{"/* c */ BEGIN", true},
		{"-- c\nBEGIN", true},
		{"INSERT INTO t VALUES (1); /* a;b */ -- c\n begin", true},
		// Text that does not lex: the safe answer.
		{"INSERT INTO t VALUES ('unterminated", true},

		{"INSERT INTO t VALUES ('x;begin y')", false},
		{"INSERT INTO t (begin_ts) VALUES (1)", false},
		{"UPDATE t SET beginning = 2", false},
		{"SELECT begin_ts FROM t; SELECT beginning FROM t", false},
		{"INSERT INTO t VALUES ('begin')", false},
		{"SELECT 1 /* ; BEGIN */", false},
		{"SELECT 1 -- ; BEGIN", false},
		{"COMMIT", false},
		{"", false},
		{";;", false},
	} {
		if got := mayOpenTxn(tc.sql); got != tc.want {
			t.Errorf("mayOpenTxn(%q) = %v, want %v", tc.sql, got, tc.want)
		}
	}
}

// TestCommentedBeginHoldsBaton: a transaction opened by a BEGIN behind a
// comment takes the exclusive baton like any other, so another session's
// autocommit INSERT waits for it instead of running inside it — and is
// not taken back by its ROLLBACK.
func TestCommentedBeginHoldsBaton(t *testing.T) {
	for _, begin := range []string{"/* open */ BEGIN", "-- open\nBEGIN"} {
		srv, db, a := startServer(t, Config{})
		if _, err := a.Exec("CREATE TABLE tx (id INT PRIMARY KEY, who STRING)"); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Exec(begin); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Exec("INSERT INTO tx VALUES (1, 'a')"); err != nil {
			t.Fatal(err)
		}
		b, err := client.Dial(srv.Addr(), client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := b.Exec("INSERT INTO tx VALUES (2, 'b')")
			done <- err
		}()
		select {
		case err := <-done:
			t.Fatalf("%q: session B's write finished inside A's transaction: %v", begin, err)
		case <-time.After(200 * time.Millisecond):
		}
		if _, err := a.Exec("ROLLBACK"); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		b.Close()
		res, err := db.Query("SELECT id FROM tx")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
			t.Fatalf("%q: after A's ROLLBACK the table holds %v, want only B's row 2", begin, res.Rows)
		}
	}
}

package repl

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ediflow/internal/client"
	"ediflow/internal/database"
	"ediflow/internal/engine"
	"ediflow/internal/fault"
	"ediflow/internal/notify"
	"ediflow/internal/server"
	"ediflow/internal/types"
	"ediflow/internal/wire"
)

// startPrimary opens an in-memory primary with its feed enabled and a
// server listening on loopback, optionally behind a fault plan.
func startPrimary(t *testing.T, faults *fault.Faults) (*database.DB, *server.Server) {
	t.Helper()
	db := database.MustOpenMemory()
	srv := server.New(db, server.Config{})
	srv.SetRepl(NewPrimary(db))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if faults != nil {
		if err := srv.Serve(fault.WrapListener(ln, faults)); err != nil {
			t.Fatal(err)
		}
	} else {
		if err := srv.Serve(ln); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { srv.Close(); db.Close() })
	return db, srv
}

// startReplica opens an in-memory replica streaming from addr with fast
// test backoff.
func startReplica(t *testing.T, addr string, mut ...func(*ReplicaConfig)) (*database.DB, *Replica) {
	t.Helper()
	db := database.MustOpenMemory()
	cfg := ReplicaConfig{
		PrimaryAddr: addr,
		MinBackoff:  5 * time.Millisecond,
		MaxBackoff:  100 * time.Millisecond,
		Logf:        t.Logf,
	}
	for _, m := range mut {
		m(&cfg)
	}
	rep := NewReplica(db, cfg)
	rep.Start()
	t.Cleanup(func() { rep.Stop(); db.Close() })
	return db, rep
}

// waitApplied blocks until every replica's cursor has reached the
// primary's current feed head.
func waitApplied(t *testing.T, primary *database.DB, reps ...*Replica) {
	t.Helper()
	head := primary.Store().ReplHead()
	deadline := time.Now().Add(15 * time.Second)
	for {
		behind := false
		for _, r := range reps {
			if r.Applied() < head {
				behind = true
			}
		}
		if !behind {
			return
		}
		if time.Now().After(deadline) {
			for _, r := range reps {
				t.Logf("replica applied=%d head=%d (primary head %d)", r.Applied(), r.Head(), head)
			}
			t.Fatal("replicas did not catch up to the primary head")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stateBytes returns the canonical replicated-state encoding of db: the
// replication snapshot with epoch and allocation counters zeroed and
// per-node ef_connected_user rows skipped, so two converged stores
// encode byte-identically.
func stateBytes(t *testing.T, db *database.DB) []byte {
	t.Helper()
	b, err := db.Store().EncodeReplSnapshot(database.TableConnectedUser)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// waitInt polls a single-value query until pred accepts it.
func waitInt(t *testing.T, db *database.DB, sql string, pred func(int64) bool) int64 {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var last int64
	var lastErr error
	for time.Now().Before(deadline) {
		last, lastErr = db.QueryInt(sql)
		if lastErr == nil && pred(last) {
			return last
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("query %q never satisfied predicate (last=%d err=%v)", sql, last, lastErr)
	return 0
}

// TestReplicaConvergence is the core contract: one primary, two
// replicas, a concurrent write burst, and byte-identical state plus a
// zero-lag sys_replication on both sides afterwards.
func TestReplicaConvergence(t *testing.T) {
	pdb, srv := startPrimary(t, nil)
	r1db, r1 := startReplica(t, srv.Addr())
	r2db, r2 := startReplica(t, srv.Addr())

	if _, err := pdb.Exec("CREATE TABLE obj (id INT PRIMARY KEY, x FLOAT, tag STRING)"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := int64(w*1000 + i)
				if _, err := pdb.Exec("INSERT INTO obj (id, x, tag) VALUES (?, ?, ?)",
					types.NewInt(id), types.NewFloat(float64(id)/3), types.NewString("w")); err != nil {
					t.Errorf("insert %d: %v", id, err)
					return
				}
				if i%10 == 0 {
					if _, err := pdb.Exec("UPDATE obj SET tag = ? WHERE id = ?",
						types.NewString("touched"), types.NewInt(id)); err != nil {
						t.Errorf("update %d: %v", id, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if _, err := pdb.Exec("DELETE FROM obj WHERE id % 7 = 0"); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, pdb, r1, r2)

	want := stateBytes(t, pdb)
	for i, rdb := range []*database.DB{r1db, r2db} {
		if got := stateBytes(t, rdb); !bytes.Equal(got, want) {
			t.Fatalf("replica %d state diverged: %d bytes vs primary %d", i+1, len(got), len(want))
		}
		n, err := rdb.QueryInt("SELECT COUNT(*) FROM obj")
		if err != nil {
			t.Fatal(err)
		}
		pn, _ := pdb.QueryInt("SELECT COUNT(*) FROM obj")
		if n != pn {
			t.Fatalf("replica %d row count %d, primary %d", i+1, n, pn)
		}
		// The replica's own sys_replication row reports zero lag.
		waitInt(t, rdb, "SELECT lag_seqs FROM sys_replication", func(v int64) bool { return v == 0 })
	}
	// Primary side: two tracked subscribers, both fully acked.
	if n, err := pdb.QueryInt("SELECT COUNT(*) FROM sys_replication"); err != nil || n != 2 {
		t.Fatalf("primary sys_replication rows = %d (%v), want 2", n, err)
	}
	waitInt(t, pdb, "SELECT MAX(lag_seqs) FROM sys_replication", func(v int64) bool { return v == 0 })
}

// TestReplicaRejectsWrites: every mutation path on a replica fails with
// the dedicated error, both embedded and over the wire, while the
// per-node mirror-registration table stays writable.
func TestReplicaRejectsWrites(t *testing.T) {
	pdb, srv := startPrimary(t, nil)
	rdb, rep := startReplica(t, srv.Addr())
	if _, err := pdb.Exec("CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, pdb, rep)

	for _, sql := range []string{
		"INSERT INTO t (id) VALUES (1)",
		"UPDATE t SET id = 2 WHERE id = 1",
		"DELETE FROM t",
		"CREATE TABLE nope (id INT PRIMARY KEY)",
		"DROP TABLE t",
		"BEGIN",
	} {
		if _, err := rdb.Exec(sql); !errors.Is(err, engine.ErrReadOnlyReplica) {
			t.Fatalf("%q on replica: err=%v, want ErrReadOnlyReplica", sql, err)
		}
	}
	// Reads and the local registration table still work.
	if _, err := rdb.QueryInt("SELECT COUNT(*) FROM t"); err != nil {
		t.Fatal(err)
	}
	if _, err := rdb.Exec("INSERT INTO "+database.TableConnectedUser+
		" (id, username, host, port, tbl, last_seq) VALUES (?, ?, ?, ?, ?, 0)",
		types.NewInt(1), types.NewString("u"), types.NewString("127.0.0.1"),
		types.NewInt(1), types.NewString("t")); err != nil {
		t.Fatalf("local registration insert on replica: %v", err)
	}

	// Over the wire the same distinct message reaches the client.
	rsrv := server.New(rdb, server.Config{})
	if err := rsrv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer rsrv.Close()
	conn, err := client.Dial(rsrv.Addr(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Exec("INSERT INTO t (id) VALUES (9)"); err == nil ||
		!strings.Contains(err.Error(), "read-only replica") {
		t.Fatalf("write via replica server: err=%v, want read-only replica error", err)
	}
	if _, err := conn.QueryInt("SELECT COUNT(*) FROM t"); err != nil {
		t.Fatalf("read via replica server: %v", err)
	}
}

// gateDialer is a dialer the test can force offline, and whose live
// connections it can sever.
type gateDialer struct {
	mu      sync.Mutex
	blocked bool
	conns   []net.Conn
}

func (g *gateDialer) dial(addr string, timeout time.Duration) (net.Conn, error) {
	g.mu.Lock()
	blocked := g.blocked
	g.mu.Unlock()
	if blocked {
		return nil, errors.New("gate closed")
	}
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err == nil {
		g.mu.Lock()
		g.conns = append(g.conns, c)
		g.mu.Unlock()
	}
	return c, err
}

func (g *gateDialer) sever() {
	g.mu.Lock()
	g.blocked = true
	for _, c := range g.conns {
		c.Close()
	}
	g.conns = nil
	g.mu.Unlock()
}

func (g *gateDialer) open() {
	g.mu.Lock()
	g.blocked = false
	g.mu.Unlock()
}

// TestSnapshotResyncAfterCheckpoint: a checkpoint prunes the retained
// feed while a replica is disconnected; on reconnect its stale cursor
// must trigger a snapshot resync — never a silent divergence.
func TestSnapshotResyncAfterCheckpoint(t *testing.T) {
	pdb, srv := startPrimary(t, nil)
	gate := &gateDialer{}
	rdb, rep := startReplica(t, srv.Addr(), func(c *ReplicaConfig) { c.Dialer = gate.dial })

	if _, err := pdb.Exec("CREATE TABLE t (id INT PRIMARY KEY, v STRING)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := pdb.Exec("INSERT INTO t (id, v) VALUES (?, ?)",
			types.NewInt(int64(i)), types.NewString("before")); err != nil {
			t.Fatal(err)
		}
	}
	waitApplied(t, pdb, rep)
	resyncs0, err := rdb.QueryInt("SELECT resyncs FROM sys_replication")
	if err != nil {
		t.Fatal(err)
	}

	// Take the replica offline, advance the primary past it, and prune
	// everything it would have needed via a checkpoint.
	gate.sever()
	for i := 50; i < 120; i++ {
		if _, err := pdb.Exec("INSERT INTO t (id, v) VALUES (?, ?)",
			types.NewInt(int64(i)), types.NewString("after")); err != nil {
			t.Fatal(err)
		}
	}
	if err := pdb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if floor, head := pdb.Store().ReplFloor(), pdb.Store().ReplHead(); floor != head+1 {
		t.Fatalf("checkpoint did not prune the feed: floor=%d head=%d", floor, head)
	}
	// A couple more writes so the reconnected cursor is genuinely below
	// the floor, not just at it.
	for i := 120; i < 130; i++ {
		if _, err := pdb.Exec("INSERT INTO t (id, v) VALUES (?, ?)",
			types.NewInt(int64(i)), types.NewString("tail")); err != nil {
			t.Fatal(err)
		}
	}
	gate.open()

	waitApplied(t, pdb, rep)
	waitInt(t, rdb, "SELECT resyncs FROM sys_replication",
		func(v int64) bool { return v > resyncs0 })
	if got, want := stateBytes(t, rdb), stateBytes(t, pdb); !bytes.Equal(got, want) {
		t.Fatal("replica state diverged after checkpoint resync")
	}
	if n, err := rdb.QueryInt("SELECT COUNT(*) FROM t"); err != nil || n != 130 {
		t.Fatalf("replica row count after resync = %d (%v), want 130", n, err)
	}
}

// TestLargeSnapshotChunking: a snapshot bigger than one wire frame
// (16 MB) must ship as multiple FrameSnapshot chunks and reassemble.
func TestLargeSnapshotChunking(t *testing.T) {
	pdb, srv := startPrimary(t, nil)
	if _, err := pdb.Exec("CREATE TABLE blob (id INT PRIMARY KEY, data STRING)"); err != nil {
		t.Fatal(err)
	}
	// ~18 MB of row data: 288 rows of 64 KiB.
	chunk := strings.Repeat("x", 64<<10)
	for i := 0; i < 288; i++ {
		if _, err := pdb.Exec("INSERT INTO blob (id, data) VALUES (?, ?)",
			types.NewInt(int64(i)), types.NewString(fmt.Sprintf("%06d:", i)+chunk)); err != nil {
			t.Fatal(err)
		}
	}
	if snap := stateBytes(t, pdb); len(snap) <= wire.MaxFrame {
		t.Fatalf("test state too small to exercise chunking: %d bytes", len(snap))
	}

	// The replica arrives late: its catch-up is the giant snapshot.
	rdb, rep := startReplica(t, srv.Addr())
	waitApplied(t, pdb, rep)
	if got, want := stateBytes(t, rdb), stateBytes(t, pdb); !bytes.Equal(got, want) {
		t.Fatal("replica state diverged after chunked snapshot")
	}
	if n, err := rdb.QueryInt("SELECT COUNT(*) FROM blob"); err != nil || n != 288 {
		t.Fatalf("replica blob count = %d (%v), want 288", n, err)
	}
}

// TestReplicaFaultResetMidStream is the replication fault drill: the
// primary's network resets the stream every few KB mid-flight; the
// replica must reconnect through backoff and still converge once the
// network heals, leaking nothing.
func TestReplicaFaultResetMidStream(t *testing.T) {
	baseline := runtime.NumGoroutine()

	faults := &fault.Faults{}
	pdb, srv := startPrimary(t, faults)
	rdb, rep := startReplica(t, srv.Addr())

	if _, err := pdb.Exec("CREATE TABLE t (id INT PRIMARY KEY, v STRING)"); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, pdb, rep)

	// Every server→replica connection now dies once 4 KB have gone out
	// and another write is attempted: the stream resets mid-flight while
	// the replica reconnects and re-subscribes from its cursor. Writes
	// keep flowing until at least two reset/reconnect cycles happened,
	// so batches are severed at arbitrary points under load.
	faults.SetResetAfterBytes(4 << 10)
	deadline := time.Now().Add(15 * time.Second)
	id := int64(0)
	for {
		n, err := rdb.QueryInt("SELECT reconnects FROM sys_replication")
		if err != nil {
			t.Fatal(err)
		}
		if n >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream never reset under load (reconnects=%d)", n)
		}
		if _, err := pdb.Exec("INSERT INTO t (id, v) VALUES (?, ?)",
			types.NewInt(id), types.NewString(strings.Repeat("v", 100))); err != nil {
			t.Fatal(err)
		}
		id++
	}

	faults.SetResetAfterBytes(0) // heal the network
	// A tail of writes after healing must also arrive.
	for i := 0; i < 50; i++ {
		if _, err := pdb.Exec("INSERT INTO t (id, v) VALUES (?, ?)",
			types.NewInt(id), types.NewString("tail")); err != nil {
			t.Fatal(err)
		}
		id++
	}
	waitApplied(t, pdb, rep)
	if got, want := stateBytes(t, rdb), stateBytes(t, pdb); !bytes.Equal(got, want) {
		t.Fatal("replica state diverged across injected resets")
	}
	if n, err := rdb.QueryInt("SELECT COUNT(*) FROM t"); err != nil || n != id {
		t.Fatalf("replica row count = %d (%v), want %d", n, err, id)
	}

	rep.Stop()
	srv.Close()
	rdb.Close()
	pdb.Close()
	if got := fault.Settle(baseline, 2*time.Second); got > baseline {
		t.Fatalf("goroutines leaked across resets: %d > baseline %d", got, baseline)
	}
}

// TestMirrorNotifyViaReplica is the §VI-C fan-out path end to end: a
// mirror registers on a *replica*, the edit happens on the *primary*,
// and the NOTIFY arrives through replication — data row and journal row
// ship to the replica, whose notifier doorbell wakes the local mirror.
func TestMirrorNotifyViaReplica(t *testing.T) {
	pdb, srv := startPrimary(t, nil)
	pn, err := notify.NewNotifier(pdb)
	if err != nil {
		t.Fatal(err)
	}
	defer pn.Close()

	rdb := database.MustOpenMemory()
	defer rdb.Close()
	rn, err := notify.NewNotifier(rdb)
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Close()
	rep := NewReplica(rdb, ReplicaConfig{
		PrimaryAddr: srv.Addr(),
		MinBackoff:  5 * time.Millisecond,
		MaxBackoff:  100 * time.Millisecond,
		OnNotify:    rn.PushNotify,
		Logf:        t.Logf,
	})
	rep.Start()
	defer rep.Stop()

	if _, err := pdb.Exec("CREATE TABLE obj (id INT PRIMARY KEY, x FLOAT)"); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, pdb, rep)

	// The mirror's whole protocol runs against the replica: the
	// registration INSERT lands in the replica-local ef_connected_user,
	// and the replica's notifier dials back.
	cl, err := notify.Connect(rdb, "alice", "obj")
	if err != nil {
		t.Fatalf("mirror connect via replica: %v", err)
	}
	defer cl.Close()

	if _, err := pdb.Exec("INSERT INTO obj (id, x) VALUES (1, 0.5)"); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-cl.C:
		if m.Verb != notify.MsgNotify || !strings.EqualFold(m.Table, "obj") {
			t.Fatalf("unexpected message: %+v", m)
		}
		// The journal behind the NOTIFY is replicated too: the mirror's
		// catch-up read (PendingNotifications) sees the same seq.
		msgs, _, err := cl.PendingNotifications()
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, pm := range msgs {
			if pm.Seq == m.Seq {
				found = true
			}
		}
		if !found {
			t.Fatalf("NOTIFY seq %d not in replicated journal (%d rows)", m.Seq, len(msgs))
		}
		if err := cl.Ack(m.Seq); err != nil {
			t.Fatalf("ack via replica: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("mirror on replica never received NOTIFY for a primary-side edit")
	}
}

// TestJournalReplicatesAsWritten: the primary's notification rows are
// written in each statement's own commit and reach the replica through
// the log, never journaled again there — with a notifier attached on
// both sides, the replica's ef_notification equals the primary's and the
// replicated state encodes byte-identically.
func TestJournalReplicatesAsWritten(t *testing.T) {
	pdb, srv := startPrimary(t, nil)
	pn, err := notify.NewNotifier(pdb)
	if err != nil {
		t.Fatal(err)
	}
	defer pn.Close()
	// The replica's notifier is attached before replication starts, as
	// cmd/ediserver does.
	rdb := database.MustOpenMemory()
	defer rdb.Close()
	rn, err := notify.NewNotifier(rdb)
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Close()
	rep := NewReplica(rdb, ReplicaConfig{
		PrimaryAddr: srv.Addr(),
		MinBackoff:  5 * time.Millisecond,
		MaxBackoff:  100 * time.Millisecond,
		Logf:        t.Logf,
	})
	rep.Start()
	defer rep.Stop()

	// Streamed, not resynced: the writes below reach the replica as log
	// records.
	if _, err := pdb.Exec("CREATE TABLE obj (id INT PRIMARY KEY, x FLOAT)"); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, pdb, rep)
	for _, sql := range []string{
		"CREATE MATERIALIZED VIEW obj_n AS SELECT COUNT(*) AS n FROM obj",
		"INSERT INTO obj VALUES (1, 0.5), (2, 1.5), (3, 2.5)",
		"UPDATE obj SET x = x + 1 WHERE id > 1",
		"BEGIN",
		"INSERT INTO obj VALUES (4, 0)",
		"DELETE FROM obj WHERE id = 1",
		"COMMIT",
		"BEGIN",
		"DELETE FROM obj",
		"ROLLBACK",
	} {
		if _, err := pdb.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	waitApplied(t, pdb, rep)

	journal := "SELECT seq_no, ts, tbl, op, tids FROM " + database.TableNotification + " ORDER BY seq_no"
	want, err := pdb.Query(journal)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rdb.Query(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != 7 || fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
		t.Fatalf("replica journal %v\nprimary journal %v (want 7 rows)", got.Rows, want.Rows)
	}
	if !bytes.Equal(stateBytes(t, rdb), stateBytes(t, pdb)) {
		t.Fatal("replica state diverged from the primary's")
	}
}

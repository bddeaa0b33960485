package ediflow

// End-to-end coverage of the observability layer: the metrics catalog
// must be readable as ordinary relations — embedded and across the wire
// — and must report activity from every instrumented subsystem after
// the paper's full deployment (Fig. 3) has run: durable DBMS server,
// remote client, §VI-C notification dial-back, remote mirror refresh.

import (
	"fmt"
	"testing"
	"time"

	"ediflow/internal/client"
	"ediflow/internal/database"
	"ediflow/internal/notify"
	"ediflow/internal/server"
	"ediflow/internal/storage"
	"ediflow/internal/tablesync"
)

// TestSysMetricsEmbedded checks the Platform surface: sys_metrics and
// sys_slow_queries answer plain SELECTs against the same registry the
// accessors expose.
func TestSysMetricsEmbedded(t *testing.T) {
	p := MustOpenMemory(quiet())
	defer p.Close()
	p.SlowLog().SetThreshold(0) // record everything

	if _, err := p.Exec("CREATE TABLE obs (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := p.Exec(fmt.Sprintf("INSERT INTO obs VALUES (%d, %d)", i, i*i)); err != nil {
			t.Fatal(err)
		}
	}
	n, err := p.QueryInt("SELECT count FROM sys_metrics WHERE name = 'engine.statements'")
	if err != nil {
		t.Fatal(err)
	}
	if n < 6 {
		t.Fatalf("engine.statements = %d, want >= 6", n)
	}
	slow, err := p.QueryInt("SELECT COUNT(*) FROM sys_slow_queries")
	if err != nil {
		t.Fatal(err)
	}
	if slow == 0 {
		t.Fatal("sys_slow_queries empty with threshold 0")
	}
	// The registry behind the SQL surface is the same object.
	found := false
	for _, s := range p.Metrics().Snapshot() {
		if s.Name == "engine.statements" && s.Count >= 6 {
			found = true
		}
	}
	if !found {
		t.Fatal("Platform.Metrics() does not expose engine.statements")
	}
}

// TestSysMetricsOverWire is the acceptance test of the observability
// layer: a durable (fsync-on-commit) server, a remote client, and a
// remote mirror run the paper's event chain, then `SELECT * FROM
// sys_metrics` *over the wire* must report non-zero engine, WAL,
// server, notify and tablesync counters — including tablesync.acks,
// the server-side trace of the Figure-8 NOTIFY→refresh chain.
func TestSysMetricsOverWire(t *testing.T) {
	db, err := database.OpenWith(t.TempDir(), storage.Options{Sync: storage.SyncCommit})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SlowLog().SetThreshold(0)
	notifier, err := notify.NewNotifier(db)
	if err != nil {
		t.Fatal(err)
	}
	defer notifier.Close()
	srv := server.New(db, server.Config{})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := client.Dial(srv.Addr(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if _, err := conn.Exec("CREATE TABLE readings (id INT PRIMARY KEY, v FLOAT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := conn.Exec(fmt.Sprintf("INSERT INTO readings VALUES (%d, %d.5)", i, i)); err != nil {
			t.Fatal(err)
		}
	}

	// Remote mirror: registration dials back over loopback TCP, the
	// refresh re-reads by tuple id, and its Ack lands in
	// ef_connected_user — which the notifier turns into the
	// tablesync.acks / tablesync.refresh_lag server-side metrics.
	m, err := tablesync.NewMirror(conn, "display", "readings")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := conn.Exec("INSERT INTO readings VALUES (100, 1.5)"); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool {
		if _, err := m.Refresh(); err != nil {
			t.Fatal(err)
		}
		return m.Len() == 11
	})

	// Every instrumented subsystem must have recorded activity by now.
	// notify.sent is flushed by an async writer goroutine, so poll.
	want := []string{
		"engine.statements", "engine.rows_scanned",
		"wal.appends", "wal.bytes", "wal.flushes", "wal.fsyncs",
		"server.requests", "server.bytes_in", "server.bytes_out", "server.sessions",
		"notify.dials", "notify.sent",
		"tablesync.acks",
	}
	var counts map[string]int64
	waitCond(t, func() bool {
		res, err := conn.Query("SELECT name, count FROM sys_metrics")
		if err != nil {
			t.Fatal(err)
		}
		counts = make(map[string]int64, len(res.Rows))
		for _, r := range res.Rows {
			counts[r[0].Str()] = r[1].Int()
		}
		for _, name := range want {
			if counts[name] <= 0 {
				return false
			}
		}
		return true
	})
	for _, name := range want {
		if counts[name] <= 0 {
			t.Errorf("%s = %d over the wire, want > 0", name, counts[name])
		}
	}
	if _, ok := counts["engine.select_latency"]; !ok {
		t.Error("histogram engine.select_latency missing from sys_metrics")
	}

	// The mirror runs over a network client, so its local refresh
	// telemetry lives in the *client's* registry, not the server's.
	clientSide := map[string]int64{}
	for _, s := range conn.Metrics().Snapshot() {
		clientSide[s.Name] = s.Count
	}
	for _, name := range []string{"client.dials", "tablesync.refreshes", "tablesync.rows_fetched"} {
		if clientSide[name] <= 0 {
			t.Errorf("%s = %d in the client registry, want > 0", name, clientSide[name])
		}
	}

	// sys_sessions shows this very connection with its byte accounting.
	res, err := conn.Query("SELECT client, statements, frames_in, bytes_in, bytes_out FROM sys_sessions")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("sys_sessions empty while a session is querying it")
	}
	seen := false
	for _, r := range res.Rows {
		if r[1].Int() > 0 && r[2].Int() > 0 && r[3].Int() > 0 && r[4].Int() > 0 {
			seen = true
		}
	}
	if !seen {
		t.Fatalf("no session with non-zero statement/frame/byte counts: %v", res.Rows)
	}

	// And the slow log is queryable remotely too (threshold 0 above).
	slow, err := conn.Query("SELECT sql, ms FROM sys_slow_queries")
	if err != nil {
		t.Fatal(err)
	}
	if len(slow.Rows) == 0 {
		t.Fatal("sys_slow_queries empty over the wire with threshold 0")
	}
}

// TestMetricsOverhead checks the instrumentation budget DESIGN.md states
// on the cached point SELECT, where the fixed per-statement cost weighs
// most: with the registry enabled the statement makes no more
// allocations than with it disabled, and its bookkeeping is exactly one
// statement count and one latency observation per statement (none when
// disabled). The time of both paths is logged, not gated: the statement
// takes about 2 µs, and a wall-clock budget of a few percent of that
// failed on scheduler noise alone. BenchmarkMetricsOverhead (bench_test.go)
// reports the same paths as ns/op.
func TestMetricsOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts: sync.Pool drops items at random")
	}
	db := database.MustOpenMemory()
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i += 250 {
		sql := "INSERT INTO t VALUES "
		for j := 0; j < 250; j++ {
			if j > 0 {
				sql += ", "
			}
			sql += fmt.Sprintf("(%d, %d)", i+j, (i+j)%97)
		}
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	stmts := make([]string, 256)
	for i := range stmts {
		stmts[i] = fmt.Sprintf("SELECT v FROM t WHERE id = %d", i*7%2000)
	}
	next := 0
	query := func() {
		if _, err := db.Query(stmts[next%len(stmts)]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for range stmts { // every shape's plan cached before counting
		query()
	}
	defer db.Metrics().SetEnabled(true)
	statements := db.Metrics().Counter("engine.statements")
	selects := db.Metrics().Histogram("engine.select_latency")
	const runs = 4000
	allocs, elapsed := map[bool]float64{}, map[bool]time.Duration{}
	for _, on := range []bool{false, true, false, true} {
		db.Metrics().SetEnabled(on)
		s0, h0, start := statements.Value(), selects.Stat().Count, time.Now()
		// AllocsPerRun calls query once more to warm up.
		a := testing.AllocsPerRun(runs, query)
		elapsed[on] += time.Since(start)
		allocs[on] = max(allocs[on], a)
		want := int64(0)
		if on {
			want = runs + 1
		}
		if ds, dh := statements.Value()-s0, selects.Stat().Count-h0; ds != want || dh != want {
			t.Errorf("metrics on=%v: %d statements counted and %d latencies observed over %d statements, want %d each",
				on, ds, dh, runs+1, want)
		}
	}
	if allocs[true] > allocs[false] {
		t.Errorf("a point SELECT makes %.0f allocations with metrics on, %.0f with them off", allocs[true], allocs[false])
	}
	t.Logf("point SELECT, metrics on / off: %.0f / %.0f allocations, %v / %v per statement (time logged, not gated)",
		allocs[true], allocs[false], elapsed[true]/(2*(runs+1)), elapsed[false]/(2*(runs+1)))
}

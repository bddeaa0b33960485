package storage

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"testing"
	"time"

	"ediflow/internal/types"
)

// TestWALCrashChild is not a test: it is the victim process for
// TestCrashReplayNoAcknowledgedLoss, re-executed via the test binary. It
// opens the store in SyncCommit mode, inserts rows (each followed by the
// engine's commit-boundary Flush), prints READY, and blocks until killed.
func TestWALCrashChild(t *testing.T) {
	dir := os.Getenv("EDIFLOW_CRASH_DIR")
	if dir == "" {
		t.Skip("helper process, driven by TestCrashReplayNoAcknowledgedLoss")
	}
	st, err := OpenWith(dir, Options{Sync: SyncCommit})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateTable(userSchema()); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		row := types.Row{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("user-%d", i)),
			types.NewString(fmt.Sprintf("u%d@x", i)),
		}
		if _, err := st.InsertRows("users", []types.Row{row}, nil); err != nil {
			t.Fatal(err)
		}
		// Statement boundary: with SyncCommit the row is on stable
		// storage — and acknowledged — once Flush returns.
		if err := st.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	fmt.Println("READY")
	os.Stdout.Sync()
	// Never Close(): wait to be SIGKILLed mid-life, before any checkpoint.
	select {}
}

// TestCrashReplayNoAcknowledgedLoss kills a child process with SIGKILL
// after it acknowledged 25 committed inserts (fsync-on-commit) but before
// any checkpoint, then reopens the directory and verifies every
// acknowledged row is replayed from the WAL.
func TestCrashReplayNoAcknowledgedLoss(t *testing.T) {
	if os.Getenv("EDIFLOW_CRASH_DIR") != "" {
		t.Skip("already inside the helper process")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestWALCrashChild$", "-test.v")
	cmd.Env = append(os.Environ(), "EDIFLOW_CRASH_DIR="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	ready := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if sc.Text() == "READY" {
				ready <- nil
				return
			}
		}
		ready <- fmt.Errorf("child exited before READY (scan err: %v)", sc.Err())
	}()
	select {
	case err := <-ready:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for child READY")
	}

	// Crash: no Close, no checkpoint, no chance to flush anything more.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	st, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer st.Close()
	tbl := st.Table("users")
	if tbl == nil {
		t.Fatal("table lost after crash")
	}
	if got := tbl.Len(); got != 25 {
		t.Fatalf("recovered %d rows, want 25 acknowledged commits", got)
	}
	for i := 0; i < 25; i++ {
		if _, ok := pkTID(tbl, types.NewInt(int64(i)), SeqLatest); !ok {
			t.Fatalf("acknowledged row id=%d lost in crash", i)
		}
	}
}

// TestSyncModes checks the fsync policy through the metrics counters:
// SyncCommit fsyncs every Flush, SyncInterval batches them, SyncOSCache
// never fsyncs before close.
func TestSyncModes(t *testing.T) {
	insertN := func(st *Store, n int) {
		t.Helper()
		if err := st.CreateTable(userSchema()); err != nil {
			t.Fatal(err)
		}
		if err := st.Commit(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			row := types.Row{
				types.NewInt(int64(i)),
				types.NewString("u"),
				types.NewString(fmt.Sprintf("%d@x", i)),
			}
			if _, err := st.InsertRows("users", []types.Row{row}, nil); err != nil {
				t.Fatal(err)
			}
			if err := st.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	counter := func(st *Store, name string) int64 {
		for _, s := range st.Metrics().Snapshot() {
			if s.Name == name {
				return s.Count
			}
		}
		return 0
	}

	t.Run("commit", func(t *testing.T) {
		st, err := OpenWith(t.TempDir(), Options{Sync: SyncCommit})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		insertN(st, 10)
		if got := counter(st, "wal.fsyncs"); got != 11 {
			t.Fatalf("SyncCommit fsyncs = %d, want 11 (one per boundary)", got)
		}
		if got := counter(st, "wal.appends"); got != 11 {
			t.Fatalf("wal.appends = %d, want 11", got)
		}
		if counter(st, "wal.bytes") == 0 {
			t.Fatal("wal.bytes not recorded")
		}
	})
	t.Run("interval", func(t *testing.T) {
		st, err := OpenWith(t.TempDir(), Options{Sync: SyncInterval, SyncEvery: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		insertN(st, 10)
		// Interval fsyncs run only on the flusher's ticker now (the old
		// code fsynced the first boundary because lastFsync was zero, and
		// could double-fsync when the timer raced a statement flush). An
		// hour-long window means zero fsyncs during the run; close makes
		// the tail durable.
		if got := counter(st, "wal.fsyncs"); got != 0 {
			t.Fatalf("SyncInterval fsyncs = %d, want 0 inside the window", got)
		}
		if got := counter(st, "wal.flushes"); got != 11 {
			t.Fatalf("wal.flushes = %d, want 11", got)
		}
	})
	t.Run("oscache", func(t *testing.T) {
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		insertN(st, 10)
		if got := counter(st, "wal.fsyncs"); got != 0 {
			t.Fatalf("SyncOSCache fsyncs = %d, want 0 before close", got)
		}
	})
	t.Run("in-memory", func(t *testing.T) {
		st, err := OpenWith("", Options{Sync: SyncCommit})
		if err != nil {
			t.Fatal(err)
		}
		insertN(st, 3)
		if got := counter(st, "wal.fsyncs"); got != 0 {
			t.Fatalf("in-memory fsyncs = %d, want 0", got)
		}
	})
}

func TestParseSyncMode(t *testing.T) {
	cases := map[string]SyncMode{
		"none": SyncOSCache, "": SyncOSCache, "bogus": SyncOSCache,
		"commit": SyncCommit, "fsync": SyncCommit, "FULL": SyncCommit,
		"interval": SyncInterval, "group": SyncInterval,
	}
	for in, want := range cases {
		if got := ParseSyncMode(in); got != want {
			t.Errorf("ParseSyncMode(%q) = %v, want %v", in, got, want)
		}
	}
	if SyncCommit.String() != "commit" || SyncInterval.String() != "interval" || SyncOSCache.String() != "none" {
		t.Error("SyncMode.String mismatch")
	}
}

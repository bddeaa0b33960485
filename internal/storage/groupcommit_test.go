package storage

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"ediflow/internal/fault"
	"ediflow/internal/types"
)

// Group-commit fault coverage: the crash-point matrix in
// crashmatrix_test.go drives a serialized workload, so every flush cycle
// carries exactly one ticket. The tests here force MULTIPLE concurrent
// commit tickets into one batch — by holding cycleMu, which stalls the
// flusher at the top of its cycle — and then crash between the batch's
// buffer flush (one Write) and its shared fsync (one Sync), proving that
// no commit in a batch is acknowledged unless the shared fsync completed,
// and that a torn tail inside a batch truncates cleanly.

// openGroupStore opens a SyncCommit store on fs with a users table and
// one acknowledged baseline row (pk 100), all fsynced.
func openGroupStore(t *testing.T, fs fault.FS) *Store {
	t.Helper()
	s, err := OpenWith("db", Options{Sync: SyncCommit, FS: fs})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := s.CreateTable(userSchema()); err != nil {
		t.Fatalf("create table: %v", err)
	}
	if err := s.Commit(); err != nil {
		t.Fatalf("flush schema: %v", err)
	}
	if _, err := s.InsertRows("users", []types.Row{{types.NewInt(100), types.NewString("base"), types.Null}}, nil); err != nil {
		t.Fatalf("baseline insert: %v", err)
	}
	if err := s.Commit(); err != nil {
		t.Fatalf("flush baseline: %v", err)
	}
	return s
}

// stallAndQueue holds the flusher out of its cycle (via cycleMu), appends
// k insert records serially, then launches k concurrent Commit callers
// and waits until every ticket is queued. The caller releases s.cycleMu
// to let one flush cycle drain the whole batch; each element of the
// returned channel slice carries one committer's outcome.
func stallAndQueue(t *testing.T, s *Store, k int) []chan error {
	t.Helper()
	s.cycleMu.Lock()
	for i := 1; i <= k; i++ {
		if _, err := s.InsertRows("users", []types.Row{{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("b%d", i)), types.Null}}, nil); err != nil {
			s.cycleMu.Unlock()
			t.Fatalf("batch insert %d: %v", i, err)
		}
	}
	outs := make([]chan error, k)
	for i := range outs {
		out := make(chan error, 1)
		outs[i] = out
		go func() { out <- s.Commit() }()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.commitMu.Lock()
		queued := len(s.commitQ)
		s.commitMu.Unlock()
		if queued >= k {
			return outs
		}
		if time.Now().After(deadline) {
			s.cycleMu.Unlock()
			t.Fatalf("only %d of %d commit tickets queued", queued, k)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupCommitSharedFsyncAcksAll: k concurrent committers drained by
// one flush cycle share exactly one buffer flush and one fsync, and every
// ticket is acknowledged with the batch's records durable.
func TestGroupCommitSharedFsyncAcksAll(t *testing.T) {
	mem := fault.NewMemFS()
	s := openGroupStore(t, mem)
	defer s.Close()

	const k = 8
	fsyncs0 := s.reg.Counter("wal.fsyncs").Value()
	commits0 := s.reg.Counter("wal.commits").Value()
	groups0 := s.reg.Counter("wal.group_commits").Value()
	sizeObs0 := s.reg.Histogram("wal.group_commit_size").Stat().Count

	outs := stallAndQueue(t, s, k)
	s.cycleMu.Unlock()
	for i, out := range outs {
		if err := <-out; err != nil {
			t.Fatalf("committer %d: %v", i, err)
		}
	}

	if got := s.reg.Counter("wal.fsyncs").Value() - fsyncs0; got != 1 {
		t.Fatalf("batch of %d commits used %d fsyncs, want exactly 1", k, got)
	}
	if got := s.reg.Counter("wal.commits").Value() - commits0; got != k {
		t.Fatalf("wal.commits advanced by %d, want %d", got, k)
	}
	if got := s.reg.Counter("wal.group_commits").Value() - groups0; got != 1 {
		t.Fatalf("wal.group_commits advanced by %d, want 1", got)
	}
	if got := s.reg.Histogram("wal.group_commit_size").Stat().Count - sizeObs0; got != 1 {
		t.Fatalf("wal.group_commit_size observations advanced by %d, want 1", got)
	}

	// Power loss after the acks: every acknowledged row must survive.
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	mem.PowerCycle()
	re, err := OpenWith("db", Options{Sync: SyncCommit, FS: mem})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if got := re.Table("users").Len(); got != k+1 {
		t.Fatalf("recovered %d rows, want %d (baseline + full batch)", got, k+1)
	}
}

// TestGroupCommitCrashMatrixBatchWindow crashes at each of the two
// mutating fs ops a batched flush cycle performs — the single buffer
// Write and the single shared Sync — with k tickets queued. In both
// cases every committer must see the failure (no partial acks within a
// batch), and power-loss recovery must reproduce exactly the
// pre-batch acknowledged state.
func TestGroupCommitCrashMatrixBatchWindow(t *testing.T) {
	for _, tc := range []struct {
		name   string
		offset int // 1 = batch buffer Write, 2 = batch shared fsync
	}{
		{"crash_at_batch_write", 1},
		{"crash_at_batch_fsync", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := fault.NewMemFS()
			inj := fault.NewInject(mem)
			s := openGroupStore(t, inj)

			const k = 6
			outs := stallAndQueue(t, s, k)
			// Appends are buffered, so no fs op has happened for the batch
			// yet: the cycle's Write is step base+1, its Sync base+2.
			inj.CrashAfter(inj.Steps() + tc.offset)
			s.cycleMu.Unlock()

			for i, out := range outs {
				if err := <-out; !errors.Is(err, fault.ErrCrashed) {
					t.Fatalf("committer %d: err = %v, want ErrCrashed (no ack without the shared fsync)", i, err)
				}
			}
			s.Close()

			mem.PowerCycle()
			re, err := OpenWith("db", Options{Sync: SyncCommit, FS: mem})
			if err != nil {
				t.Fatalf("reopen after power loss: %v", err)
			}
			defer re.Close()
			tbl := re.Table("users")
			if tbl == nil {
				t.Fatal("users table lost: pre-batch acked state not recovered")
			}
			if got := tbl.Len(); got != 1 {
				t.Fatalf("recovered %d rows, want exactly the 1 acked baseline row (none of the unacked batch)", got)
			}
			if pk := tbl.Rows()[0].Values[0].Int(); pk != 100 {
				t.Fatalf("recovered pk %d, want baseline pk 100", pk)
			}
		})
	}
}

// TestGroupCommitTornTailInsideBatchTruncatesCleanly: the batch's single
// buffer Write crashes halfway (ShortWrites), landing a torn record in
// the middle of the batch. The process — not the machine — crashes, so
// the half-written bytes survive in the OS cache. Reopen must truncate
// the torn tail, recover the baseline plus at most a clean PREFIX of the
// batch (never a gap, never a dup), and leave the store appendable.
func TestGroupCommitTornTailInsideBatchTruncatesCleanly(t *testing.T) {
	mem := fault.NewMemFS()
	inj := fault.NewInject(mem)
	s := openGroupStore(t, inj)

	const k = 6
	outs := stallAndQueue(t, s, k)
	inj.ShortWrites(true)
	inj.CrashAfter(inj.Steps() + 1) // the batch's one buffer Write, torn
	s.cycleMu.Unlock()

	for i, out := range outs {
		if err := <-out; !errors.Is(err, fault.ErrCrashed) {
			t.Fatalf("committer %d: err = %v, want ErrCrashed", i, err)
		}
	}
	s.Close()

	// Process crash: NO PowerCycle — reopen on the bare memfs sees the
	// torn bytes.
	re, err := OpenWith("db", Options{Sync: SyncCommit, FS: mem})
	if err != nil {
		t.Fatalf("reopen after torn batch write: %v", err)
	}
	tbl := re.Table("users")
	if tbl == nil {
		t.Fatal("users table lost after torn-tail truncation")
	}
	seen := map[int64]bool{}
	for _, r := range tbl.Rows() {
		pk := r.Values[0].Int()
		if seen[pk] {
			t.Fatalf("pk %d recovered twice", pk)
		}
		seen[pk] = true
	}
	if !seen[100] {
		t.Fatal("acked baseline row lost")
	}
	// Batch rows recovered, if any, must form a prefix of append order:
	// replay stops at the torn frame, so row i present ⇒ rows 1..i-1
	// present.
	got := 0
	for i := int64(1); i <= k; i++ {
		if seen[i] {
			if int64(got)+1 != i {
				t.Fatalf("batch rows are not a clean prefix: pk %d present but pk %d missing", i, got+1)
			}
			got++
		}
	}
	if got == k {
		t.Fatalf("all %d unacked batch rows recovered from a torn write; expected a strict prefix", k)
	}

	// The truncated log must accept and persist new appends.
	if _, err := re.InsertRows("users", []types.Row{{types.NewInt(200), types.NewString("after"), types.Null}}, nil); err != nil {
		t.Fatalf("insert after truncation: %v", err)
	}
	if err := re.Commit(); err != nil {
		t.Fatalf("flush after truncation: %v", err)
	}
	if err := re.Close(); err != nil {
		t.Fatalf("close after truncation: %v", err)
	}
	re2, err := OpenWith("db", Options{Sync: SyncCommit, FS: mem})
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer re2.Close()
	found := false
	for _, r := range re2.Table("users").Rows() {
		if r.Values[0].Int() == 200 {
			found = true
		}
	}
	if !found {
		t.Fatal("post-truncation append did not survive reopen")
	}
}

// TestIntervalFlusherOwnsFsyncs: under SyncInterval every fsync comes
// from the flusher's ticker — statement-boundary Flush calls only push
// to the OS cache and mark the log dirty. A burst of commits therefore
// costs at most one fsync per elapsed window (no double-fsync race
// between an interval timer and a statement boundary), and a clean
// (non-dirty) window costs none.
func TestIntervalFlusherOwnsFsyncs(t *testing.T) {
	const window = 20 * time.Millisecond
	mem := fault.NewMemFS()
	s, err := OpenWith("db", Options{Sync: SyncInterval, SyncEvery: window, FS: mem})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	if err := s.CreateTable(userSchema()); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	const commits = 40
	t0 := time.Now()
	for i := 0; i < commits; i++ {
		if _, err := s.InsertRows("users", []types.Row{{types.NewInt(int64(i)), types.NewString("x"), types.Null}}, nil); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Let the dirty log drain: at least one full window.
	time.Sleep(3 * window)
	elapsed := time.Since(t0)
	fsyncs := s.reg.Counter("wal.fsyncs").Value()
	// Upper bound: one fsync per elapsed window plus slack for ticker
	// skew. Even on a slow CI machine this is far below one per commit.
	maxFsyncs := int64(elapsed/window) + 2
	if fsyncs < 1 {
		t.Fatal("dirty log never fsynced by the interval flusher")
	}
	if fsyncs > maxFsyncs {
		t.Fatalf("%d fsyncs in %v (%d windows): interval flusher double-fsyncing", fsyncs, elapsed, elapsed/window)
	}
	if fsyncs >= commits {
		t.Fatalf("%d fsyncs for %d commits: interval mode not amortizing", fsyncs, commits)
	}

	// Idle (non-dirty) windows must not fsync at all.
	base := s.reg.Counter("wal.fsyncs").Value()
	time.Sleep(5 * window)
	if got := s.reg.Counter("wal.fsyncs").Value(); got != base {
		t.Fatalf("idle store fsynced %d times; clean windows must be free", got-base)
	}
}

// TestGroupCommitCommitCountedBeforeAck: the flusher counts a batch
// before it releases the batch's tickets, so a committer that reads
// wal.commits right after its ack finds its own commit counted. When the
// count came after the release, an ack could be read uncounted, and the
// late increment landed in the next reader's window.
func TestGroupCommitCommitCountedBeforeAck(t *testing.T) {
	s := openGroupStore(t, fault.NewMemFS())
	defer s.Close()
	commits := s.reg.Counter("wal.commits")
	for i := 0; i < 2000; i++ {
		before := commits.Value()
		if _, err := s.InsertRows("users", []types.Row{{types.NewInt(int64(1000 + i)), types.NewString("c"), types.Null}}, nil); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if err := s.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		if got := commits.Value() - before; got != 1 {
			t.Fatalf("commit %d: wal.commits advanced by %d right after the ack, want 1", i, got)
		}
	}
}

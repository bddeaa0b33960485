package storage

import (
	"errors"
	"fmt"
	"syscall"
	"testing"

	"ediflow/internal/fault"
	"ediflow/internal/types"
)

// The crash-point matrix: a fixed workload runs against an injection
// filesystem that crashes at the i-th mutating filesystem operation, for
// every i. After each crash the filesystem is power-cycled (un-fsynced
// state discarded) and the store reopened; recovery must reproduce
// exactly the acknowledged state — every acknowledged commit present
// exactly once, no unacknowledged commit visible. Under SyncCommit an
// acknowledgment means Flush returned nil, i.e. the record was fsynced.
//
// wlState is the expected logical store state after one workload op.
type wlState struct {
	hasTable bool
	hasIndex bool
	metas    int
	rows     map[int64]string // pk → name
}

func (s wlState) clone() wlState {
	rows := make(map[int64]string, len(s.rows))
	for k, v := range s.rows {
		rows[k] = v
	}
	s.rows = rows
	return s
}

func (s wlState) equal(o wlState) bool {
	if s.hasTable != o.hasTable || s.hasIndex != o.hasIndex || s.metas != o.metas || len(s.rows) != len(o.rows) {
		return false
	}
	for k, v := range s.rows {
		if o.rows[k] != v {
			return false
		}
	}
	return true
}

// wlResult is one workload run: the expected state after each attempted
// op (history[0] is the empty initial state) and the index of the last
// acknowledged op. err is the first injected failure, nil on a clean run.
type wlResult struct {
	history []wlState
	acked   int
	err     error
}

// crashWorkload drives a deterministic mutation sequence through a
// SyncCommit store on fs, covering WAL append, group fsync, and two full
// checkpoints. It stops at the first error (the injected crash).
func crashWorkload(fs fault.FS) wlResult {
	res := wlResult{history: []wlState{{rows: map[int64]string{}}}}
	cur := func() wlState { return res.history[len(res.history)-1] }
	// step attempts one logical op leading to state next; ack on success.
	step := func(next wlState, do func() error) bool {
		err := do()
		res.history = append(res.history, next)
		if err != nil {
			res.err = err
			return false
		}
		res.acked = len(res.history) - 1
		return true
	}
	// same: an op that does not change logical state (checkpoint, close).
	same := func(do func() error) bool { return step(cur().clone(), do) }

	s, err := OpenWith("db", Options{Sync: SyncCommit, FS: fs})
	if err != nil {
		res.err = err
		return res
	}
	// Crashed runs bail out mid-workload; close anyway so the flusher
	// goroutine exits. Post-crash fs ops return ErrCrashed without
	// advancing the injector's step counter, so the deterministic op
	// trace is unchanged (Close is a no-op second time on clean runs).
	defer s.Close()
	flushed := func(err error) error {
		if err != nil {
			return err
		}
		return s.Commit()
	}

	next := cur().clone()
	next.hasTable = true
	if !step(next, func() error { return flushed(s.CreateTable(userSchema())) }) {
		return res
	}
	pkToTid := map[int64]int64{}
	for pk := int64(1); pk <= 5; pk++ {
		pk := pk
		next := cur().clone()
		next.rows[pk] = fmt.Sprintf("u%d", pk)
		if !step(next, func() error {
			tids, err := s.InsertRows("users", []types.Row{{types.NewInt(pk), types.NewString(fmt.Sprintf("u%d", pk)), types.Null}}, nil)
			if err == nil {
				pkToTid[pk] = tids[0]
			}
			return flushed(err)
		}) {
			return res
		}
	}
	next = cur().clone()
	next.rows[3] = "updated"
	if !step(next, func() error {
		_, err := s.UpdateRows("users", []int64{pkToTid[3]}, []types.Row{{types.NewInt(3), types.NewString("updated"), types.Null}}, nil)
		return flushed(err)
	}) {
		return res
	}
	next = cur().clone()
	delete(next.rows, 1)
	if !step(next, func() error {
		_, err := s.DeleteRows("users", []int64{pkToTid[1]})
		return flushed(err)
	}) {
		return res
	}
	next = cur().clone()
	next.metas = 1
	if !step(next, func() error { return flushed(s.PutMeta("view", "v1", "CREATE VIEW v1 AS SELECT id FROM users")) }) {
		return res
	}
	if !same(s.Checkpoint) {
		return res
	}
	for pk := int64(6); pk <= 7; pk++ {
		pk := pk
		next := cur().clone()
		next.rows[pk] = fmt.Sprintf("u%d", pk)
		if !step(next, func() error {
			tids, err := s.InsertRows("users", []types.Row{{types.NewInt(pk), types.NewString(fmt.Sprintf("u%d", pk)), types.Null}}, nil)
			if err == nil {
				pkToTid[pk] = tids[0]
			}
			return flushed(err)
		}) {
			return res
		}
	}
	next = cur().clone()
	next.hasIndex = true
	if !step(next, func() error { return flushed(s.AddIndex("by_name", "users", []string{"name"}, false)) }) {
		return res
	}
	if !same(s.Checkpoint) {
		return res
	}
	next = cur().clone()
	next.rows[8] = "u8"
	if !step(next, func() error {
		_, err := s.InsertRows("users", []types.Row{{types.NewInt(8), types.NewString("u8"), types.Null}}, nil)
		return flushed(err)
	}) {
		return res
	}
	// A multi-row set: one frame, torn or whole.
	next = cur().clone()
	var set []types.Row
	for pk := int64(9); pk <= 11; pk++ {
		next.rows[pk] = fmt.Sprintf("u%d", pk)
		set = append(set, types.Row{types.NewInt(pk), types.NewString(fmt.Sprintf("u%d", pk)), types.Null})
	}
	if !step(next, func() error {
		_, err := s.InsertRows("users", set, nil)
		return flushed(err)
	}) {
		return res
	}
	same(s.Close)
	return res
}

// recoveredState reopens the store on fs (no injection) and extracts the
// logical state, failing the test on duplicated tuples.
func recoveredState(t *testing.T, fs fault.FS, crashPoint int) wlState {
	t.Helper()
	s, err := OpenWith("db", Options{Sync: SyncCommit, FS: fs})
	if err != nil {
		t.Fatalf("crash point %d: reopen after crash failed: %v", crashPoint, err)
	}
	defer s.Close()
	st := wlState{rows: map[int64]string{}}
	tbl := s.Table("users")
	if tbl == nil {
		return st
	}
	st.hasTable = true
	st.metas = len(s.Metas())
	for _, r := range tbl.Rows() {
		pk := r.Values[0].Int()
		if _, dup := st.rows[pk]; dup {
			t.Fatalf("crash point %d: pk %d recovered twice", crashPoint, pk)
		}
		st.rows[pk] = r.Values[1].Str()
	}
	st.hasIndex = namedIndex(tbl, "by_name") != nil
	return st
}

func TestCrashPointMatrixPowerLoss(t *testing.T) {
	// Count run: no crash armed, learn the total number of mutating
	// filesystem operations and check the matrix covers every class of
	// injection point in the append → fsync → checkpoint pipeline.
	count := fault.NewInject(fault.NewMemFS())
	if res := crashWorkload(count); res.err != nil {
		t.Fatalf("clean run failed: %v", res.err)
	}
	total := count.Steps()
	if total < 30 {
		t.Fatalf("workload too small for a meaningful matrix: %d fs ops", total)
	}
	seen := map[fault.Op]int{}
	for _, p := range count.Trace() {
		seen[p.Op]++
	}
	for _, op := range []fault.Op{
		fault.OpMkdir, fault.OpOpenFile, fault.OpCreate, fault.OpWrite,
		fault.OpSync, fault.OpClose, fault.OpRename, fault.OpSyncDir,
	} {
		if seen[op] == 0 {
			t.Fatalf("workload never exercises injection point %q; matrix coverage incomplete", op)
		}
	}
	t.Logf("matrix: %d crash points, per op: %v", total, seen)

	for i := 1; i <= total; i++ {
		mem := fault.NewMemFS()
		inj := fault.NewInject(mem)
		inj.CrashAfter(i)
		res := crashWorkload(inj)
		if res.err == nil {
			t.Fatalf("crash point %d/%d did not fire", i, total)
		}
		if !errors.Is(res.err, fault.ErrCrashed) {
			t.Fatalf("crash point %d: workload failed with %v, want ErrCrashed", i, res.err)
		}
		mem.PowerCycle()
		got := recoveredState(t, mem, i)
		want := res.history[res.acked]
		if !got.equal(want) {
			t.Errorf("crash point %d/%d (%s): recovered state %+v, want acknowledged state %+v",
				i, total, inj.Trace()[i-1], got, want)
		}
	}
}

func TestCrashPointMatrixProcessCrashTornWrites(t *testing.T) {
	// Process-crash variant: the page cache survives (no PowerCycle), and
	// the crashing write lands a torn prefix. Recovery must land on a
	// consistent prefix of the workload no older than the last
	// acknowledged op — acknowledged commits are never lost, and a torn
	// tail never corrupts recovery or hides later appends.
	count := fault.NewInject(fault.NewMemFS())
	crashWorkload(count)
	total := count.Steps()

	for i := 1; i <= total; i++ {
		mem := fault.NewMemFS()
		inj := fault.NewInject(mem)
		inj.ShortWrites(true)
		inj.CrashAfter(i)
		res := crashWorkload(inj)
		if res.err == nil {
			t.Fatalf("crash point %d/%d did not fire", i, total)
		}
		got := recoveredState(t, mem, i)
		ok := false
		for j := res.acked; j < len(res.history); j++ {
			if got.equal(res.history[j]) {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("crash point %d/%d (%s): recovered state %+v matches no prefix ≥ acked (%+v)",
				i, total, inj.Trace()[i-1], got, res.history[res.acked])
		}
	}
}

func TestCheckpointENOSPCLeavesStoreUsable(t *testing.T) {
	mem := fault.NewMemFS()
	inj := fault.NewInject(mem)
	s, err := OpenWith("db", Options{Sync: SyncCommit, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	s.CreateTable(userSchema())
	s.InsertRows("users", []types.Row{{types.NewInt(1), types.NewString("a"), types.Null}}, nil)
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	inj.FailNext(fault.OpWrite, "snapshot", syscall.ENOSPC)
	if err := s.Checkpoint(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("checkpoint under ENOSPC: %v", err)
	}
	if mem.Exists("db/" + snapshotFile + ".tmp") {
		t.Fatal("failed checkpoint leaked its temp snapshot")
	}
	// The store keeps running on its existing WAL...
	if _, err := s.InsertRows("users", []types.Row{{types.NewInt(2), types.NewString("b"), types.Null}}, nil); err != nil {
		t.Fatalf("insert after failed checkpoint: %v", err)
	}
	if err := s.Commit(); err != nil {
		t.Fatalf("flush after failed checkpoint: %v", err)
	}
	// ...and the next checkpoint, with space back, succeeds.
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after ENOSPC cleared: %v", err)
	}
	s.Close()

	s2, err := OpenWith("db", Options{Sync: SyncCommit, FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Table("users").Len() != 2 {
		t.Fatalf("rows after recovery: %d", s2.Table("users").Len())
	}
	if s2.Epoch() != 1 {
		t.Fatalf("epoch: %d, want 1 (one successful checkpoint)", s2.Epoch())
	}
}

func TestWALWriteErrorSurfacesAndIsNotAcked(t *testing.T) {
	mem := fault.NewMemFS()
	inj := fault.NewInject(mem)
	s, err := OpenWith("db", Options{Sync: SyncCommit, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	s.CreateTable(userSchema())
	s.InsertRows("users", []types.Row{{types.NewInt(1), types.NewString("a"), types.Null}}, nil)
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	inj.FailNext(fault.OpWrite, "wal", syscall.EIO)
	s.InsertRows("users", []types.Row{{types.NewInt(2), types.NewString("b"), types.Null}}, nil)
	if err := s.Commit(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("flush under EIO: %v", err)
	}
	// The failed statement was never acknowledged; after a restart it
	// must be invisible while the acknowledged one is intact.
	s2, err := OpenWith("db", Options{Sync: SyncCommit, FS: mem})
	if err != nil {
		t.Fatalf("reopen after WAL I/O error: %v", err)
	}
	defer s2.Close()
	tbl := s2.Table("users")
	if tbl.Len() != 1 {
		t.Fatalf("rows after recovery: %d, want 1", tbl.Len())
	}
	if _, ok := pkTID(tbl, types.NewInt(1), SeqLatest); !ok {
		t.Fatal("acknowledged row lost")
	}
}

func TestEpochSkipsStaleWAL(t *testing.T) {
	// Crash exactly between snapshot installation (rename + dir fsync)
	// and WAL truncation: the old WAL survives next to the new snapshot.
	// Its stale epoch must keep replay from double-applying its records.
	mem := fault.NewMemFS()
	count := fault.NewInject(mem)
	s, err := OpenWith("db", Options{Sync: SyncCommit, FS: count})
	if err != nil {
		t.Fatal(err)
	}
	s.CreateTable(userSchema())
	s.InsertRows("users", []types.Row{{types.NewInt(1), types.NewString("a"), types.Null}}, nil)
	s.Commit()
	before := count.Steps()
	// Find the SyncDir inside Checkpoint and crash right after it.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var syncDirStep int
	for _, p := range count.Trace()[before:] {
		if p.Op == fault.OpSyncDir {
			syncDirStep = p.N
			break
		}
	}
	if syncDirStep == 0 {
		t.Fatal("no SyncDir inside Checkpoint")
	}

	mem2 := fault.NewMemFS()
	inj := fault.NewInject(mem2)
	inj.CrashAfter(syncDirStep + 1)
	s2, err := OpenWith("db", Options{Sync: SyncCommit, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	s2.CreateTable(userSchema())
	s2.InsertRows("users", []types.Row{{types.NewInt(1), types.NewString("a"), types.Null}}, nil)
	s2.Commit()
	if err := s2.Checkpoint(); !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("checkpoint should crash after SyncDir: %v", err)
	}
	mem2.PowerCycle()
	s3, err := OpenWith("db", Options{Sync: SyncCommit, FS: mem2})
	if err != nil {
		t.Fatalf("reopen with new snapshot + stale WAL: %v", err)
	}
	defer s3.Close()
	if got := s3.Table("users").Len(); got != 1 {
		t.Fatalf("stale-epoch WAL double-applied: %d rows, want 1", got)
	}
	if s3.Epoch() != 1 {
		t.Fatalf("epoch after recovered checkpoint: %d, want 1", s3.Epoch())
	}
}

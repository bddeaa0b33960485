package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ediflow/internal/catalog"
	"ediflow/internal/fault"
	"ediflow/internal/metrics"
	"ediflow/internal/types"
)

// SyncMode selects how aggressively the WAL is forced to stable storage.
type SyncMode int

const (
	// SyncOSCache flushes WAL records to the OS page cache at statement
	// boundaries but never fsyncs until checkpoint/close. Acknowledged
	// commits survive a process crash (the kernel holds the data) but can
	// be lost to a machine crash or power failure. This is the historical
	// default, kept for benchmarks and tests.
	SyncOSCache SyncMode = iota
	// SyncCommit fsyncs the WAL at every statement/commit boundary: an
	// acknowledged commit is on stable storage before control returns.
	SyncCommit
	// SyncInterval group-commits: flushes reach the OS at every boundary,
	// and an fsync runs at most once per SyncEvery window. Bounded loss
	// (≤ one window) at a fraction of SyncCommit's cost.
	SyncInterval
)

func (m SyncMode) String() string {
	switch m {
	case SyncCommit:
		return "commit"
	case SyncInterval:
		return "interval"
	default:
		return "none"
	}
}

// ParseSyncMode maps a flag string ("none", "commit", "interval") to a
// SyncMode; unknown values fall back to SyncOSCache.
func ParseSyncMode(s string) SyncMode {
	switch strings.ToLower(s) {
	case "commit", "fsync", "full":
		return SyncCommit
	case "interval", "group":
		return SyncInterval
	default:
		return SyncOSCache
	}
}

// Options configures durability behavior for OpenWith.
type Options struct {
	Sync      SyncMode
	SyncEvery time.Duration // SyncInterval window; defaults to 100ms
	// FS is the filesystem all store I/O goes through. nil means the
	// real OS; tests substitute fault-injecting implementations.
	FS fault.FS
}

const defaultSyncEvery = 100 * time.Millisecond

// MetaEntry is a piece of DDL (view or trigger definition) that the
// database layer re-registers when re-opening a store.
type MetaEntry struct {
	Kind string // "view" or "trigger"
	Name string
	Text string // the original DDL statement
}

// Store is the physical database: a set of tables plus durability. A Store
// with an empty directory is purely in-memory (used by most tests); with a
// directory it persists through a snapshot file and a WAL. Rows are
// written as sets, one record each: InsertRows, InsertRowsAt, UpdateRows
// and DeleteRows (Insert, a set of one that returns its tid twice, is
// kept for the benchmark's commit probe); Commit is the durability
// boundary after them.
type Store struct {
	dir     string
	durable bool
	opts    Options
	fs      fault.FS
	wal     *walWriter
	// epoch ties the installed snapshot and the live WAL together: both
	// carry it, Checkpoint bumps it, and replay ignores a WAL whose
	// epoch predates the snapshot's (a leftover from a crash inside
	// checkpoint whose records the snapshot already contains).
	epoch uint64

	// tablesMu guards the tables map itself (lookups vs DDL): lock-free
	// snapshot readers resolve tables without the engine lock. Table
	// contents have their own MVCC synchronization.
	tablesMu sync.RWMutex
	tables   map[string]*Table // lower-cased name → table
	metas    []MetaEntry

	// nextTID is the next tuple id, which is also the tuple's creation
	// stamp (§VI-A): it never goes back, and no tid is drawn twice.
	nextTID atomic.Int64

	// MVCC clock and visibility ceiling. Every version stamp comes from
	// mvccNext (shared by all tables, see NewTable); mvccVisible is
	// the published snapshot ceiling readers capture — the engine raises
	// it at statement/transaction boundaries, so a snapshot never
	// observes half of a statement or an open transaction. vacuumFloor
	// rises with Vacuum: AS OF queries below it are refused.
	mvccNext    atomic.Int64
	mvccVisible atomic.Int64
	vacuumFloor atomic.Int64

	// Active-snapshot registry: seq → reader refcount. Vacuum reclaims
	// only versions invisible to every registered snapshot.
	snapMu   sync.Mutex
	snapRefs map[int64]int

	mvccVacuumed *metrics.Counter

	// Observability. The registry is created here (the store opens before
	// the engine) and adopted upward by engine/database/server so the
	// whole process shares one metric namespace.
	reg        *metrics.Registry
	walAppends *metrics.Counter
	walBytes   *metrics.Counter
	walFlushes *metrics.Counter
	walFsyncs  *metrics.Counter
	walFlushH  *metrics.Histogram
	walFsyncH  *metrics.Histogram

	// Group-commit pipeline (see Store.Commit and flusherLoop). commitMu
	// guards the ticket queue, the SyncInterval dirty flag, and the
	// flusher liveness bit; cycleMu serializes whole flush cycles (buffer
	// flush + fsync) against Checkpoint's WAL swap, so the flusher can
	// never fsync a file the checkpoint just closed.
	commitMu  sync.Mutex
	commitQ   []chan error
	walDirty  bool // SyncInterval: un-fsynced records reached the OS cache
	flusherOn bool
	flushKick chan struct{}
	flushStop chan struct{}
	flushDone chan struct{}
	cycleMu   sync.Mutex

	walGroupCommits *metrics.Counter   // batches fsynced with ≥1 ticket
	walCommits      *metrics.Counter   // tickets acked through the pipeline
	walGroupSizeH   *metrics.Histogram // batch size, encoded as n µs

	// repl captures logged records for WAL-shipping replication (see
	// replfeed.go). Disabled until EnableReplFeed.
	repl replFeed
}

const (
	snapshotFile  = "ediflow.snapshot"
	walFile       = "ediflow.wal"
	snapshotMagic = "EDSNAP3\n" // v3: a row is its tid and values, the header one counter
)

// Open opens (or creates) a store with the historical durability default
// (SyncOSCache). dir == "" yields an in-memory store.
func Open(dir string) (*Store, error) {
	return OpenWith(dir, Options{})
}

// OpenWith opens (or creates) a store with explicit durability options.
func OpenWith(dir string, opts Options) (*Store, error) {
	if opts.Sync == SyncInterval && opts.SyncEvery <= 0 {
		opts.SyncEvery = defaultSyncEvery
	}
	if opts.FS == nil {
		opts.FS = fault.OS{}
	}
	s := &Store{
		dir:      dir,
		durable:  dir != "",
		opts:     opts,
		fs:       opts.FS,
		tables:   map[string]*Table{},
		snapRefs: map[int64]int{},
		reg:      metrics.NewRegistry(),
	}
	s.walAppends = s.reg.Counter("wal.appends")
	s.walBytes = s.reg.Counter("wal.bytes")
	s.walFlushes = s.reg.Counter("wal.flushes")
	s.walFsyncs = s.reg.Counter("wal.fsyncs")
	s.walFlushH = s.reg.Histogram("wal.flush_latency")
	s.walFsyncH = s.reg.Histogram("wal.fsync_latency")
	s.walGroupCommits = s.reg.Counter("wal.group_commits")
	s.walCommits = s.reg.Counter("wal.commits")
	s.walGroupSizeH = s.reg.Histogram("wal.group_commit_size")
	s.mvccVacuumed = s.reg.Counter("mvcc.vacuumed")
	s.reg.RegisterGauge("mvcc.versions", s.versionCount)
	s.reg.RegisterGauge("mvcc.snapshot_seq", s.SnapshotSeq)
	s.reg.RegisterGauge("mvcc.snapshot_age", func() int64 {
		return s.SnapshotSeq() - s.OldestSnapshot()
	})
	s.nextTID.Store(1)
	if !s.durable {
		return s, nil
	}
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := s.loadSnapshot(filepath.Join(dir, snapshotFile)); err != nil {
		return nil, err
	}
	walPath := filepath.Join(dir, walFile)
	// Replay is the replica's step too: decode a payload, apply the record.
	info, err := replayWAL(s.fs, walPath, s.epoch, func(payload []byte) error {
		_, err := s.ApplyReplRecord(payload)
		return err
	})
	if err != nil {
		return nil, err
	}
	var w *walWriter
	switch {
	case info.replayed && info.torn:
		// Cut the torn tail off before appending: records written after
		// garbage would be unreachable on the next replay (it stops at
		// the first bad frame), silently losing acknowledged commits.
		if err := s.fs.Truncate(walPath, info.goodLen); err != nil {
			return nil, err
		}
		if w, err = openWALAppend(s.fs, walPath); err == nil {
			err = w.fsync() // make the truncation itself durable
		}
	case info.replayed:
		w, err = openWALAppend(s.fs, walPath)
	default:
		// Absent, unrecognized, or stale-epoch log: start a fresh one
		// stamped with the snapshot's epoch.
		w, err = createWAL(s.fs, dir, walPath, s.epoch)
	}
	if err != nil {
		return nil, err
	}
	s.wal = w
	// Replay stamped fresh versions; make them all visible before any
	// reader captures a snapshot.
	s.PublishSnapshot()
	s.startFlusher()
	return s, nil
}

// ----------------------------------------------------- MVCC snapshots

// PublishSnapshot raises the visibility ceiling to the newest allocated
// version stamp. The engine calls it at statement and transaction
// boundaries (never mid-transaction), which is what makes snapshots
// statement- and transaction-atomic.
func (s *Store) PublishSnapshot() {
	s.mvccVisible.Store(s.mvccNext.Load())
}

// SnapshotSeq returns the published visibility ceiling.
func (s *Store) SnapshotSeq() int64 { return s.mvccVisible.Load() }

// AcquireSnapshot registers a reader at the current ceiling and returns
// its snapshot seq. Pair with ReleaseSnapshot.
func (s *Store) AcquireSnapshot() int64 {
	s.snapMu.Lock()
	seq := s.mvccVisible.Load()
	s.snapRefs[seq]++
	s.snapMu.Unlock()
	return seq
}

// ErrSnapshotTooOld is returned for an AS OF seq below the vacuum floor:
// versions that old may already be reclaimed.
var ErrSnapshotTooOld = fmt.Errorf("storage: snapshot too old (below vacuum floor)")

// AcquireSnapshotAt registers a reader at an explicit seq (the AS OF
// hook). Seqs above the published ceiling clamp to it; seqs below the
// vacuum floor are refused. Pair with ReleaseSnapshot on the returned
// seq.
func (s *Store) AcquireSnapshotAt(seq int64) (int64, error) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if vis := s.mvccVisible.Load(); seq > vis {
		seq = vis
	}
	if seq < s.vacuumFloor.Load() {
		return 0, ErrSnapshotTooOld
	}
	s.snapRefs[seq]++
	return seq, nil
}

// ReleaseSnapshot deregisters a reader acquired at seq.
func (s *Store) ReleaseSnapshot(seq int64) {
	s.snapMu.Lock()
	if n := s.snapRefs[seq]; n <= 1 {
		delete(s.snapRefs, seq)
	} else {
		s.snapRefs[seq] = n - 1
	}
	s.snapMu.Unlock()
}

// OldestSnapshot returns the oldest registered reader seq, or the
// published ceiling when no reader is active — the vacuum horizon.
func (s *Store) OldestSnapshot() int64 {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	oldest := s.mvccVisible.Load()
	for seq := range s.snapRefs {
		if seq < oldest {
			oldest = seq
		}
	}
	return oldest
}

// Vacuum reclaims versions invisible to every active snapshot (R∆
// garbage collection). Callers must exclude writers — the engine runs it
// from Checkpoint under its write lock. Returns the reclaimed version
// count (also accumulated in the mvcc.vacuumed counter).
func (s *Store) Vacuum() int64 {
	floor := s.OldestSnapshot()
	if floor > s.vacuumFloor.Load() {
		s.vacuumFloor.Store(floor)
	}
	var reclaimed int64
	s.tablesMu.RLock()
	tabs := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		tabs = append(tabs, t)
	}
	s.tablesMu.RUnlock()
	for _, t := range tabs {
		reclaimed += t.Vacuum(floor)
	}
	if reclaimed > 0 {
		s.mvccVacuumed.Add(reclaimed)
	}
	return reclaimed
}

// VacuumFloor returns the oldest seq AS OF queries may still read.
func (s *Store) VacuumFloor() int64 { return s.vacuumFloor.Load() }

func (s *Store) versionCount() int64 {
	s.tablesMu.RLock()
	defer s.tablesMu.RUnlock()
	var n int64
	for _, t := range s.tables {
		n += t.VersionCount()
	}
	return n
}

// Epoch returns the current checkpoint epoch (0 before any checkpoint).
func (s *Store) Epoch() uint64 { return s.epoch }

// Metrics returns the store-owned metrics registry, shared upward by the
// engine, server and notifier.
func (s *Store) Metrics() *metrics.Registry { return s.reg }

// SyncPolicy reports the durability mode the store was opened with.
func (s *Store) SyncPolicy() SyncMode { return s.opts.Sync }

// errClosed surfaces a Commit that raced Close: the statement may be
// durable (close flushes and fsyncs the WAL), but with the writer gone
// that cannot be confirmed, and a commit must never be acknowledged on
// a maybe.
var errClosed = fmt.Errorf("storage: store is closed")

// Close stops the flusher (draining any queued commit tickets), then
// flushes and closes the WAL. Safe to call twice. cycleMu covers the
// close and the nil assignment: Commit runs outside the engine write
// lock now, so a late committer can reach syncNow concurrently — it
// serializes on cycleMu and finds s.wal nil (an errClosed failure)
// instead of flushing a closing file or panicking on the nil writer.
func (s *Store) Close() error {
	s.stopFlusher()
	s.cycleMu.Lock()
	defer s.cycleMu.Unlock()
	if s.wal != nil {
		err := s.wal.close()
		s.wal = nil
		return err
	}
	return nil
}

// Durable reports whether the store persists to disk.
func (s *Store) Durable() bool { return s.durable }

// log records one applied mutation: its encoding goes into the
// replication feed (when enabled; the feed filters per-node-local tables
// by the record's table) and the WAL (when durable). A record nothing
// reads — an in-memory store without a feed — is not encoded at all.
func (s *Store) log(r *Record) error {
	if s.wal == nil && !s.repl.on.Load() {
		return nil
	}
	payload := r.encode(nil)
	s.replCapture(r.Table, payload)
	if s.wal == nil {
		return nil
	}
	n, err := s.wal.append(payload)
	if err != nil {
		return err
	}
	s.walAppends.Inc()
	s.walBytes.Add(int64(n))
	return nil
}

// Commit is the engine's statement/commit durability boundary: it makes
// every WAL record appended so far as durable as the SyncMode promises,
// and only then returns so the caller may acknowledge the client and
// release change events.
//
// SyncCommit routes through the group-commit pipeline: the caller
// enqueues a ticket and blocks while the dedicated flusher goroutine
// drains every queued ticket with ONE buffer flush + ONE fsync, then
// releases the whole batch. Concurrent committers share the fsync
// (wal.fsyncs/wal.commits « 1 under load) while a lone committer keeps
// the old latency — the flusher runs as soon as it is kicked. Commit
// order equals WAL append order: a ticket is released only after a batch
// whose records form a prefix of the log reached stable storage, so
// power-loss recovery is never missing an acknowledged commit.
//
// SyncInterval pushes records to the OS cache and marks the log dirty;
// the flusher's ticker performs the only fsyncs, so the interval timer
// cannot race a statement-boundary flush into a double fsync and
// wal.fsyncs counts exactly one per elapsed dirty window.
//
// SyncOSCache keeps the historical behavior: flush to the OS page cache,
// durability deferred to checkpoint/close.
func (s *Store) Commit() error {
	// durable (immutable after open) rather than s.wal: Commit runs
	// outside the engine lock, so reading the wal pointer here would race
	// Close nil'ing it. The cycleMu-guarded paths below re-check it.
	if !s.durable {
		return nil
	}
	switch s.opts.Sync {
	case SyncCommit:
		if done := s.enqueueCommit(); done != nil {
			return <-done
		}
		// Flusher not running (open/close edge): fsync inline.
		return s.syncNow()
	case SyncInterval:
		if err := s.flushOS(); err != nil {
			return err
		}
		s.commitMu.Lock()
		s.walDirty = true
		s.commitMu.Unlock()
		return nil
	default:
		return s.flushOS()
	}
}

// enqueueCommit adds a ticket to the flusher's queue and returns the
// channel the shared fsync outcome arrives on, or nil when the flusher
// is not running.
func (s *Store) enqueueCommit() chan error {
	s.commitMu.Lock()
	if !s.flusherOn {
		s.commitMu.Unlock()
		return nil
	}
	done := make(chan error, 1)
	s.commitQ = append(s.commitQ, done)
	s.commitMu.Unlock()
	select {
	case s.flushKick <- struct{}{}:
	default: // a kick is already pending; the next cycle will see us
	}
	return done
}

func (s *Store) startFlusher() {
	if s.wal == nil || (s.opts.Sync != SyncCommit && s.opts.Sync != SyncInterval) {
		return
	}
	s.flushKick = make(chan struct{}, 1)
	s.flushStop = make(chan struct{})
	s.flushDone = make(chan struct{})
	s.flusherOn = true
	go s.flusherLoop()
}

// stopFlusher shuts the flusher down after one final drain cycle, so
// every ticket enqueued before the stop is released (acked or failed)
// before Close proceeds to close the WAL.
func (s *Store) stopFlusher() {
	s.commitMu.Lock()
	on := s.flusherOn
	s.flusherOn = false
	s.commitMu.Unlock()
	if !on {
		return
	}
	close(s.flushStop)
	<-s.flushDone
}

func (s *Store) flusherLoop() {
	defer close(s.flushDone)
	var tickC <-chan time.Time
	if s.opts.Sync == SyncInterval {
		tick := time.NewTicker(s.opts.SyncEvery)
		defer tick.Stop()
		tickC = tick.C
	}
	for {
		select {
		case <-s.flushKick:
			s.flushCycle()
		case <-tickC:
			s.flushCycle()
		case <-s.flushStop:
			s.flushCycle() // final drain: release whatever is queued
			return
		}
	}
}

// flushCycle drains the commit queue: one buffer flush + one fsync cover
// every queued ticket, which are then released in append (FIFO) order
// with the shared outcome. Runs only on the flusher goroutine; cycleMu
// excludes Checkpoint's WAL swap for the duration of the cycle.
func (s *Store) flushCycle() {
	s.cycleMu.Lock()
	defer s.cycleMu.Unlock()
	s.commitMu.Lock()
	batch := s.commitQ
	s.commitQ = nil
	dirty := s.walDirty
	s.walDirty = false
	s.commitMu.Unlock()
	if len(batch) == 0 && !dirty {
		return
	}
	// Batch formation: committers released by the previous cycle are
	// usually mid-apply when the next kick arrives, so an eager grab
	// would fsync for the one or two fastest and strand the rest in yet
	// another fsync. Yielding the processor a few times lets runnable
	// committers finish their append and join this batch — worth tens of
	// microseconds against a ~100µs+ fsync, and a lone committer (its
	// kick, empty queue behind it) pays only the yields.
	for i := 0; i < 8; i++ {
		runtime.Gosched()
	}
	s.commitMu.Lock()
	batch = append(batch, s.commitQ...)
	s.commitQ = nil
	s.commitMu.Unlock()
	err := s.flushOSLocked()
	if err == nil {
		err = s.fsyncLocked()
	}
	// Count the batch before releasing it: a committer that reads the
	// counters right after its ack must find its own commit counted.
	if err == nil && len(batch) > 0 {
		s.walGroupCommits.Inc()
		s.walCommits.Add(int64(len(batch)))
		if s.reg.Enabled() {
			// Batch size rides the µs-granularity histogram: a batch of
			// n commits is recorded as n µs, so the bucket bounds read
			// directly as sizes 1, 2, 4, … commits.
			s.walGroupSizeH.Observe(time.Duration(len(batch)) * time.Microsecond)
		}
	}
	for _, done := range batch {
		done <- err
	}
	if err != nil {
		// Interval mode has no ticket to carry the error; keep the log
		// marked dirty so the next tick retries (and close/checkpoint
		// surfaces a persistent failure loudly).
		s.commitMu.Lock()
		s.walDirty = true
		s.commitMu.Unlock()
	}
}

// syncNow is the inline fallback when the flusher is not running: flush
// and fsync on the caller's goroutine.
func (s *Store) syncNow() error {
	s.cycleMu.Lock()
	defer s.cycleMu.Unlock()
	if err := s.flushOSLocked(); err != nil {
		return err
	}
	return s.fsyncLocked()
}

// flushOS pushes buffered WAL records to the OS page cache. This alone
// is NOT durable against power loss; the SyncMode decides when fsync
// runs.
func (s *Store) flushOS() error {
	s.cycleMu.Lock()
	defer s.cycleMu.Unlock()
	return s.flushOSLocked()
}

func (s *Store) flushOSLocked() error {
	if s.wal == nil {
		return errClosed
	}
	timed := s.reg.Enabled()
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	if err := s.wal.flush(); err != nil {
		return err
	}
	s.walFlushes.Inc()
	if timed {
		s.walFlushH.Observe(time.Since(t0))
	}
	return nil
}

func (s *Store) fsyncLocked() error {
	if s.wal == nil {
		return errClosed
	}
	t0 := time.Now()
	if err := s.wal.fsync(); err != nil {
		return err
	}
	s.walFsyncs.Inc()
	if s.reg.Enabled() {
		s.walFsyncH.Observe(time.Since(t0))
	}
	return nil
}

func tkey(name string) string { return strings.ToLower(name) }

// CurrentStamp returns the most recently allocated tid: the newest
// creation stamp. A process instance starting now sees exactly the tuples
// with `_created <= CurrentStamp()` (§VI-A time-based isolation).
func (s *Store) CurrentStamp() int64 { return s.nextTID.Load() - 1 }

// bumpTID raises the tid counter past an explicitly supplied tid
// (replay / rollback re-insertion paths).
func (s *Store) bumpTID(tid int64) {
	for {
		cur := s.nextTID.Load()
		if tid < cur || s.nextTID.CompareAndSwap(cur, tid+1) {
			return
		}
	}
}

// apply carries out one record on tables — the store's own, or a set
// being built aside (ResetFromSnapshot). It is the only code that changes
// tables, index definitions and metas, whatever the record's source: a
// live operation (which then logs it), WAL replay, a shipped replication
// record or a snapshot section. It never validates: a record was valid
// when it was first carried out. old holds the rows an update or delete
// set replaced. Only the writer calls it, so it reads tables unlocked and
// locks only to change the map lock-free readers look tables up in.
func (s *Store) apply(tables map[string]*Table, r *Record) (old []types.Row, err error) {
	switch r.Op {
	case OpCreateTable:
		s.tablesMu.Lock()
		tables[tkey(r.Table)] = NewTable(r.Schema, &s.mvccNext)
		s.tablesMu.Unlock()
		return nil, nil
	case OpDropTable:
		s.tablesMu.Lock()
		delete(tables, tkey(r.Table))
		s.tablesMu.Unlock()
		return nil, nil
	case OpPutMeta, OpDelMeta:
		i := slices.IndexFunc(s.metas, func(m MetaEntry) bool {
			return m.Kind == r.Meta.Kind && strings.EqualFold(m.Name, r.Meta.Name)
		})
		switch {
		case i < 0 && r.Op == OpPutMeta:
			s.metas = append(s.metas, r.Meta)
		case i >= 0 && r.Op == OpPutMeta:
			s.metas[i].Text = r.Meta.Text
		case i >= 0:
			s.metas = slices.Delete(s.metas, i, i+1)
		}
		return nil, nil
	case OpCreateIndex:
		t := tables[tkey(r.Table)]
		if t == nil {
			return nil, fmt.Errorf("storage: no such table %q", r.Table)
		}
		return nil, t.AddIndex(r.Index.Name, r.Index.Cols, r.Index.Unique)
	case OpInsert, OpUpdate, OpDelete:
		old, _, err = s.applyRows(tables, r, false)
		return old, err
	}
	return nil, fmt.Errorf("storage: unknown record opcode %d", r.Op)
}

// applyRows carries out a row set on its table (Table.writeRows), trial
// or not, and returns the rows it replaced and how many rows it got
// through before an error.
func (s *Store) applyRows(tables map[string]*Table, r *Record, trial bool) (old []types.Row, done int, err error) {
	t := tables[tkey(r.Table)]
	if t == nil {
		return nil, 0, fmt.Errorf("storage: no such table %q", r.Table)
	}
	if r.Op != OpInsert {
		old = make([]types.Row, len(r.TIDs))
	}
	if done, err = t.writeRows(r.Op, r.TIDs, r.Rows, old, trial); err != nil || trial {
		return nil, done, err
	}
	if r.Op == OpInsert && done > 0 {
		s.bumpTID(slices.Max(r.TIDs))
	}
	return old, done, nil
}

// do is a live operation: apply the record, then log it.
func (s *Store) do(r *Record) error {
	if _, err := s.apply(s.tables, r); err != nil {
		return err
	}
	return s.log(r)
}

// write is a live row set: apply it under one table lock and log it as
// one record. stop, when not nil, is the error of a row after the set's
// last that its caller could not build: the set is applied as a trial to
// find any error its own rows meet first, and stop is returned if they
// meet none. A set that fails, or stops, logs nothing and leaves the
// table as its rows undone one at a time would (Table.takeBackLocked).
// done is how many rows it got through.
func (s *Store) write(r *Record, stop error) (old []types.Row, done int, err error) {
	if len(r.TIDs) == 0 {
		return nil, 0, stop
	}
	if old, done, err = s.applyRows(s.tables, r, stop != nil); err != nil {
		return nil, done, err
	}
	if stop != nil {
		return nil, done, stop
	}
	return old, done, s.log(r)
}

// CreateTable allocates storage for a new table and logs it. The store
// is the one registry of tables: a name it holds is taken, and a schema
// must pass its rules (TableSchema.Validate) before anything is logged.
func (s *Store) CreateTable(schema *catalog.TableSchema) error {
	if s.Table(schema.Name) != nil {
		return fmt.Errorf("storage: table %q already exists", schema.Name)
	}
	if err := schema.Validate(); err != nil {
		return err
	}
	return s.do(&Record{Op: OpCreateTable, Table: schema.Name, Schema: schema})
}

// DropTable removes a table (its indexes go with it) and logs it.
func (s *Store) DropTable(name string) error {
	if s.Table(name) == nil {
		return fmt.Errorf("storage: no such table %q", name)
	}
	return s.do(&Record{Op: OpDropTable, Table: name})
}

// Table returns the physical table, or nil.
func (s *Store) Table(name string) *Table {
	s.tablesMu.RLock()
	defer s.tablesMu.RUnlock()
	return s.tables[tkey(name)]
}

// TableNames lists stored tables (sorted).
func (s *Store) TableNames() []string {
	s.tablesMu.RLock()
	out := make([]string, 0, len(s.tables))
	for _, t := range s.tables {
		out = append(out, t.Schema.Name)
	}
	s.tablesMu.RUnlock()
	sort.Strings(out)
	return out
}

// InsertRows inserts rows into table as one set (see write) and returns
// the tid (and creation stamp) it gave each. The store keeps the rows:
// each must be its caller's own allocation, never written again.
func (s *Store) InsertRows(table string, rows []types.Row, stop error) (tids []int64, err error) {
	n := int64(len(rows))
	t0 := s.nextTID.Add(n) - n
	rec := Record{Op: OpInsert, Table: table, TIDs: make([]int64, n), Rows: rows}
	for i := range rec.TIDs {
		rec.TIDs[i] = t0 + int64(i)
	}
	if _, done, err := s.write(&rec, stop); err != nil {
		// Rows after the one that failed give their tids back: inserted
		// one at a time, they would never have drawn them.
		if d := int64(done) + 1; d < n {
			s.nextTID.CompareAndSwap(t0+n, t0+d)
		}
		return nil, err
	}
	return rec.TIDs, nil
}

// InsertRowsAt re-inserts rows under their own tids as one set (undo of
// a delete).
func (s *Store) InsertRowsAt(table string, tids []int64, rows []types.Row) error {
	_, _, err := s.write(&Record{Op: OpInsert, Table: table, TIDs: tids, Rows: rows}, nil)
	return err
}

// UpdateRows gives each tids[i] the values rows[i] as one set (see write)
// and returns the values each replaced.
func (s *Store) UpdateRows(table string, tids []int64, rows []types.Row, stop error) (old []types.Row, err error) {
	old, _, err = s.write(&Record{Op: OpUpdate, Table: table, TIDs: tids, Rows: rows}, stop)
	return old, err
}

// DeleteRows removes the rows tids as one set (see write) and returns
// their values.
func (s *Store) DeleteRows(table string, tids []int64) (old []types.Row, err error) {
	old, _, err = s.write(&Record{Op: OpDelete, Table: table, TIDs: tids}, nil)
	return old, err
}

// Insert inserts one row as a set of one (InsertRows) and returns its tid
// twice, as tid and as creation stamp. Only the benchmark's commit probe
// (bench/probes.go) calls it, which takes three results.
func (s *Store) Insert(table string, row types.Row) (tid, created int64, err error) {
	tids, err := s.InsertRows(table, []types.Row{row}, nil)
	if err != nil {
		return 0, 0, err
	}
	return tids[0], tids[0], nil
}

// AddIndex builds a named index and logs it. Index names are unique
// store-wide, case-insensitively; a create that fails leaves nothing
// behind.
func (s *Store) AddIndex(name, table string, cols []string, unique bool) error {
	if on, exists := s.NamedIndex(name); exists {
		return fmt.Errorf("storage: index %q already exists on %s", name, on)
	}
	return s.do(&Record{Op: OpCreateIndex, Table: table, Index: IndexDef{Name: name, Cols: cols, Unique: unique}})
}

// NamedIndex reports the table that holds the CREATE INDEX index of the
// given name (names are unique store-wide, case-insensitively).
func (s *Store) NamedIndex(name string) (table string, ok bool) {
	s.tablesMu.RLock()
	defer s.tablesMu.RUnlock()
	for _, t := range s.tables {
		for _, ix := range t.Indexes() {
			if ix.Origin == OriginNamed && strings.EqualFold(ix.Name, name) {
				return t.Schema.Name, true
			}
		}
	}
	return "", false
}

// PutMeta stores a DDL meta entry (view/trigger) and logs it.
func (s *Store) PutMeta(kind, name, text string) error {
	return s.do(&Record{Op: OpPutMeta, Meta: MetaEntry{Kind: kind, Name: name, Text: text}})
}

// DeleteMeta removes a DDL meta entry and logs it.
func (s *Store) DeleteMeta(kind, name string) error {
	return s.do(&Record{Op: OpDelMeta, Meta: MetaEntry{Kind: kind, Name: name}})
}

// Metas returns the stored DDL meta entries in insertion order.
func (s *Store) Metas() []MetaEntry {
	out := make([]MetaEntry, len(s.metas))
	copy(out, s.metas)
	return out
}

// ------------------------------------------------------------- snapshots

// Checkpoint writes a full snapshot and truncates the WAL, bounding
// recovery time. The sequence is crash-safe at every step:
//
//  1. Write the snapshot to a temp file under the NEXT epoch, fsync it.
//  2. Rename it over the live snapshot, then fsync the directory — until
//     the directory entry is durable, a power loss simply reverts to the
//     old snapshot + old WAL, which replays to the same state.
//  3. Truncate the WAL and stamp its fresh header with the new epoch.
//     A crash in this window leaves the new snapshot next to the OLD
//     WAL; the epoch mismatch makes replay skip it instead of
//     double-applying rows the snapshot already contains.
//
// A failure before step 2 completes (e.g. ENOSPC writing the snapshot)
// leaves the store fully usable on its existing WAL. A failure after it
// leaves the store unable to log further writes — statements start
// failing loudly — but the directory reopens to a consistent state.
func (s *Store) Checkpoint() error {
	// The replication feed's retention floor mirrors the WAL truncation:
	// after a checkpoint, a replica whose cursor predates it must resync
	// from a snapshot instead of replaying pruned history.
	s.replPrune()
	// Vacuum rides on the checkpoint cadence: reclaim versions invisible
	// to every live snapshot (R∆ garbage collection). The caller already
	// excludes writers, which is all Vacuum requires; the snapshot below
	// only ever contains live rows, so vacuum timing cannot change its
	// encoding.
	s.Vacuum()
	if !s.durable {
		return nil
	}
	newEpoch := s.epoch + 1
	tmp := filepath.Join(s.dir, snapshotFile+".tmp")
	f, err := s.fs.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	err = s.writeSnapshot(w, newEpoch)
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		s.fs.Remove(tmp) // best effort; the store stays on its old WAL
		return err
	}
	if err := s.fs.Rename(tmp, filepath.Join(s.dir, snapshotFile)); err != nil {
		s.fs.Remove(tmp)
		return err
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return err
	}
	// The new snapshot is durably installed; its epoch supersedes every
	// record in the old WAL even if we crash before truncating it.
	s.epoch = newEpoch
	// cycleMu keeps the flusher out while the WAL is swapped: a flush
	// cycle must never fsync the file the checkpoint just closed. Commit
	// tickets still queued at this point are safe to release on the NEW
	// log's next cycle — their in-memory effects are inside the snapshot
	// that was just durably installed.
	s.cycleMu.Lock()
	defer s.cycleMu.Unlock()
	if s.wal != nil {
		if err := s.wal.discard(); err != nil {
			return err
		}
	}
	nw, err := createWAL(s.fs, s.dir, filepath.Join(s.dir, walFile), newEpoch)
	if err != nil {
		// s.wal still points at the closed writer: subsequent appends
		// fail loudly rather than silently dropping durability.
		return err
	}
	s.wal = nw
	return nil
}

func (s *Store) writeSnapshot(w io.Writer, epoch uint64) error {
	return s.writeSnapshotTo(w, epoch, true, nil)
}

// writeSnapshotTo serializes the store: header, metas, index definitions,
// tables — each section a count followed by that many entries in the
// field codecs the WAL records use. counters=false zeroes the tid counter
// and skipRows omits the rows (not the schemas) of the named
// tables — both used by replication snapshots, whose encoding must
// depend only on logical shared content (see EncodeReplSnapshot). Tables
// go in name order and each table's named indexes in rank order, so the
// file does not depend on the order the DDL ran in.
func (s *Store) writeSnapshotTo(w io.Writer, epoch uint64, counters bool, skipRows map[string]bool) error {
	buf := []byte(snapshotMagic)
	buf = binary.BigEndian.AppendUint64(buf, epoch)
	var tid uint64
	if counters {
		tid = uint64(s.nextTID.Load())
	}
	buf = binary.BigEndian.AppendUint64(buf, tid)
	buf = binary.AppendUvarint(buf, uint64(len(s.metas)))
	for _, m := range s.metas {
		buf = appendMeta(buf, m)
	}
	names := s.TableNames()
	var defs []byte
	ndefs := 0
	for _, name := range names {
		t := s.Table(name)
		for _, ix := range t.Indexes() {
			if ix.Origin != OriginNamed {
				continue // declared by the schema, rebuilt by NewTable
			}
			def := IndexDef{Name: ix.Name, Unique: ix.Unique}
			for _, c := range ix.Cols {
				def.Cols = append(def.Cols, t.Schema.Columns[c].Name)
			}
			defs = appendIndexDef(defs, name, def)
			ndefs++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(ndefs))
	buf = append(buf, defs...)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	if _, err := w.Write(buf); err != nil {
		return err
	}
	for _, name := range names {
		t := s.Table(name)
		chunk := appendSchema(nil, t.Schema)
		buf = binary.AppendUvarint(buf[:0], uint64(len(chunk)))
		buf = append(buf, chunk...)
		rows := t.Rows()
		if skipRows[tkey(name)] {
			rows = nil
		}
		buf = binary.AppendUvarint(buf, uint64(len(rows)))
		if _, err := w.Write(buf); err != nil {
			return err
		}
		for _, r := range rows {
			buf = appendStoredRow(buf[:0], r.TID, r.Values)
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *Store) loadSnapshot(path string) error {
	data, err := s.fs.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	s.epoch, err = s.loadSnapshotBytes(s.tables, data)
	return err
}

// loadSnapshotBytes decodes each snapshot section into the records it
// stands for — put-meta, create-table, insert, create-index — and feeds
// them to apply, over tables, and returns the snapshot's epoch. Index
// definitions precede the tables in the file but are applied after them,
// over the loaded rows. The tid counter only rises: to the snapshot's,
// and past every row loaded.
func (s *Store) loadSnapshotBytes(tables map[string]*Table, data []byte) (epoch uint64, err error) {
	if len(data) < len(snapshotMagic) || string(data[:len(snapshotMagic)]) != snapshotMagic {
		if err := oldFormat("snapshot", data, snapshotMagic); err != nil {
			return 0, err
		}
		return 0, fmt.Errorf("storage: bad snapshot magic")
	}
	rd := reader{buf: data[len(snapshotMagic):]}
	epoch = uint64(rd.i64())
	s.bumpTID(rd.i64() - 1)
	// put applies one decoded record, unless the reader already ran short.
	put := func(rec *Record) error {
		if rd.err != nil {
			return rd.err
		}
		_, err := s.apply(tables, rec)
		return err
	}
	for n := rd.count(); n > 0; n-- {
		if err := put(&Record{Op: OpPutMeta, Meta: rd.meta()}); err != nil {
			return 0, err
		}
	}
	var indexes []Record
	for n := rd.count(); n > 0; n-- {
		rec := Record{Op: OpCreateIndex}
		rec.Table, rec.Index = rd.index()
		indexes = append(indexes, rec)
	}
	for n := rd.count(); n > 0; n-- {
		chunk := reader{buf: rd.take(rd.uvarint())}
		rec := Record{Op: OpCreateTable, Schema: chunk.schema()}
		if chunk.err != nil {
			return 0, fmt.Errorf("storage: bad snapshot schema: %w", chunk.err)
		}
		rec.Table = rec.Schema.Name
		if err := put(&rec); err != nil {
			return 0, err
		}
		// A table's rows are one insert set.
		m := rd.count()
		rec = Record{Op: OpInsert, Table: rec.Table, TIDs: make([]int64, m), Rows: make([]types.Row, m)}
		for i := 0; i < m; i++ {
			rec.TIDs[i], rec.Rows[i] = rd.storedRow()
		}
		if err := put(&rec); err != nil {
			return 0, err
		}
	}
	for i := range indexes {
		if err := put(&indexes[i]); err != nil {
			return 0, err
		}
	}
	return epoch, rd.err
}

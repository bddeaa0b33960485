package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"ediflow/internal/types"
)

// Replication feed: the store-level half of WAL shipping (internal/repl
// builds the wire protocol and replica loop on top of it).
//
// Every logged mutation record — the exact payload bytes that go to the
// WAL — is also captured into an in-memory ring, stamped with a monotone
// sequence number. A replica's cursor is (streamID, seq): streamID is
// drawn fresh every time the feed is enabled, so a primary restart (or
// reopen) always invalidates old cursors and forces a snapshot resync;
// that makes it safe to ship records that are not yet fsynced — a
// crashed primary can never be asked to serve a cursor that includes
// writes it lost.
//
// The ring keeps a retention floor: Checkpoint prunes everything (the
// WAL analog of truncation), and a byte budget bounds memory between
// checkpoints. A fetch below the floor returns ErrReplGap and the
// caller must fall back to a full snapshot.

// ErrReplGap is returned by ReplFetch when the requested cursor
// predates the retained floor; the subscriber must resync from a
// snapshot.
var ErrReplGap = fmt.Errorf("storage: replication cursor below retained floor")

// DefaultReplBudget bounds the feed ring's memory between checkpoints.
const DefaultReplBudget = 64 << 20

type replRec struct {
	seq     uint64
	cum     int64 // feed-lifetime payload bytes through this record
	payload []byte
}

type replFeed struct {
	mu      sync.Mutex
	on      atomic.Bool     // set once, under mu; read without it by Store.log
	exclude map[string]bool // lower-cased table names kept out of the stream
	stream  uint64          // nonzero, fresh per enable
	head    uint64          // seq of the newest captured record (0 = none yet)
	floor   uint64          // seq of the oldest retained record; head+1 when empty
	total   int64           // lifetime payload bytes captured
	bytes   int64           // payload bytes currently retained
	budget  int64
	buf     []replRec
	watch   chan struct{} // closed and replaced on every capture
}

// EnableReplFeed turns on mutation capture for replication. budget <= 0
// selects DefaultReplBudget. Tables named in exclude are invisible to
// the feed: their records are neither streamed nor counted, and their
// rows are omitted from EncodeReplSnapshot (the schema still ships, so
// replicas can hold purely local rows in them).
func (s *Store) EnableReplFeed(budget int64, exclude ...string) {
	if budget <= 0 {
		budget = DefaultReplBudget
	}
	f := &s.repl
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.on.Load() {
		return
	}
	f.on.Store(true)
	f.budget = budget
	f.exclude = map[string]bool{}
	for _, t := range exclude {
		f.exclude[tkey(t)] = true
	}
	for f.stream == 0 {
		f.stream = rand.Uint64()
	}
	f.floor = f.head + 1
	f.watch = make(chan struct{})
}

// replCapture appends one logged record to the feed ring. Called from
// Store.log under the engine write lock; the feed's own mutex covers
// standalone-store callers and concurrent fetchers.
func (s *Store) replCapture(table string, payload []byte) {
	f := &s.repl
	f.mu.Lock()
	if !f.on.Load() || (table != "" && f.exclude[tkey(table)]) {
		f.mu.Unlock()
		return
	}
	f.head++
	f.total += int64(len(payload))
	f.buf = append(f.buf, replRec{seq: f.head, cum: f.total, payload: payload})
	f.bytes += int64(len(payload))
	for f.bytes > f.budget && len(f.buf) > 1 {
		f.bytes -= int64(len(f.buf[0].payload))
		f.buf = f.buf[1:]
		f.floor = f.buf[0].seq
	}
	watch := f.watch
	f.watch = make(chan struct{})
	f.mu.Unlock()
	close(watch) // wake streamers outside the lock
}

// replPrune empties the ring and raises the floor past the head — the
// feed analog of WAL truncation. Checkpoint calls it: any replica whose
// cursor predates the checkpoint must resync from a snapshot instead of
// replaying records the snapshot already contains (the stale-WAL
// double-apply class of bug, kept out of the replication path by
// construction).
func (s *Store) replPrune() {
	f := &s.repl
	f.mu.Lock()
	if f.on.Load() {
		f.buf = nil
		f.bytes = 0
		f.floor = f.head + 1
	}
	f.mu.Unlock()
}

// ReplStreamID returns the feed's stream identity (0 when disabled).
func (s *Store) ReplStreamID() uint64 {
	f := &s.repl
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stream
}

// ReplHead returns the newest captured sequence number.
func (s *Store) ReplHead() uint64 {
	f := &s.repl
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.head
}

// ReplFloor returns the oldest retained sequence number (head+1 when
// the ring is empty).
func (s *Store) ReplFloor() uint64 {
	f := &s.repl
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.floor
}

// ReplLagBytes estimates the payload bytes a cursor at fromSeq has not
// yet applied. Cursors below the floor count everything retained plus
// pruned history is unknowable, so the lifetime total is the bound.
func (s *Store) ReplLagBytes(fromSeq uint64) int64 {
	f := &s.repl
	f.mu.Lock()
	defer f.mu.Unlock()
	if fromSeq >= f.head {
		return 0
	}
	if fromSeq >= f.floor-1 && len(f.buf) > 0 {
		if fromSeq == f.floor-1 {
			return f.total - (f.buf[0].cum - int64(len(f.buf[0].payload)))
		}
		return f.total - f.buf[fromSeq-f.floor].cum
	}
	return f.total
}

// ReplWatch returns a channel closed at the next capture; streamers
// caught up with the head block on it instead of polling.
func (s *Store) ReplWatch() <-chan struct{} {
	f := &s.repl
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.watch == nil {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	return f.watch
}

// ReplFetch returns records with sequence numbers in (fromSeq, head],
// bounded by maxBytes of payload (always at least one record when any
// is available). next is the sequence of the last returned record —
// the caller's new cursor — and head the current feed head. A cursor
// below the retained floor yields ErrReplGap.
func (s *Store) ReplFetch(fromSeq uint64, maxBytes int) (recs [][]byte, next, head uint64, err error) {
	f := &s.repl
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.on.Load() {
		return nil, fromSeq, f.head, fmt.Errorf("storage: replication feed disabled")
	}
	if fromSeq+1 < f.floor {
		return nil, fromSeq, f.head, ErrReplGap
	}
	next = fromSeq
	if fromSeq >= f.head {
		return nil, next, f.head, nil
	}
	idx := int(fromSeq + 1 - f.floor)
	var size int
	for ; idx < len(f.buf); idx++ {
		p := f.buf[idx].payload
		if len(recs) > 0 && size+len(p) > maxBytes {
			break
		}
		recs = append(recs, p)
		size += len(p)
		next = f.buf[idx].seq
	}
	return recs, next, f.head, nil
}

// ---------------------------------------------------- snapshot shipping

// EncodeReplSnapshot serializes the full store state for replica
// bootstrap, in the checkpoint snapshot format with the epoch and
// tid counter zeroed: the encoding depends only on logical table content,
// so two stores that applied the same records encode byte-identically
// regardless of local checkpoint history. Rows of excluded tables are
// omitted (their schemas still ship).
func (s *Store) EncodeReplSnapshot(exclude ...string) ([]byte, error) {
	skip := map[string]bool{}
	for _, t := range exclude {
		skip[tkey(t)] = true
	}
	var buf bytes.Buffer
	if err := s.writeSnapshotTo(&buf, 0, false, skip); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ResetFromSnapshot replaces the store's entire logical state with the
// given replication snapshot. Rows of tables named in preserve survive
// the reset (replica-local state such as mirror registrations); their
// tids are re-inserted verbatim, and the tid counter only rises, so
// local allocations never repeat. The new tables are built aside,
// published, and swapped in whole: a lock-free reader finds each table
// before the swap or after it, never missing. A failed load leaves the
// tables and metas as they were.
func (s *Store) ResetFromSnapshot(data []byte, preserve ...string) error {
	metas := s.metas
	s.metas = nil
	tables := map[string]*Table{}
	if _, err := s.loadSnapshotBytes(tables, data); err != nil {
		s.metas = metas
		return err
	}
	for _, name := range preserve {
		old := s.Table(name)
		if old == nil {
			continue
		}
		if tables[tkey(name)] == nil {
			// The primary does not have this table; keep the local one.
			if _, err := s.apply(tables, &Record{Op: OpCreateTable, Table: name, Schema: old.Schema}); err != nil {
				s.metas = metas
				return err
			}
		}
		rows := old.Rows()
		rec := Record{Op: OpInsert, Table: name, TIDs: make([]int64, len(rows)), Rows: make([]types.Row, len(rows))}
		for i, r := range rows {
			rec.TIDs[i], rec.Rows[i] = r.TID, r.Values
		}
		if _, err := s.apply(tables, &rec); err != nil {
			s.metas = metas
			return fmt.Errorf("storage: restoring preserved row: %w", err)
		}
	}
	// The new tables stamped fresh versions: publish them before any
	// reader can find the tables that hold them.
	s.PublishSnapshot()
	s.tablesMu.Lock()
	s.tables = tables
	s.tablesMu.Unlock()
	return nil
}

// ApplyReplRecord applies one shipped record to the store — decode, then
// the apply every other route ends in — and returns the decoded record
// so the engine can follow DDL in its catalog.
func (s *Store) ApplyReplRecord(payload []byte) (Record, error) {
	rec, err := decodeRecord(payload)
	if err == nil {
		_, err = s.apply(s.tables, &rec)
	}
	return rec, err
}

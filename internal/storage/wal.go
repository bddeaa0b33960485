package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"ediflow/internal/catalog"
	"ediflow/internal/fault"
	"ediflow/internal/types"
)

// Write-ahead log and snapshot formats.
//
// The WAL opens with a 16-byte file header:
//
//	[8-byte magic "EDIWAL2\n"][u64 epoch]
//
// The epoch ties the log to the snapshot it extends (see
// Store.Checkpoint): a log whose epoch predates the installed snapshot's
// is a leftover from a crash inside checkpoint and is ignored on replay —
// replaying it would double-apply records already in the snapshot.
//
// After the header, the WAL is a sequence of framed records:
//
//	[u32 payload length][u32 crc32(payload)][payload]
//
// Replay stops cleanly at a truncated or corrupted tail (the standard
// crash-recovery contract: a torn final record is discarded), and the
// store physically truncates that tail before appending again so new
// records are never hidden behind garbage.
//
// A payload is one encoded Record: a 1-byte opcode and the fields that
// op uses (see Record.encode). A log of an older format is refused
// (oldFormat): EDIWAL1 stored a creation stamp beside each inserted tid.
const (
	walMagic     = "EDIWAL2\n"
	walHeaderLen = 16 // magic + big-endian epoch
)

type walWriter struct {
	f fault.File
	// mu guards buf: with the group-commit pipeline, appends (engine
	// goroutines holding the engine write lock) and buffer flushes (the
	// store's flusher goroutine) are concurrent. fsync needs no lock —
	// it only touches the file, and racing an fsync with a write is safe
	// (the batch's own flush+fsync happens-after its appends via the
	// commit-ticket handoff).
	mu  sync.Mutex
	buf *bufio.Writer
}

// createWAL truncates (or creates) the log at path and stamps a fresh
// header carrying epoch. The header is fsynced and the directory entry
// is fsynced too, so a power loss immediately afterwards can neither
// lose the file nor resurrect the pre-truncation content.
func createWAL(fs fault.FS, dir, path string, epoch uint64) (*walWriter, error) {
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	var hdr [walHeaderLen]byte
	copy(hdr[:8], walMagic)
	binary.BigEndian.PutUint64(hdr[8:], epoch)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := fs.SyncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return &walWriter{f: f, buf: bufio.NewWriterSize(f, 1<<16)}, nil
}

// openWALAppend opens an existing log — header already validated by
// replayWAL — for appending.
func openWALAppend(fs fault.FS, path string) (*walWriter, error) {
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &walWriter{f: f, buf: bufio.NewWriterSize(f, 1<<16)}, nil
}

// append frames one record into the write buffer and returns the number
// of bytes added (header + payload).
func (w *walWriter) append(payload []byte) (int, error) {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.buf.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.buf.Write(payload); err != nil {
		return 0, err
	}
	return len(hdr) + len(payload), nil
}

// flush pushes buffered records to the OS page cache. This alone is NOT
// durable against machine crashes — an acknowledged commit survives a
// process kill but not a power loss until fsync runs. The Store's
// SyncMode decides when fsync is called (see Store.Flush); the old name
// of this method ("sync") wrongly suggested it reached the platter.
func (w *walWriter) flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Flush()
}

// fsync forces flushed records to stable storage.
func (w *walWriter) fsync() error { return w.f.Sync() }

func (w *walWriter) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.buf.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	return w.f.Close()
}

// discard closes the file without flushing buffered records — the
// checkpoint path, where everything buffered is already contained in the
// snapshot being installed.
func (w *walWriter) discard() error { return w.f.Close() }

// walInfo is what replayWAL learned about the on-disk log.
type walInfo struct {
	epoch    uint64
	replayed bool  // header valid, epoch current, records applied
	torn     bool  // trailing garbage after the last valid record
	goodLen  int64 // header + valid records, in bytes
}

// replayWAL validates the log header against the snapshot epoch and, if
// it is current, applies every intact record via apply. A truncated or
// corrupt tail terminates replay without error (torn is set so the
// caller can cut it off). A log whose epoch predates the snapshot's is
// skipped entirely: it is a leftover from a crash between the snapshot
// rename and the log truncation, and every record in it is already in
// the snapshot. A log from a *later* epoch than the snapshot is a hard
// error — it means an installed snapshot was lost.
func replayWAL(fs fault.FS, path string, snapEpoch uint64, apply func(payload []byte) error) (walInfo, error) {
	var info walInfo
	f, err := fs.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return info, nil
		}
		return info, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	var fh [walHeaderLen]byte
	if _, err := io.ReadFull(r, fh[:]); err != nil {
		return info, nil // empty file or torn header: treat as no log
	}
	if string(fh[:8]) != walMagic {
		// unrecognized: recreate, unless it is an older log of ours
		return info, oldFormat("log "+path, fh[:], walMagic)
	}
	info.epoch = binary.BigEndian.Uint64(fh[8:])
	info.goodLen = walHeaderLen
	if info.epoch < snapEpoch {
		return info, nil // stale epoch: skip (see function comment)
	}
	if info.epoch > snapEpoch {
		return info, fmt.Errorf("storage: WAL epoch %d ahead of snapshot epoch %d (snapshot lost?)",
			info.epoch, snapEpoch)
	}
	info.replayed = true
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			info.torn = err != io.EOF // clean EOF vs. torn header
			return info, nil
		}
		n := binary.BigEndian.Uint32(hdr[0:4])
		want := binary.BigEndian.Uint32(hdr[4:8])
		if n > 1<<30 {
			info.torn = true // implausible length: corrupt tail
			return info, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			info.torn = true // torn record
			return info, nil
		}
		if crc32.ChecksumIEEE(payload) != want {
			info.torn = true // corrupt record
			return info, nil
		}
		if err := apply(payload); err != nil {
			return info, fmt.Errorf("storage: WAL replay: %w", err)
		}
		info.goodLen += 8 + int64(n)
	}
}

// ------------------------------------------------------------- records

// Op is a record's opcode, the first byte of its encoding.
type Op byte

// Record opcodes.
const (
	OpCreateTable Op = iota + 1 // Table, Schema
	OpDropTable                 // Table
	OpInsert                    // Table, TIDs, Rows
	OpUpdate                    // Table, TIDs, Rows
	OpDelete                    // Table, TIDs
	OpCreateIndex               // Table, Index
	OpPutMeta                   // Meta (view / trigger DDL re-registered on open)
	OpDelMeta                   // Meta.Kind, Meta.Name
)

// Set frames. A row op's record is a set of rows of one table. A set of
// one is framed under its op's own opcode, the single-row frame older
// logs hold; a larger set under the op's set opcode, which puts the row
// count after the table name:
//
//	insert  [9][table][uvarint n] n × [tid][row]
//	update [10][table][uvarint n] n × [tid][row]
//	delete [11][table][uvarint n] n × [tid]
const setFrame = 6 // set opcode − op

// IndexDef is a CREATE [UNIQUE] INDEX definition; the table it belongs
// to is the record's.
type IndexDef struct {
	Name   string
	Cols   []string
	Unique bool
}

// Record describes one mutation of the store. It is built once — by the
// live operation, or by decodeRecord from WAL, replication feed or
// snapshot bytes — and Store.apply is the only code that carries it out,
// which is why replay, a replica and a reloaded snapshot reach the state
// the live store had. Each op uses the fields listed beside its opcode;
// the rest stay nil or zero.
//
// A row op carries a set: row i of the set is TIDs[i] (an inserted row's
// tid is also its creation stamp), with Rows[i] (insert, update) beside
// it. A statement's rows are one record, applied in order under one table
// lock. A set is the only unit a row is written in: one row is a set of
// one.
type Record struct {
	Op     Op
	Table  string
	TIDs   []int64
	Rows   []types.Row
	Schema *catalog.TableSchema
	Index  IndexDef
	Meta   MetaEntry
}

// DDL reports whether the record changes schema rather than rows.
func (r *Record) DDL() bool {
	return r.Op != OpInsert && r.Op != OpUpdate && r.Op != OpDelete
}

// encode appends the record's payload to dst.
func (r *Record) encode(dst []byte) []byte {
	if r.DDL() {
		dst = append(dst, byte(r.Op))
		switch r.Op {
		case OpCreateTable:
			return appendSchema(dst, r.Schema)
		case OpCreateIndex:
			return appendIndexDef(dst, r.Table, r.Index)
		case OpPutMeta:
			return appendMeta(dst, r.Meta)
		case OpDelMeta:
			dst = appendString(dst, r.Meta.Kind)
			return appendString(dst, r.Meta.Name)
		}
		return appendString(dst, r.Table) // OpDropTable
	}
	if len(r.TIDs) == 1 {
		dst = appendString(append(dst, byte(r.Op)), r.Table)
	} else {
		dst = appendString(append(dst, byte(r.Op+setFrame)), r.Table)
		dst = binary.AppendUvarint(dst, uint64(len(r.TIDs)))
	}
	for i, tid := range r.TIDs {
		dst = binary.BigEndian.AppendUint64(dst, uint64(tid))
		if r.Op != OpDelete {
			dst = types.AppendRow(dst, r.Rows[i])
		}
	}
	return dst
}

// decodeRecord is the inverse of encode. The bytes come from disk and,
// on a replica, from the network: every length and count is checked
// against what is left of the payload before anything is allocated from
// it.
func decodeRecord(payload []byte) (Record, error) {
	if len(payload) == 0 {
		return Record{}, fmt.Errorf("storage: empty record")
	}
	rec := Record{Op: Op(payload[0])}
	rd := reader{buf: payload[1:]}
	n := 1 // rows in a row op's set
	switch rec.Op {
	case OpCreateTable:
		if rec.Schema = rd.schema(); rec.Schema != nil {
			rec.Table = rec.Schema.Name
		}
		return rec, rd.err
	case OpDropTable:
		rec.Table = rd.str()
		return rec, rd.err
	case OpCreateIndex:
		rec.Table, rec.Index = rd.index()
		return rec, rd.err
	case OpPutMeta:
		rec.Meta = rd.meta()
		return rec, rd.err
	case OpDelMeta:
		rec.Meta.Kind, rec.Meta.Name = rd.str(), rd.str()
		return rec, rd.err
	case OpInsert, OpUpdate, OpDelete:
		rec.Table = rd.str()
	case OpInsert + setFrame, OpUpdate + setFrame, OpDelete + setFrame:
		rec.Op -= setFrame
		rec.Table = rd.str()
		// The least a row takes: its tid, and an insert's or update's
		// one-byte value count.
		least := 9
		if rec.Op == OpDelete {
			least = 8
		}
		n = rd.setCount(least)
	default:
		return Record{}, fmt.Errorf("storage: unknown record opcode %d", rec.Op)
	}
	if rd.err != nil {
		return Record{}, rd.err
	}
	rec.TIDs = make([]int64, n)
	if rec.Op != OpDelete {
		rec.Rows = make([]types.Row, n)
	}
	for i := 0; i < n && rd.err == nil; i++ {
		rec.TIDs[i] = rd.i64()
		if rec.Op != OpDelete {
			rec.Rows[i] = rd.row()
		}
	}
	return rec, rd.err
}

// The field codecs below are shared by the record payloads and the
// snapshot sections (schema, index definition, meta, stored row).

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendSchema(dst []byte, s *catalog.TableSchema) []byte {
	dst = appendString(dst, s.Name)
	dst = binary.AppendUvarint(dst, uint64(len(s.Columns)))
	for _, c := range s.Columns {
		dst = appendString(dst, c.Name)
		dst = append(dst, byte(c.Type))
		flags := byte(0)
		if c.PrimaryKey {
			flags |= 1
		}
		if c.Unique {
			flags |= 2
		}
		if c.NotNull {
			flags |= 4
		}
		dst = append(dst, flags)
	}
	return dst
}

func appendIndexDef(dst []byte, table string, ix IndexDef) []byte {
	dst = appendString(dst, ix.Name)
	dst = appendString(dst, table)
	if ix.Unique {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(ix.Cols)))
	for _, c := range ix.Cols {
		dst = appendString(dst, c)
	}
	return dst
}

func appendMeta(dst []byte, m MetaEntry) []byte {
	dst = appendString(dst, m.Kind)
	dst = appendString(dst, m.Name)
	return appendString(dst, m.Text)
}

func appendStoredRow(dst []byte, tid int64, row types.Row) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(tid))
	return types.AppendRow(dst, row)
}

// oldFormat refuses a file that opens with another version of the magic
// want (the same six-byte name): the store reads only its own format and
// leaves such a file as it is. Any other start, want included, is nil.
func oldFormat(what string, head []byte, want string) error {
	if len(head) < len(want) || string(head[:len(want)]) == want || string(head[:6]) != want[:6] {
		return nil
	}
	return fmt.Errorf("storage: %s is in the old format %s; this version reads only %s", what, head[:7], want[:7])
}

// reader consumes a payload front to back. The first read that runs past
// the end sets err and every later read returns zero values, so a decoder
// checks err once, after its last read.
type reader struct {
	buf []byte
	err error
}

// fail records the first error.
func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// take returns the next n bytes, or nil after a short read.
func (r *reader) take(n uint64) []byte {
	if n > uint64(len(r.buf)) {
		r.fail("storage: short record: need %d bytes, have %d", n, len(r.buf))
	}
	if r.err != nil {
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *reader) uvarint() uint64 {
	n, w := binary.Uvarint(r.buf)
	if w <= 0 {
		r.fail("storage: bad varint")
	}
	if r.err != nil {
		return 0
	}
	r.buf = r.buf[w:]
	return n
}

// count reads an element count. Every element takes at least one byte,
// so a count above the bytes left is malformed — refused here, before a
// caller sizes a slice or bounds a loop by it.
func (r *reader) count() int {
	n := r.uvarint()
	if n > uint64(len(r.buf)) {
		r.fail("storage: count %d exceeds the %d bytes left", n, len(r.buf))
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// setCount reads a set's row count. Each row takes at least least
// bytes: a count of none, or of more rows than the bytes left can hold,
// is malformed.
func (r *reader) setCount(least int) int {
	n := r.uvarint()
	if r.err == nil && (n == 0 || n > uint64(len(r.buf)/least)) {
		r.fail("storage: set of %d rows in %d bytes", n, len(r.buf))
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

func (r *reader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *reader) i64() int64 {
	if b := r.take(8); b != nil {
		return int64(binary.BigEndian.Uint64(b))
	}
	return 0
}

func (r *reader) str() string { return string(r.take(r.uvarint())) }

func (r *reader) row() types.Row {
	if r.err != nil {
		return nil
	}
	row, used, err := types.DecodeRow(r.buf)
	if err != nil {
		r.fail("storage: %w", err)
		return nil
	}
	r.buf = r.buf[used:]
	return row
}

func (r *reader) storedRow() (tid int64, row types.Row) {
	return r.i64(), r.row()
}

func (r *reader) schema() *catalog.TableSchema {
	s := &catalog.TableSchema{Name: r.str()}
	for n := r.count(); n > 0; n-- {
		name, kind, flags := r.str(), r.u8(), r.u8()
		s.Columns = append(s.Columns, catalog.Column{
			Name: name, Type: types.Kind(kind),
			PrimaryKey: flags&1 != 0, Unique: flags&2 != 0, NotNull: flags&4 != 0,
		})
	}
	if r.err != nil {
		return nil
	}
	return s
}

func (r *reader) index() (table string, ix IndexDef) {
	ix.Name, table, ix.Unique = r.str(), r.str(), r.u8() == 1
	for n := r.count(); n > 0; n-- {
		ix.Cols = append(ix.Cols, r.str())
	}
	return table, ix
}

func (r *reader) meta() MetaEntry {
	return MetaEntry{Kind: r.str(), Name: r.str(), Text: r.str()}
}

// Package wire is the length-prefixed binary protocol spoken between
// cmd/ediserver and the internal/client driver. One frame is
//
//	| u32 big-endian length | 1 byte frame type | payload |
//
// where length counts the type byte plus the payload. Values and rows
// reuse the binary encoding of internal/types (the same bytes the WAL
// writes), so a query result crosses the wire in the engine's native
// format. Strings are uvarint length + bytes; counts are uvarints;
// signed integers are varints.
//
// Every decoder is total: malformed, truncated or hostile input returns
// an error, never panics and never allocates proportionally to a
// length claimed but not carried by the input (see the Fuzz* targets).
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"ediflow/internal/engine"
	"ediflow/internal/types"
)

// Version is the protocol version exchanged in HELLO/WELCOME.
const Version uint16 = 1

// MaxFrame is the default cap on one frame's length (type byte +
// payload). Both sides refuse larger frames rather than allocate.
const MaxFrame = 16 << 20

// HeaderLen is the fixed per-frame wire overhead: a u32 length prefix
// plus the type byte. A frame occupies len(payload) + HeaderLen bytes
// on the socket — the byte accounting in server and client metrics
// counts exactly that.
const HeaderLen = 5

// Frame types. Client→server frames have the high bit clear,
// server→client responses have it set.
const (
	FrameHello       byte = 0x01 // u16 version, string client name
	FrameExec        byte = 0x02 // u8 flags (1 = script), string sql, row of args
	FrameQuery       byte = 0x03 // string sql, row of args
	FrameNextID      byte = 0x04 // string table
	FramePing        byte = 0x05 // empty
	FrameTables      byte = 0x06 // empty
	FrameExecBatch   byte = 0x07 // uvarint count, then per stmt: string sql, row of args
	FrameWelcome     byte = 0x81 // u16 version, u64 session id
	FrameResult      byte = 0x82 // columns, rows, affected, tids
	FrameError       byte = 0x83 // string message
	FrameID          byte = 0x84 // varint id
	FramePong        byte = 0x85 // empty
	FrameNames       byte = 0x86 // uvarint count, strings
	FrameBatchResult byte = 0x87 // uvarint count, per result uvarint len + Result, string error
)

// ExecFlagScript marks an Exec frame as a ';'-separated script.
const ExecFlagScript byte = 1

// WriteFrame writes one frame to w. Into a bufio.Writer it writes the
// header and then the payload as it is, so a large payload (a snapshot
// chunk, a WAL batch) is not copied into a frame of its own first; any
// other writer gets the frame in one Write call, so an unbuffered
// connection sends it whole.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	hdr, err := header(typ, len(payload))
	if err != nil {
		return err
	}
	if bw, ok := w.(*bufio.Writer); ok {
		bw.Write(hdr[:])
		_, err := bw.Write(payload) // bufio errors are sticky: this reports the header's too
		return err
	}
	_, err = w.Write(append(hdr[:], payload...))
	return err
}

// header is the header of a frame of typ carrying n payload bytes.
func header(typ byte, n int) (hdr [HeaderLen]byte, err error) {
	if n+1 > MaxFrame {
		return hdr, fmt.Errorf("wire: frame of %d bytes exceeds limit", n+1)
	}
	binary.BigEndian.PutUint32(hdr[:], uint32(n+1))
	hdr[4] = typ
	return hdr, nil
}

// ReadFrame reads one frame from r, enforcing max (0 means MaxFrame).
// The payload is a pooled buffer, taken only once the header has said
// how long it is (so a connection parked in a read holds none): a
// caller done with it may hand it back with Release. Every decoder in
// this package copies what it keeps, so releasing the payload after
// decoding it is safe.
func ReadFrame(r io.Reader, max int) (byte, []byte, error) {
	if max <= 0 {
		max = MaxFrame
	}
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < 1 {
		return 0, nil, fmt.Errorf("wire: frame length 0")
	}
	if int64(n) > int64(max) {
		return 0, nil, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, max)
	}
	payload := buffer(int(n - 1))
	if _, err := io.ReadFull(r, payload); err != nil {
		Release(payload)
		return 0, nil, err
	}
	return hdr[4], payload, nil
}

// NewFrame returns a pooled buffer holding a frame header not yet
// filled in, with room for at least n payload bytes after it: append
// the payload (AppendExec, AppendQuery, ...), send the frame with
// SendFrame, then hand the buffer back with Release.
func NewFrame(n int) []byte { return buffer(HeaderLen + n)[:HeaderLen] }

// SendFrame fills in the header of frame, a NewFrame buffer with its
// payload appended, and writes the frame in one Write call. Into a
// bufio.Writer with nothing buffered, a frame larger than its buffer
// goes to the connection directly, uncopied.
func SendFrame(w io.Writer, typ byte, frame []byte) error {
	hdr, err := header(typ, len(frame)-HeaderLen)
	if err != nil {
		return err
	}
	copy(frame, hdr[:])
	_, err = w.Write(frame)
	return err
}

// frames pools frame buffers: a payload read by ReadFrame, a frame
// built on NewFrame. The GC empties a sync.Pool, so buffers idle
// through two collections are freed rather than held.
var frames sync.Pool // of *[]byte

// buffer returns a pooled buffer of length n. A pooled buffer too small
// for n is left to the GC, and a fresh one of length n is made: the
// pool comes to hold buffers as large as the frames it serves.
func buffer(n int) []byte {
	if b, ok := frames.Get().(*[]byte); ok && cap(*b) >= n {
		return (*b)[:n]
	}
	return make([]byte, n)
}

// Release hands a buffer from ReadFrame, NewFrame, ResultFrame or
// BatchResultFrame back to the pool. Neither b nor any slice of it may
// be used afterwards.
func Release(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	frames.Put(&b)
}

// ------------------------------------------------------------ primitives

// AppendString appends a uvarint-length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func readString(buf []byte) (string, int, error) {
	n, w := binary.Uvarint(buf)
	if w <= 0 {
		return "", 0, fmt.Errorf("wire: short string header")
	}
	if n > uint64(len(buf)-w) {
		return "", 0, fmt.Errorf("wire: short string body")
	}
	return string(buf[w : w+int(n)]), w + int(n), nil
}

func readUvarint(buf []byte) (uint64, int, error) {
	n, w := binary.Uvarint(buf)
	if w <= 0 {
		return 0, 0, fmt.Errorf("wire: bad uvarint")
	}
	return n, w, nil
}

func readVarint(buf []byte) (int64, int, error) {
	n, w := binary.Varint(buf)
	if w <= 0 {
		return 0, 0, fmt.Errorf("wire: bad varint")
	}
	return n, w, nil
}

// ------------------------------------------------------------ handshake

// EncodeHello encodes the client's opening frame payload.
func EncodeHello(version uint16, clientName string) []byte {
	return AppendHello(nil, version, clientName)
}

// AppendHello appends a HELLO payload to dst.
func AppendHello(dst []byte, version uint16, clientName string) []byte {
	dst = binary.BigEndian.AppendUint16(dst, version)
	return AppendString(dst, clientName)
}

// DecodeHello decodes a HELLO payload.
func DecodeHello(p []byte) (version uint16, clientName string, err error) {
	if len(p) < 2 {
		return 0, "", fmt.Errorf("wire: short HELLO")
	}
	version = binary.BigEndian.Uint16(p)
	clientName, _, err = readString(p[2:])
	if err != nil {
		return 0, "", fmt.Errorf("wire: HELLO name: %w", err)
	}
	return version, clientName, nil
}

// EncodeWelcome encodes the server's handshake response payload.
func EncodeWelcome(version uint16, sessionID uint64) []byte {
	dst := binary.BigEndian.AppendUint16(nil, version)
	return binary.BigEndian.AppendUint64(dst, sessionID)
}

// DecodeWelcome decodes a WELCOME payload.
func DecodeWelcome(p []byte) (version uint16, sessionID uint64, err error) {
	if len(p) < 10 {
		return 0, 0, fmt.Errorf("wire: short WELCOME")
	}
	return binary.BigEndian.Uint16(p), binary.BigEndian.Uint64(p[2:]), nil
}

// ------------------------------------------------------------ statements

// EncodeExec encodes an Exec frame payload.
func EncodeExec(script bool, sql string, args []types.Value) []byte {
	return AppendExec(nil, script, sql, args)
}

// AppendExec appends an Exec payload to dst.
func AppendExec(dst []byte, script bool, sql string, args []types.Value) []byte {
	var flags byte
	if script {
		flags |= ExecFlagScript
	}
	dst = append(dst, flags)
	dst = AppendString(dst, sql)
	return types.AppendRow(dst, args)
}

// DecodeExec decodes an Exec payload.
func DecodeExec(p []byte) (script bool, sql string, args []types.Value, err error) {
	if len(p) < 1 {
		return false, "", nil, fmt.Errorf("wire: short Exec")
	}
	script = p[0]&ExecFlagScript != 0
	sql, n, err := readString(p[1:])
	if err != nil {
		return false, "", nil, fmt.Errorf("wire: Exec sql: %w", err)
	}
	row, _, err := types.DecodeRow(p[1+n:])
	if err != nil {
		return false, "", nil, fmt.Errorf("wire: Exec args: %w", err)
	}
	return script, sql, row, nil
}

// AppendQuery appends a Query payload to dst.
func AppendQuery(dst []byte, sql string, args []types.Value) []byte {
	dst = AppendString(dst, sql)
	return types.AppendRow(dst, args)
}

// DecodeQuery decodes a Query payload.
func DecodeQuery(p []byte) (sql string, args []types.Value, err error) {
	sql, n, err := readString(p)
	if err != nil {
		return "", nil, fmt.Errorf("wire: Query sql: %w", err)
	}
	row, _, err := types.DecodeRow(p[n:])
	if err != nil {
		return "", nil, fmt.Errorf("wire: Query args: %w", err)
	}
	return sql, row, nil
}

// BatchStmt is one statement of an ExecBatch frame: a pipelined batch
// executes in order on one session, amortizing network round trips the
// way the engine's group-commit pipeline amortizes fsyncs.
type BatchStmt struct {
	SQL  string
	Args []types.Value
}

// AppendExecBatch appends an ExecBatch payload to dst.
func AppendExecBatch(dst []byte, stmts []BatchStmt) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(stmts)))
	for _, st := range stmts {
		dst = AppendString(dst, st.SQL)
		dst = types.AppendRow(dst, st.Args)
	}
	return dst
}

// DecodeExecBatch decodes an ExecBatch payload.
func DecodeExecBatch(p []byte) ([]BatchStmt, error) {
	n, w, err := readUvarint(p)
	if err != nil {
		return nil, fmt.Errorf("wire: ExecBatch count: %w", err)
	}
	off := w
	// Each statement costs at least two bytes (sql header + empty args
	// row); reject counts larger than the remaining input before
	// allocating.
	if n > uint64(len(p)-off) {
		return nil, fmt.Errorf("wire: ExecBatch claims %d statements in %d bytes", n, len(p)-off)
	}
	out := make([]BatchStmt, 0, n)
	for i := uint64(0); i < n; i++ {
		sql, used, err := readString(p[off:])
		if err != nil {
			return nil, fmt.Errorf("wire: ExecBatch sql %d: %w", i, err)
		}
		off += used
		args, used, err := types.DecodeRow(p[off:])
		if err != nil {
			return nil, fmt.Errorf("wire: ExecBatch args %d: %w", i, err)
		}
		off += used
		out = append(out, BatchStmt{SQL: sql, Args: args})
	}
	return out, nil
}

// ------------------------------------------------------------ responses

// EncodeResult encodes an engine result (nil is encoded as empty) into
// one allocation of exactly its length (resultLen).
func EncodeResult(res *engine.Result) []byte {
	return appendResult(make([]byte, 0, resultLen(res)), res)
}

// ResultFrame encodes res as a Result frame (see NewFrame) into a pooled
// buffer with room for exactly its length: send it with SendFrame, then
// Release it.
func ResultFrame(res *engine.Result) []byte {
	return appendResult(NewFrame(resultLen(res)), res)
}

// appendResult appends the encoding of res (nil is encoded as empty).
func appendResult(dst []byte, res *engine.Result) []byte {
	if res == nil {
		res = &engine.Result{}
	}
	dst = binary.AppendUvarint(dst, uint64(len(res.Columns)))
	for _, c := range res.Columns {
		dst = AppendString(dst, c)
	}
	dst = binary.AppendUvarint(dst, uint64(len(res.Rows)))
	for _, r := range res.Rows {
		dst = types.AppendRow(dst, r)
	}
	dst = binary.AppendUvarint(dst, uint64(res.Affected))
	dst = binary.AppendUvarint(dst, uint64(len(res.TIDs)))
	for _, t := range res.TIDs {
		dst = binary.AppendVarint(dst, t)
	}
	return dst
}

// resultLen is the length of EncodeResult(res). Growing the payload row
// by row would instead allocate several times its length in buffers
// that are thrown away.
func resultLen(res *engine.Result) int {
	if res == nil {
		return 4 // four zero counts
	}
	n := uvarintLen(uint64(len(res.Columns)))
	for _, c := range res.Columns {
		n += uvarintLen(uint64(len(c))) + len(c)
	}
	n += uvarintLen(uint64(len(res.Rows)))
	for _, r := range res.Rows {
		n += uvarintLen(uint64(len(r)))
		for _, v := range r {
			n += valueLen(v)
		}
	}
	n += uvarintLen(uint64(res.Affected)) + uvarintLen(uint64(len(res.TIDs)))
	var b [binary.MaxVarintLen64]byte
	for _, t := range res.TIDs {
		n += binary.PutVarint(b[:], t)
	}
	return n
}

// valueLen is the length of types.AppendValue(nil, v): a kind byte, then
// the value's bytes.
func valueLen(v types.Value) int {
	switch v.Kind() {
	case types.KindBool:
		return 2
	case types.KindInt, types.KindFloat, types.KindTime:
		return 9
	case types.KindString:
		return 1 + uvarintLen(uint64(len(v.Str()))) + len(v.Str())
	case types.KindBytes:
		return 1 + uvarintLen(uint64(len(v.Bytes()))) + len(v.Bytes())
	}
	return 1
}

func uvarintLen(x uint64) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], x)
}

// DecodeResult decodes a Result payload.
func DecodeResult(p []byte) (*engine.Result, error) {
	res := &engine.Result{}
	ncols, w, err := readUvarint(p)
	if err != nil {
		return nil, fmt.Errorf("wire: Result columns: %w", err)
	}
	off := w
	// Each column name costs at least one byte on the wire; reject
	// counts larger than the remaining input before allocating.
	if ncols > uint64(len(p)-off) {
		return nil, fmt.Errorf("wire: Result claims %d columns in %d bytes", ncols, len(p)-off)
	}
	res.Columns = make([]string, 0, ncols)
	for i := uint64(0); i < ncols; i++ {
		s, n, err := readString(p[off:])
		if err != nil {
			return nil, fmt.Errorf("wire: Result column %d: %w", i, err)
		}
		res.Columns = append(res.Columns, s)
		off += n
	}
	nrows, w, err := readUvarint(p[off:])
	if err != nil {
		return nil, fmt.Errorf("wire: Result row count: %w", err)
	}
	off += w
	if nrows > uint64(len(p)-off) {
		return nil, fmt.Errorf("wire: Result claims %d rows in %d bytes", nrows, len(p)-off)
	}
	res.Rows = make([]types.Row, 0, nrows)
	for i := uint64(0); i < nrows; i++ {
		row, n, err := types.DecodeRow(p[off:])
		if err != nil {
			return nil, fmt.Errorf("wire: Result row %d: %w", i, err)
		}
		res.Rows = append(res.Rows, row)
		off += n
	}
	aff, w, err := readUvarint(p[off:])
	if err != nil {
		return nil, fmt.Errorf("wire: Result affected: %w", err)
	}
	res.Affected = int(aff)
	off += w
	ntids, w, err := readUvarint(p[off:])
	if err != nil {
		return nil, fmt.Errorf("wire: Result tid count: %w", err)
	}
	off += w
	if ntids > uint64(len(p)-off) {
		return nil, fmt.Errorf("wire: Result claims %d tids in %d bytes", ntids, len(p)-off)
	}
	res.TIDs = make([]int64, 0, ntids)
	for i := uint64(0); i < ntids; i++ {
		t, n, err := readVarint(p[off:])
		if err != nil {
			return nil, fmt.Errorf("wire: Result tid %d: %w", i, err)
		}
		res.TIDs = append(res.TIDs, t)
		off += n
	}
	return res, nil
}

// BatchResultFrame encodes an ExecBatch response as a frame (see
// NewFrame) into a pooled buffer with room for exactly its length: the
// results of the statements that executed (in order), plus the error
// message that stopped execution ("" when the whole batch succeeded).
// Each result is length-prefixed because its encoding is not
// self-delimiting, and is encoded once, in place.
func BatchResultFrame(results []*engine.Result, errMsg string) []byte {
	n := uvarintLen(uint64(len(results))) + uvarintLen(uint64(len(errMsg))) + len(errMsg)
	for _, res := range results {
		rn := resultLen(res)
		n += uvarintLen(uint64(rn)) + rn
	}
	dst := binary.AppendUvarint(NewFrame(n), uint64(len(results)))
	for _, res := range results {
		dst = binary.AppendUvarint(dst, uint64(resultLen(res)))
		dst = appendResult(dst, res)
	}
	return AppendString(dst, errMsg)
}

// DecodeBatchResult decodes an ExecBatch response payload.
func DecodeBatchResult(p []byte) ([]*engine.Result, string, error) {
	n, w, err := readUvarint(p)
	if err != nil {
		return nil, "", fmt.Errorf("wire: BatchResult count: %w", err)
	}
	off := w
	if n > uint64(len(p)-off) {
		return nil, "", fmt.Errorf("wire: BatchResult claims %d results in %d bytes", n, len(p)-off)
	}
	out := make([]*engine.Result, 0, n)
	for i := uint64(0); i < n; i++ {
		size, w, err := readUvarint(p[off:])
		if err != nil {
			return nil, "", fmt.Errorf("wire: BatchResult size %d: %w", i, err)
		}
		off += w
		if size > uint64(len(p)-off) {
			return nil, "", fmt.Errorf("wire: BatchResult %d claims %d bytes in %d", i, size, len(p)-off)
		}
		res, err := DecodeResult(p[off : off+int(size)])
		if err != nil {
			return nil, "", fmt.Errorf("wire: BatchResult %d: %w", i, err)
		}
		out = append(out, res)
		off += int(size)
	}
	errMsg, _, err := readString(p[off:])
	if err != nil {
		return nil, "", fmt.Errorf("wire: BatchResult error: %w", err)
	}
	return out, errMsg, nil
}

// EncodeError encodes an Error payload.
func EncodeError(msg string) []byte { return AppendString(nil, msg) }

// DecodeError decodes an Error payload.
func DecodeError(p []byte) (string, error) {
	s, _, err := readString(p)
	if err != nil {
		return "", fmt.Errorf("wire: Error message: %w", err)
	}
	return s, nil
}

// EncodeID encodes an ID payload.
func EncodeID(id int64) []byte { return binary.AppendVarint(nil, id) }

// DecodeID decodes an ID payload.
func DecodeID(p []byte) (int64, error) {
	id, _, err := readVarint(p)
	if err != nil {
		return 0, fmt.Errorf("wire: ID: %w", err)
	}
	return id, nil
}

// EncodeNames encodes a string-list payload (FrameNames, FrameNextID
// requests carry a single AppendString instead).
func EncodeNames(names []string) []byte {
	dst := binary.AppendUvarint(nil, uint64(len(names)))
	for _, s := range names {
		dst = AppendString(dst, s)
	}
	return dst
}

// DecodeNames decodes a string-list payload.
func DecodeNames(p []byte) ([]string, error) {
	n, w, err := readUvarint(p)
	if err != nil {
		return nil, fmt.Errorf("wire: Names count: %w", err)
	}
	off := w
	if n > uint64(len(p)-off) {
		return nil, fmt.Errorf("wire: Names claims %d entries in %d bytes", n, len(p)-off)
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		s, used, err := readString(p[off:])
		if err != nil {
			return nil, fmt.Errorf("wire: Names entry %d: %w", i, err)
		}
		out = append(out, s)
		off += used
	}
	return out, nil
}

// EncodeString encodes a single-string payload (NextID's table name).
func EncodeString(s string) []byte { return AppendString(nil, s) }

// DecodeString decodes a single-string payload.
func DecodeString(p []byte) (string, error) {
	s, _, err := readString(p)
	return s, err
}

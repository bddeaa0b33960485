package server

import (
	"bufio"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"net"

	"ediflow/internal/engine"
	"ediflow/internal/sqltext"
	"ediflow/internal/wire"
)

// session is one connected client, served by one goroutine.
type session struct {
	id   uint64
	srv  *Server
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer

	started time.Time
	client  string // HELLO client name

	stmts      atomic.Int64
	errs       atomic.Int64
	framesIn   atomic.Int64
	bytesIn    atomic.Int64 // payload + wire.HeaderLen per frame received
	bytesOut   atomic.Int64 // payload + wire.HeaderLen per frame sent
	lastActive atomic.Int64 // unix nanos

	// stateMu guards busy/stopping: stop() may only close the socket
	// while the session is parked in a read, never mid-statement —
	// that is what "draining in-flight statements" means.
	stateMu  sync.Mutex
	busy     bool
	stopping bool

	inTxn bool // baton held across statements (session goroutine only)
}

func newSession(s *Server, id uint64, c net.Conn) *session {
	ss := &session{
		id:      id,
		srv:     s,
		conn:    c,
		r:       bufio.NewReader(c),
		w:       bufio.NewWriter(c),
		started: time.Now(),
	}
	ss.lastActive.Store(time.Now().UnixNano())
	return ss
}

func (ss *session) info() SessionInfo {
	ss.stateMu.Lock()
	client := ss.client
	ss.stateMu.Unlock()
	return SessionInfo{
		ID:         ss.id,
		Remote:     ss.conn.RemoteAddr().String(),
		Client:     client,
		Started:    ss.started,
		LastActive: time.Unix(0, ss.lastActive.Load()),
		Statements: ss.stmts.Load(),
		Errors:     ss.errs.Load(),
		InTxn:      ss.srv.holder() == ss,
		FramesIn:   ss.framesIn.Load(),
		BytesIn:    ss.bytesIn.Load(),
		BytesOut:   ss.bytesOut.Load(),
	}
}

// countIn records one received frame against the session and the server
// totals. Wire frames are payload plus a 5-byte header (u32 length +
// type byte).
func (ss *session) countIn(payload []byte) {
	n := int64(len(payload)) + wire.HeaderLen
	ss.framesIn.Add(1)
	ss.bytesIn.Add(n)
	ss.srv.mRequests.Inc()
	ss.srv.mBytesIn.Add(n)
}

// stop asks the session to exit. Idle sessions (parked in a read) are
// unblocked by closing the socket; busy ones observe the flag after
// writing their current response.
func (ss *session) stop() {
	ss.stateMu.Lock()
	ss.stopping = true
	busy := ss.busy
	ss.stateMu.Unlock()
	if !busy {
		ss.conn.Close()
	}
}

// beginWork transitions idle→busy; returns false if the session should
// exit instead.
func (ss *session) beginWork() bool {
	ss.stateMu.Lock()
	defer ss.stateMu.Unlock()
	if ss.stopping {
		return false
	}
	ss.busy = true
	return true
}

// endWork transitions busy→idle; returns false if a stop arrived while
// the statement ran.
func (ss *session) endWork() bool {
	ss.stateMu.Lock()
	defer ss.stateMu.Unlock()
	ss.busy = false
	return !ss.stopping
}

func (ss *session) serve() {
	defer ss.cleanup()
	if err := ss.handshake(); err != nil {
		ss.srv.cfg.Logf("ediserver: session %d handshake: %v", ss.id, err)
		return
	}
	for {
		if ss.srv.cfg.ReadTimeout > 0 {
			ss.conn.SetReadDeadline(time.Now().Add(ss.srv.cfg.ReadTimeout))
		}
		typ, payload, err := wire.ReadFrame(ss.r, ss.srv.cfg.MaxFrameBytes)
		if err != nil {
			return // disconnect, idle timeout, or stop() closed the socket
		}
		ss.countIn(payload)
		if !ss.beginWork() {
			return
		}
		ss.lastActive.Store(time.Now().UnixNano())
		ss.stmts.Add(1)
		err = ss.dispatch(typ, payload)
		wire.Release(payload) // dispatch's decoders copied what they keep
		cont := ss.endWork()
		if err != nil || !cont {
			return
		}
	}
}

// handshake performs HELLO→WELCOME with a fixed 10s budget.
func (ss *session) handshake() error {
	ss.conn.SetDeadline(time.Now().Add(10 * time.Second))
	defer ss.conn.SetDeadline(time.Time{})
	typ, payload, err := wire.ReadFrame(ss.r, ss.srv.cfg.MaxFrameBytes)
	if err != nil {
		return err
	}
	ss.countIn(payload)
	defer wire.Release(payload)
	if typ != wire.FrameHello {
		return fmt.Errorf("expected HELLO, got frame 0x%02x", typ)
	}
	version, name, err := wire.DecodeHello(payload)
	if err != nil {
		return err
	}
	if version != wire.Version {
		ss.reply(wire.FrameError, wire.EncodeError(fmt.Sprintf(
			"protocol version %d not supported (server speaks %d)", version, wire.Version)))
		return fmt.Errorf("client speaks version %d", version)
	}
	ss.stateMu.Lock()
	ss.client = name
	ss.stateMu.Unlock()
	return ss.reply(wire.FrameWelcome, wire.EncodeWelcome(wire.Version, ss.id))
}

// dispatch handles one request frame. A returned error is fatal to the
// session (write failure); statement errors go back as Error frames.
func (ss *session) dispatch(typ byte, payload []byte) error {
	switch typ {
	case wire.FramePing:
		return ss.reply(wire.FramePong, nil)

	case wire.FrameExec:
		script, sql, args, err := wire.DecodeExec(payload)
		if err != nil {
			return ss.sendErr(err)
		}
		res, err := ss.execSerialized(mayOpenTxn(sql), func() (*engine.Result, error) {
			if script {
				return ss.srv.db.ExecScript(sql, args...)
			}
			return ss.srv.db.Exec(sql, args...)
		})
		if err != nil {
			return ss.sendErr(err)
		}
		return ss.replyFrame(wire.FrameResult, wire.ResultFrame(res))

	case wire.FrameExecBatch:
		stmts, err := wire.DecodeExecBatch(payload)
		if err != nil {
			return ss.sendErr(err)
		}
		// The whole batch runs under one baton acquisition (exclusive if
		// any statement could open a transaction), so its statements
		// pipeline back-to-back into the engine without per-statement
		// round trips — group commit batches their fsyncs.
		mayTxn := false
		for _, st := range stmts {
			if mayOpenTxn(st.SQL) {
				mayTxn = true
				break
			}
		}
		results := make([]*engine.Result, 0, len(stmts))
		var execErr error
		ss.execSerialized(mayTxn, func() (*engine.Result, error) {
			for _, st := range stmts {
				res, err := ss.srv.db.Exec(st.SQL, st.Args...)
				if err != nil {
					execErr = err
					return nil, err
				}
				results = append(results, res)
			}
			return nil, nil
		})
		if execErr != nil {
			ss.errs.Add(1)
			ss.srv.mErrors.Inc()
		}
		errMsg := ""
		if execErr != nil {
			errMsg = execErr.Error()
		}
		return ss.replyFrame(wire.FrameBatchResult, wire.BatchResultFrame(results, errMsg))

	case wire.FrameQuery:
		sql, args, err := wire.DecodeQuery(payload)
		if err != nil {
			return ss.sendErr(err)
		}
		res, err := ss.srv.db.Query(sql, args...)
		if err != nil {
			return ss.sendErr(err)
		}
		return ss.replyFrame(wire.FrameResult, wire.ResultFrame(res))

	case wire.FrameNextID:
		table, err := wire.DecodeString(payload)
		if err != nil {
			return ss.sendErr(err)
		}
		id, err := ss.srv.db.NextID(table)
		if err != nil {
			return ss.sendErr(err)
		}
		return ss.reply(wire.FrameID, wire.EncodeID(id))

	case wire.FrameTables:
		return ss.reply(wire.FrameNames, wire.EncodeNames(ss.srv.db.TableNames()))

	case wire.FrameSubscribeWAL:
		// Converts the session into a replication stream. The connection
		// is closed by the time it returns, so serve() ends the session
		// on its next read either way.
		return ss.streamWAL(payload)
	}
	return ss.sendErr(fmt.Errorf("server: unknown frame type 0x%02x", typ))
}

// mayOpenTxn reports whether sql could open an engine transaction: whether
// one of its statements leads with BEGIN. It asks the lexer the parser
// uses, so comments, string literals and identifiers such as begin_ts are
// read as the engine reads them. Text that does not lex answers true: the
// exclusive baton is always safe, only slower.
func mayOpenTxn(sql string) bool {
	lx := sqltext.NewLexer(sql)
	lead := true
	for {
		tok, err := lx.Next()
		switch {
		case err != nil:
			return true
		case tok.Kind == sqltext.TokEOF:
			return false
		case lead && tok.Kind == sqltext.TokKeyword && tok.Text == "BEGIN":
			return true
		}
		lead = tok.Kind == sqltext.TokOp && tok.Text == ";"
	}
}

// execSerialized runs a mutating statement under the write baton. A
// statement that cannot open a transaction (mayTxn false: no BEGIN
// anywhere in it) takes the baton *shared*, so autocommit writers from
// different sessions reach the engine concurrently and its group-commit
// pipeline batches their fsyncs. A statement that may open one takes
// the baton exclusively and keeps it iff it actually left a transaction
// open (BEGIN, or a script ending inside one). The engine's InTxn is
// the single source of truth, so scripts containing BEGIN/COMMIT behave
// correctly too.
func (ss *session) execSerialized(mayTxn bool, run func() (*engine.Result, error)) (*engine.Result, error) {
	if ss.inTxn {
		res, err := run()
		if !ss.srv.db.InTxn() {
			ss.srv.setHolder(nil)
			ss.inTxn = false
			ss.srv.txnMu.Unlock()
		}
		return res, err
	}
	// server.txn_wait measures how long writes queue on the baton while
	// another session's transaction is open — the residual serialization
	// cost of the engine's single global transaction.
	done := ss.srv.reg.Time(ss.srv.mTxnWaitH)
	if !mayTxn {
		ss.srv.txnMu.RLock()
		done()
		res, err := run()
		ss.srv.txnMu.RUnlock()
		return res, err
	}
	ss.srv.txnMu.Lock()
	done()
	res, err := run()
	if ss.srv.db.InTxn() {
		ss.srv.setHolder(ss)
		ss.inTxn = true // keep txnMu locked until commit/rollback
	} else {
		ss.srv.txnMu.Unlock()
	}
	return res, err
}

// cleanup rolls back an abandoned transaction and closes the socket.
func (ss *session) cleanup() {
	if ss.inTxn {
		if _, err := ss.srv.db.Exec("ROLLBACK"); err != nil {
			ss.srv.cfg.Logf("ediserver: session %d rollback on disconnect: %v", ss.id, err)
		}
		ss.srv.setHolder(nil)
		ss.inTxn = false
		ss.srv.txnMu.Unlock()
	}
	ss.conn.Close()
}

func (ss *session) sendErr(err error) error {
	ss.errs.Add(1)
	ss.srv.mErrors.Inc()
	return ss.reply(wire.FrameError, wire.EncodeError(err.Error()))
}

func (ss *session) reply(typ byte, payload []byte) error {
	ss.startReply(len(payload))
	if err := wire.WriteFrame(ss.w, typ, payload); err != nil {
		return err
	}
	return ss.w.Flush()
}

// replyFrame sends a response built in a pooled frame buffer
// (wire.ResultFrame, wire.BatchResultFrame) in one piece, and hands the
// buffer back once it is flushed.
func (ss *session) replyFrame(typ byte, frame []byte) error {
	defer wire.Release(frame)
	ss.startReply(len(frame) - wire.HeaderLen)
	if err := wire.SendFrame(ss.w, typ, frame); err != nil {
		return err
	}
	return ss.w.Flush()
}

// startReply counts a response of n payload bytes against the session
// and the server totals, and arms the write deadline.
func (ss *session) startReply(n int) {
	out := int64(n) + wire.HeaderLen
	ss.bytesOut.Add(out)
	ss.srv.mBytesOut.Add(out)
	ss.conn.SetWriteDeadline(time.Now().Add(ss.srv.cfg.WriteTimeout))
}

// Package client is the Go driver for a remote ediserver. It exposes
// the same Exec/Query/QueryValue surface as internal/database through
// the driver.Conn interface, so notify.Client, tablesync.Mirror and
// application code run unchanged against a DBMS on another machine —
// the paper's deployment of Fig. 3, where EdiFlow peers reach the
// database server over the LAN.
//
// The driver keeps a pool of wire connections; each request checks one
// out for a single request/response round trip. Dials are retried with
// exponential backoff on transient failure. A transaction (Begin …
// Commit/Rollback) pins one connection, and while it is open every
// statement from this driver rides that pinned connection — mirroring
// the server, which serializes writes against the open transaction.
package client

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"sort"

	"ediflow/internal/driver"
	"ediflow/internal/engine"
	"ediflow/internal/metrics"
	"ediflow/internal/types"
	"ediflow/internal/wire"
)

// Options tunes Dial. The zero value is usable.
type Options struct {
	// DialTimeout bounds each TCP connect attempt (default 3s).
	DialTimeout time.Duration
	// DialRetries is how many times a failed dial is retried with
	// exponential backoff before giving up (default 3).
	DialRetries int
	// RetryBackoff is the first retry delay, doubled per attempt with
	// full jitter (default 50ms).
	RetryBackoff time.Duration
	// MaxRetryBackoff caps the doubling (default 1s). Without a cap,
	// a long outage pushes the delay into minutes and the driver looks
	// hung rather than retrying.
	MaxRetryBackoff time.Duration
	// Dialer opens the raw transport (default net.DialTimeout over TCP).
	// Tests inject fault-wrapped dialers here.
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)
	// ReadTimeout bounds waiting for one response (default 30s).
	ReadTimeout time.Duration
	// WriteTimeout bounds writing one request (default 10s).
	WriteTimeout time.Duration
	// PoolSize caps idle pooled connections (default 4). More may be
	// opened under load; extras are closed when returned.
	PoolSize int
	// MaxFrameBytes caps one response frame (default wire.MaxFrame).
	MaxFrameBytes int
	// ClientName is announced in the HELLO frame (default "ediflow-go").
	ClientName string
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 3 * time.Second
	}
	if o.DialRetries < 0 {
		o.DialRetries = 0
	} else if o.DialRetries == 0 {
		o.DialRetries = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 50 * time.Millisecond
	}
	if o.MaxRetryBackoff <= 0 {
		o.MaxRetryBackoff = time.Second
	}
	if o.Dialer == nil {
		o.Dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	if o.ReadTimeout <= 0 {
		o.ReadTimeout = 30 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.PoolSize <= 0 {
		o.PoolSize = 4
	}
	if o.ClientName == "" {
		o.ClientName = "ediflow-go"
	}
	return o
}

// Conn is a pooled client connection to one ediserver address.
// It satisfies driver.Conn, so it can replace *database.DB wherever
// that interface is accepted.
type Conn struct {
	addr string
	opts Options

	mu     sync.Mutex
	idle   []*wireConn
	txn    *wireConn // pinned while a transaction is open
	closed bool

	// Client-local metrics (the server keeps its own): dial/pool churn
	// and round-trip latency as seen from this driver.
	reg           *metrics.Registry
	mDials        *metrics.Counter
	mDialRetries  *metrics.Counter
	mDialErrors   *metrics.Counter
	mPoolHits     *metrics.Counter
	mPoolMisses   *metrics.Counter
	mStaleConns   *metrics.Counter
	mWriteRetries *metrics.Counter
	mTxnDiscards  *metrics.Counter
	mRoundTripH   *metrics.Histogram
}

// Metrics returns the driver-side metrics registry for this connection.
func (c *Conn) Metrics() *metrics.Registry { return c.reg }

var _ driver.Conn = (*Conn)(nil)

// wireConn is one TCP connection speaking the wire protocol.
type wireConn struct {
	c  net.Conn
	mu sync.Mutex // serializes round trips on this connection
}

// Dial connects to an ediserver, validating the handshake on the first
// connection before returning.
func Dial(addr string, opts Options) (*Conn, error) {
	c := &Conn{addr: addr, opts: opts.withDefaults(), reg: metrics.NewRegistry()}
	c.mDials = c.reg.Counter("client.dials")
	c.mDialRetries = c.reg.Counter("client.dial_retries")
	c.mDialErrors = c.reg.Counter("client.dial_errors")
	c.mPoolHits = c.reg.Counter("client.pool_hits")
	c.mPoolMisses = c.reg.Counter("client.pool_misses")
	c.mStaleConns = c.reg.Counter("client.stale_conns")
	c.mWriteRetries = c.reg.Counter("client.write_retries")
	c.mTxnDiscards = c.reg.Counter("client.txn_discards")
	c.mRoundTripH = c.reg.Histogram("client.roundtrip_latency")
	wc, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.put(wc)
	return c, nil
}

// transientDialError reports whether a dial failure could plausibly
// clear up on retry. A malformed address or a name that does not exist
// will fail identically every time — retrying those only delays the
// real error.
func transientDialError(err error) bool {
	var addrErr *net.AddrError
	if errors.As(err, &addrErr) {
		return false
	}
	var dnsErr *net.DNSError
	if errors.As(err, &dnsErr) && dnsErr.IsNotFound {
		return false
	}
	return true
}

// JitterBackoff picks a uniformly random delay in [d/2, d] ("full
// jitter"): a fleet of clients reconnecting after a server restart
// spreads out instead of stampeding in lockstep. Exported for the
// replica reconnect loop (internal/repl), which shares the policy.
func JitterBackoff(d time.Duration) time.Duration {
	half := int64(d) / 2
	return time.Duration(half + rand.Int63n(half+1))
}

func jitterBackoff(d time.Duration) time.Duration { return JitterBackoff(d) }

// dial opens and handshakes one wire connection, retrying transient
// failures with capped, jittered exponential backoff.
func (c *Conn) dial() (*wireConn, error) {
	backoff := c.opts.RetryBackoff
	var lastErr error
	for attempt := 0; attempt <= c.opts.DialRetries; attempt++ {
		if attempt > 0 {
			c.mDialRetries.Inc()
			time.Sleep(jitterBackoff(backoff))
			if backoff *= 2; backoff > c.opts.MaxRetryBackoff {
				backoff = c.opts.MaxRetryBackoff
			}
		}
		nc, err := c.opts.Dialer(c.addr, c.opts.DialTimeout)
		if err != nil {
			lastErr = err
			if !transientDialError(err) {
				break
			}
			continue
		}
		wc := &wireConn{c: nc}
		if err := c.handshake(wc); err != nil {
			nc.Close()
			c.mDialErrors.Inc()
			// A handshake rejection (version mismatch) is not transient.
			return nil, err
		}
		c.mDials.Inc()
		return wc, nil
	}
	c.mDialErrors.Inc()
	return nil, fmt.Errorf("client: dialing %s: %w", c.addr, lastErr)
}

func (c *Conn) handshake(wc *wireConn) error {
	frame := wire.AppendHello(wire.NewFrame(0), wire.Version, c.opts.ClientName)
	typ, payload, _, err := c.roundTripOn(wc, wire.FrameHello, frame)
	wire.Release(frame)
	if err != nil {
		return fmt.Errorf("client: handshake: %w", err)
	}
	defer wire.Release(payload)
	switch typ {
	case wire.FrameWelcome:
		v, _, err := wire.DecodeWelcome(payload)
		if err != nil {
			return err
		}
		if v != wire.Version {
			return fmt.Errorf("client: server speaks protocol version %d, want %d", v, wire.Version)
		}
		return nil
	case wire.FrameError:
		msg, _ := wire.DecodeError(payload)
		return fmt.Errorf("client: server rejected handshake: %s", msg)
	}
	return fmt.Errorf("client: unexpected handshake frame 0x%02x", typ)
}

// get checks out a connection: the pinned transaction connection if one
// is open, an idle pooled one that still looks alive, or a fresh dial.
// pinned means the transaction connection; pooled means the connection
// sat idle in the pool (and so may have silently died — the caller may
// safely retry a request whose frame never got out on one of those).
func (c *Conn) get() (wc *wireConn, pinned, pooled bool, err error) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, false, false, fmt.Errorf("client: connection closed")
		}
		if c.txn != nil {
			wc := c.txn
			c.mu.Unlock()
			return wc, true, false, nil
		}
		n := len(c.idle)
		if n == 0 {
			c.mu.Unlock()
			break
		}
		wc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		// A pooled connection may have outlived the server. The probe
		// catches peers that already sent FIN/RST; it cannot catch a
		// server that died without a trace (the write-retry in roundTrip
		// covers that).
		if connAlive(wc.c) {
			c.mPoolHits.Inc()
			return wc, false, true, nil
		}
		c.mStaleConns.Inc()
		wc.c.Close()
	}
	c.mPoolMisses.Inc()
	wc, err = c.dial()
	return wc, false, false, err
}

// put returns a healthy connection to the idle pool.
func (c *Conn) put(wc *wireConn) {
	c.mu.Lock()
	if !c.closed && wc != c.txn && len(c.idle) < c.opts.PoolSize {
		c.idle = append(c.idle, wc)
		c.mu.Unlock()
		return
	}
	pinned := wc == c.txn
	c.mu.Unlock()
	if !pinned {
		wc.c.Close()
	}
}

// roundTrip sends one request frame, built on wire.NewFrame, and hands
// the response to decode, managing pool checkout and dead-connection
// disposal. decode runs before the response's buffer goes back to the
// frame pool and the connection to the idle pool; what it keeps must be
// copied out, as every wire decoder does. The request frame goes back to
// the pool when roundTrip returns.
//
// When the request frame never made it onto a pooled (never
// transaction-pinned) connection, the request provably did not execute,
// so one retry on a fresh connection is safe even for non-idempotent
// statements — this is what lets a driver survive a server restart
// transparently. A failure after the frame was written is never
// retried: the server may have executed the statement and only the
// response was lost.
func (c *Conn) roundTrip(reqType byte, frame []byte, decode func(typ byte, payload []byte) error) error {
	defer wire.Release(frame)
	for attempt := 0; ; attempt++ {
		wc, pinned, pooled, err := c.get()
		if err != nil {
			return err
		}
		done := c.reg.Time(c.mRoundTripH)
		typ, resp, wrote, err := c.roundTripOn(wc, reqType, frame)
		done()
		if err != nil {
			// The stream is in an unknown state: drop the connection. If
			// it was the transaction pin, the transaction is gone with it
			// (the server rolls back on disconnect).
			wc.c.Close()
			c.mu.Lock()
			if c.txn == wc {
				c.txn = nil
			}
			c.mu.Unlock()
			if pooled && !wrote && attempt == 0 {
				c.mWriteRetries.Inc()
				continue
			}
			return err
		}
		err = decode(typ, resp)
		wire.Release(resp)
		if !pinned {
			c.put(wc)
		}
		return err
	}
}

// roundTripOn performs one framed request/response on wc. wrote reports
// whether the request frame was fully written — once it is, the server
// may have executed the request, and the caller must not retry.
func (c *Conn) roundTripOn(wc *wireConn, reqType byte, frame []byte) (typ byte, resp []byte, wrote bool, err error) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	wc.c.SetWriteDeadline(time.Now().Add(c.opts.WriteTimeout))
	if err := wire.SendFrame(wc.c, reqType, frame); err != nil {
		return 0, nil, false, err
	}
	wc.c.SetReadDeadline(time.Now().Add(c.opts.ReadTimeout))
	typ, resp, err = wire.ReadFrame(wc.c, c.opts.MaxFrameBytes)
	return typ, resp, true, err
}

// expect unwraps a response, converting Error frames into Go errors.
func expect(want byte, typ byte, payload []byte) ([]byte, error) {
	if typ == wire.FrameError {
		msg, derr := wire.DecodeError(payload)
		if derr != nil {
			return nil, fmt.Errorf("client: undecodable server error: %w", derr)
		}
		return nil, fmt.Errorf("%s", msg)
	}
	if typ != want {
		return nil, fmt.Errorf("client: expected frame 0x%02x, got 0x%02x", want, typ)
	}
	return payload, nil
}

// result runs one request answered by a Result frame.
func (c *Conn) result(reqType byte, frame []byte) (*engine.Result, error) {
	var res *engine.Result
	err := c.roundTrip(reqType, frame, func(typ byte, p []byte) (err error) {
		if p, err = expect(wire.FrameResult, typ, p); err == nil {
			res, err = wire.DecodeResult(p)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// ------------------------------------------------------------ statements

// Exec runs one SQL statement on the server.
func (c *Conn) Exec(sql string, args ...types.Value) (*engine.Result, error) {
	return c.exec(false, sql, args)
}

// ExecScript runs a ';'-separated script, returning the last result.
func (c *Conn) ExecScript(sql string, args ...types.Value) (*engine.Result, error) {
	return c.exec(true, sql, args)
}

func (c *Conn) exec(script bool, sql string, args []types.Value) (*engine.Result, error) {
	return c.result(wire.FrameExec, wire.AppendExec(wire.NewFrame(0), script, sql, args))
}

// BatchStmt is one statement of an ExecBatch pipeline (re-exported from
// the wire package so callers need not import it).
type BatchStmt = wire.BatchStmt

// ExecBatch ships a pipelined multi-statement frame: every statement
// travels in one request and executes in order on this client's
// session, so bulk loaders pay one network round trip — and, on the
// server, one baton acquisition feeding the engine's group-commit
// pipeline — instead of N. Results come back positionally. Execution
// stops at the first statement error, which is returned alongside the
// results of the statements that preceded it; wire-level failures
// return a nil slice.
func (c *Conn) ExecBatch(stmts []BatchStmt) ([]*engine.Result, error) {
	var results []*engine.Result
	var errMsg string
	err := c.roundTrip(wire.FrameExecBatch, wire.AppendExecBatch(wire.NewFrame(0), stmts), func(typ byte, p []byte) (err error) {
		if p, err = expect(wire.FrameBatchResult, typ, p); err == nil {
			results, errMsg, err = wire.DecodeBatchResult(p)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if errMsg != "" {
		return results, fmt.Errorf("%s", errMsg)
	}
	return results, nil
}

// Query runs a SELECT on the server.
func (c *Conn) Query(sql string, args ...types.Value) (*engine.Result, error) {
	return c.result(wire.FrameQuery, wire.AppendQuery(wire.NewFrame(0), sql, args))
}

// QueryValue runs a SELECT expected to return exactly one value.
func (c *Conn) QueryValue(sql string, args ...types.Value) (types.Value, error) {
	res, err := c.Query(sql, args...)
	if err != nil {
		return types.Null, err
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return types.Null, fmt.Errorf("client: expected a single value, got %d rows", len(res.Rows))
	}
	return res.Rows[0][0], nil
}

// QueryInt runs a SELECT expected to return exactly one integer.
func (c *Conn) QueryInt(sql string, args ...types.Value) (int64, error) {
	v, err := c.QueryValue(sql, args...)
	if err != nil {
		return 0, err
	}
	return v.AsInt()
}

// NextID allocates a unique id server-side (safe across sessions).
func (c *Conn) NextID(table string) (int64, error) {
	var id int64
	err := c.roundTrip(wire.FrameNextID, wire.AppendString(wire.NewFrame(0), table), func(typ byte, p []byte) (err error) {
		if p, err = expect(wire.FrameID, typ, p); err == nil {
			id, err = wire.DecodeID(p)
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	return id, nil
}

// InsertRow inserts one row given column→value pairs, returning its tid.
func (c *Conn) InsertRow(table string, vals map[string]types.Value) (int64, error) {
	cols := make([]string, 0, len(vals))
	for col := range vals {
		cols = append(cols, col)
	}
	sort.Strings(cols)
	placeholders := ""
	args := make([]types.Value, 0, len(cols))
	colList := ""
	for i, col := range cols {
		if i > 0 {
			colList += ", "
			placeholders += ", "
		}
		colList += col
		placeholders += "?"
		args = append(args, vals[col])
	}
	res, err := c.Exec(fmt.Sprintf("INSERT INTO %s (%s) VALUES (%s)", table, colList, placeholders), args...)
	if err != nil {
		return 0, err
	}
	if len(res.TIDs) != 1 {
		return 0, fmt.Errorf("client: insert affected %d rows", len(res.TIDs))
	}
	return res.TIDs[0], nil
}

// TableNames lists the server's tables.
func (c *Conn) TableNames() ([]string, error) {
	var names []string
	err := c.roundTrip(wire.FrameTables, wire.NewFrame(0), func(typ byte, p []byte) (err error) {
		if p, err = expect(wire.FrameNames, typ, p); err == nil {
			names, err = wire.DecodeNames(p)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return names, nil
}

// Ping performs a wire round trip, dialing if needed.
func (c *Conn) Ping() error {
	return c.roundTrip(wire.FramePing, wire.NewFrame(0), func(typ byte, p []byte) error {
		_, err := expect(wire.FramePong, typ, p)
		return err
	})
}

// ------------------------------------------------------------ transactions

// Begin opens a transaction pinned to one wire connection. Until
// Commit or Rollback, every statement from this driver uses it.
func (c *Conn) Begin() error {
	c.mu.Lock()
	if c.txn != nil {
		c.mu.Unlock()
		return fmt.Errorf("client: transaction already open")
	}
	c.mu.Unlock()
	wc, _, _, err := c.get()
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.txn = wc
	c.mu.Unlock()
	if _, err := c.Exec("BEGIN"); err != nil {
		c.mu.Lock()
		c.txn = nil
		c.mu.Unlock()
		c.put(wc)
		return err
	}
	return nil
}

// Commit commits the open transaction and unpins its connection.
func (c *Conn) Commit() error { return c.endTxn("COMMIT") }

// Rollback aborts the open transaction and unpins its connection.
func (c *Conn) Rollback() error { return c.endTxn("ROLLBACK") }

func (c *Conn) endTxn(stmt string) error {
	c.mu.Lock()
	wc := c.txn
	c.mu.Unlock()
	if wc == nil {
		return fmt.Errorf("client: no open transaction")
	}
	_, err := c.Exec(stmt)
	// Unpin no matter what. Two failure shapes reach here: a transport
	// error (roundTrip already closed wc and cleared the pin) and a
	// server-side error frame (wc is alive but its transaction state is
	// not ours to reason about). Previously the second shape left the
	// connection pinned-but-orphaned — never pooled, never closed, one
	// leaked socket per failed COMMIT/ROLLBACK. Now a failed end-of-
	// transaction always discards the connection; only success pools it.
	c.mu.Lock()
	stillPinned := c.txn == wc
	c.txn = nil
	c.mu.Unlock()
	if err == nil {
		c.put(wc)
		return nil
	}
	if stillPinned {
		c.mTxnDiscards.Inc()
		wc.c.Close()
	}
	return err
}

// Close tears down every pooled connection. An open transaction is
// abandoned (the server rolls it back on disconnect).
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := c.idle
	c.idle = nil
	if c.txn != nil {
		conns = append(conns, c.txn)
		c.txn = nil
	}
	c.mu.Unlock()
	for _, wc := range conns {
		wc.c.Close()
	}
	return nil
}

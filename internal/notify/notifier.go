package notify

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"ediflow/internal/database"
	"ediflow/internal/engine"
	"ediflow/internal/metrics"
	"ediflow/internal/types"
)

// Default network budgets. One dead or stalled client must never hold
// up NOTIFY delivery to the others, so dials happen asynchronously with
// a connect timeout and every send goes through a bounded per-connection
// queue drained by its own writer goroutine under a write deadline.
const (
	defaultDialTimeout  = 2 * time.Second
	defaultWriteTimeout = 5 * time.Second
	sendQueueLen        = 256
)

// Notifier is the DBMS side of the protocol. It journals every change
// event as a compact tuple in the Notification table, inside the
// statement's own commit (engine.Journal), and after the fsync pushes
// NOTIFY lines to each ConnectedUser socket registered for the table.
type Notifier struct {
	db *database.DB

	dialTimeout  time.Duration
	writeTimeout time.Duration
	dialFn       func(addr string, timeout time.Duration) (net.Conn, error)

	mu     sync.Mutex
	conns  map[int64]*serverConn // ConnectedUser id → connection
	closed bool
	wg     sync.WaitGroup // dial + writer goroutines

	// Metrics live in the database's shared registry, so they surface in
	// SYS_METRICS next to engine and WAL counters.
	reg           *metrics.Registry
	mDials        *metrics.Counter
	mDialErrors   *metrics.Counter
	mSent         *metrics.Counter
	mDroppedLines *metrics.Counter
	mDroppedConns *metrics.Counter
	mCoalesced    *metrics.Counter
	mAcks         *metrics.Counter
	mRefreshLagH  *metrics.Histogram
}

// NotifierOption tunes NewNotifier.
type NotifierOption func(*Notifier)

// WithDialTimeout bounds the dial-back connect + handshake to a client.
func WithDialTimeout(d time.Duration) NotifierOption {
	return func(n *Notifier) { n.dialTimeout = d }
}

// WithWriteTimeout bounds each NOTIFY write to a client socket.
func WithWriteTimeout(d time.Duration) NotifierOption {
	return func(n *Notifier) { n.writeTimeout = d }
}

// WithDialer replaces the transport used for dial-backs (default
// net.DialTimeout over TCP). Tests inject fault-wrapped dialers here.
func WithDialer(fn func(addr string, timeout time.Duration) (net.Conn, error)) NotifierOption {
	return func(n *Notifier) { n.dialFn = fn }
}

type serverConn struct {
	id    int64
	table string
	c     net.Conn
	w     *bufio.Writer
	out   chan string   // pending NOTIFY lines
	done  chan struct{} // closed when the writer goroutine exits
	once  sync.Once     // guards teardown
}

// teardown closes the socket and the send queue exactly once, however
// many paths (write failure, read EOF, re-registration, Close) race to
// retire the connection.
func (sc *serverConn) teardown() {
	sc.once.Do(func() {
		sc.c.Close()
		close(sc.out)
	})
}

// NewNotifier attaches a notifier to the database and dials back any
// registrations already present in ConnectedUser (recovery after restart:
// stale entries that refuse the connection are removed).
func NewNotifier(db *database.DB, opts ...NotifierOption) (*Notifier, error) {
	n := &Notifier{
		db:           db,
		conns:        map[int64]*serverConn{},
		dialTimeout:  defaultDialTimeout,
		writeTimeout: defaultWriteTimeout,
		dialFn: func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		},
	}
	for _, o := range opts {
		o(n)
	}
	n.reg = db.Metrics()
	n.mDials = n.reg.Counter("notify.dials")
	n.mDialErrors = n.reg.Counter("notify.dial_errors")
	n.mSent = n.reg.Counter("notify.sent")
	n.mDroppedLines = n.reg.Counter("notify.dropped_lines")
	n.mDroppedConns = n.reg.Counter("notify.dropped_conns")
	n.mCoalesced = n.reg.Counter("notify.coalesced")
	n.mAcks = n.reg.Counter("tablesync.acks")
	n.mRefreshLagH = n.reg.Histogram("tablesync.refresh_lag")
	n.reg.RegisterGauge("notify.connections", func() int64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		return int64(len(n.conns))
	})
	n.reg.RegisterGauge("notify.queue_depth", func() int64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		var depth int64
		for _, sc := range n.conns {
			depth += int64(len(sc.out))
		}
		return depth
	})
	// Each statement's notification rows ride its own commit (the
	// paper's statement trigger, §VI-C). Mirror cursors must stay below
	// every new seq too.
	if v, err := db.QueryValue("SELECT MAX(last_seq) FROM " + database.TableConnectedUser); err == nil && !v.IsNull() {
		db.AdvanceSeq(v.Int())
	}
	if err := db.Journal(database.TableNotification, journalRow); err != nil {
		return nil, err
	}
	db.ObserveBatch(n.onBatch)
	if err := n.reconnectExisting(); err != nil {
		return nil, err
	}
	return n, nil
}

// journalRow is the compact Notification tuple of one change event:
// seq_no, ts, tbl, op, tids. Changes to tables outside the protocol
// (skipTable) have none.
func journalRow(ev *engine.ChangeEvent, ts int64) (types.Row, bool) {
	if skipTable(ev.Table) {
		return nil, false
	}
	return types.Row{types.NewInt(ev.Seq), types.NewInt(ts), types.NewString(ev.Table),
		types.NewString(string(ev.Op)), types.NewString(EncodeTIDs(ev.TIDs))}, true
}

func (n *Notifier) reconnectExisting() error {
	res, err := n.db.Query("SELECT id, host, port, tbl FROM " + database.TableConnectedUser)
	if err != nil {
		return err
	}
	for _, r := range res.Rows {
		id := r[0].Int()
		host := r[1].Str()
		port := r[2].Int()
		table := r[3].Str()
		if err := n.dial(id, host, port, table); err != nil {
			// Stale registration from a previous run: drop it.
			n.db.Exec("DELETE FROM "+database.TableConnectedUser+" WHERE id = ?", types.NewInt(id))
		}
	}
	return nil
}

// skipTable reports whether changes to a table are invisible to the
// protocol: bookkeeping system tables (notifying on ef_notification would
// recurse) and view backing tables (their views get events under the view
// name). The visualization tables are exempt — VisualAttributes changes
// are precisely what drives the display refresh chain of Figure 8.
func skipTable(name string) bool {
	lower := strings.ToLower(name)
	switch lower {
	case "ef_visual_attributes", "ef_visualization", "ef_vis_component":
		return false
	}
	return strings.HasPrefix(lower, "ef_") || strings.HasPrefix(lower, "__")
}

// onBatch is the engine batch observer. The Notification tuples are
// already written, each in its statement's own commit (see journalRow);
// what is left runs after the fsync: registrations, acks, and the NOTIFY
// doorbell. One call covers a whole dispatch batch — a single statement's
// events when the system is idle, many statements' when autocommit
// writers are concurrent — and pushes at most one NOTIFY per (table,
// batch). Coalescing is safe because NOTIFY is only a doorbell: mirrors
// refresh by reading everything past their last_seq cursor from the
// Notification table, so the newest seq subsumes the per-statement lines
// an uncoalesced notifier would have sent (counted in notify.coalesced).
// It must return quickly — registration dial-backs run in their own
// goroutine and NOTIFY delivery only enqueues onto per-connection send
// queues.
func (n *Notifier) onBatch(events []engine.ChangeEvent) {
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return
	}
	type ring struct {
		table string
		seq   int64
		op    engine.ChangeOp
	}
	var few [4]ring
	rings := few[:0] // newest event per table; a batch touches few
	coalesced := 0
next:
	for _, ev := range events {
		// New registration: the DBMS connects back to the client (step 5
		// of the paper's protocol). The dial happens off the observer path
		// so a dead address (connect timeout) cannot stall statement
		// dispatch or delivery to healthy clients.
		if strings.EqualFold(ev.Table, database.TableConnectedUser) {
			if ev.Op == engine.OpInsert {
				for _, row := range ev.Rows {
					// Schema: id, username, host, port, tbl, last_seq.
					id := row[0].Int()
					host := row[2].Str()
					port := row[3].Int()
					table := row[4].Str()
					n.wg.Add(1)
					go func() {
						defer n.wg.Done()
						if err := n.dial(id, host, port, table); err != nil {
							n.db.Exec("DELETE FROM "+database.TableConnectedUser+" WHERE id = ?", types.NewInt(id))
						}
					}()
				}
			}
			if ev.Op == engine.OpUpdate {
				n.observeAcks(ev)
			}
			continue
		}
		if skipTable(ev.Table) {
			continue
		}
		for i := range rings {
			if strings.EqualFold(rings[i].table, ev.Table) {
				coalesced++
				if ev.Seq > rings[i].seq {
					rings[i] = ring{ev.Table, ev.Seq, ev.Op}
				}
				continue next
			}
		}
		rings = append(rings, ring{ev.Table, ev.Seq, ev.Op})
	}
	if len(rings) == 0 {
		return
	}
	n.mCoalesced.Add(int64(coalesced))

	// Push one NOTIFY per table to each client watching it.
	n.mu.Lock()
	for _, r := range rings {
		n.ringLocked(r.table, r.seq, string(r.op))
	}
	n.mu.Unlock()
}

// ringLocked enqueues one NOTIFY line for table at seq on the send queue
// of each client watching it; the line is formatted only when one does.
// Enqueue is non-blocking: if a client's queue is full (stalled reader),
// the line is dropped — safe, because mirrors re-read everything past
// their last_seq from the Notification table on the next refresh. A
// closed notifier has no connections left, so it rings nobody. Caller
// holds n.mu.
func (n *Notifier) ringLocked(table string, seq int64, op string) {
	var line string
	for _, sc := range n.conns {
		if !strings.EqualFold(sc.table, table) {
			continue
		}
		if line == "" {
			line = Message{Verb: MsgNotify, Table: table, Seq: seq, Op: op}.Format() + "\n"
		}
		select {
		case sc.out <- line:
		default:
			n.mDroppedLines.Inc()
		}
	}
}

// observeAcks measures the paper's Figure-8 quantity server-side: the
// time from a notification's creation (ef_notification.ts) to the
// mirror's Ack — the UPDATE bumping ef_connected_user.last_seq. Recorded
// here, in the DBMS, the lag covers NOTIFY push, client fetch, local
// apply and the Ack round trip, and lands in the server's SYS_METRICS
// where remote operators can SELECT it.
func (n *Notifier) observeAcks(ev engine.ChangeEvent) {
	for i, row := range ev.Rows {
		if len(row) < 6 {
			continue
		}
		seq := row[5].Int()
		if seq <= 0 {
			continue
		}
		// Only a change of last_seq is an ack; other updates to the
		// registration row are not.
		if i < len(ev.OldRows) && len(ev.OldRows[i]) >= 6 && ev.OldRows[i][5].Int() == seq {
			continue
		}
		v, err := n.db.QueryValue(
			"SELECT ts FROM "+database.TableNotification+" WHERE seq_no = ?", types.NewInt(seq))
		if err != nil || v.IsNull() {
			continue // already purged, or ack for an unknown seq
		}
		lag := time.Duration(time.Now().UnixNano() - v.Int())
		if lag < 0 {
			lag = 0
		}
		n.mAcks.Inc()
		n.mRefreshLagH.Observe(lag)
	}
}

// PushNotify rings the NOTIFY doorbell for table at seq without a
// local change event. The replication loop on a replica calls it when
// a replicated ef_notification row arrives: the data rows and the
// journal row are already applied locally by the WAL shipping, so
// mirrors attached to this node only need the wakeup. Delivery is
// onBatch's (ringLocked).
func (n *Notifier) PushNotify(table string, seq int64, op string) {
	n.mu.Lock()
	n.ringLocked(table, seq, op)
	n.mu.Unlock()
}

// writeLoop drains one connection's send queue. A write that exceeds the
// deadline marks the client dead and drops it.
func (n *Notifier) writeLoop(sc *serverConn) {
	defer n.wg.Done()
	defer close(sc.done)
	for line := range sc.out {
		sc.c.SetWriteDeadline(time.Now().Add(n.writeTimeout))
		if _, err := sc.w.WriteString(line); err != nil {
			n.drop(sc)
			return
		}
		if err := sc.w.Flush(); err != nil {
			n.drop(sc)
			return
		}
		n.mSent.Inc()
	}
}

// dial connects back to a registered client, counting failures.
func (n *Notifier) dial(id int64, host string, port int64, table string) error {
	err := n.dialBack(id, host, port, table)
	if err != nil {
		n.mDialErrors.Inc()
	}
	return err
}

// dialBack connects back to a registered client and performs the
// HELLO/REPLY handshake (protocol steps 5–6) under the connect timeout.
func (n *Notifier) dialBack(id int64, host string, port int64, table string) error {
	c, err := n.dialFn(fmt.Sprintf("%s:%d", host, port), n.dialTimeout)
	if err != nil {
		return err
	}
	r := bufio.NewReader(c)
	c.SetReadDeadline(time.Now().Add(n.dialTimeout))
	line, err := r.ReadString('\n')
	if err != nil {
		c.Close()
		return err
	}
	msg, err := ParseMessage(line)
	if err != nil || msg.Verb != MsgHello {
		c.Close()
		return fmt.Errorf("notify: expected HELLO, got %q", line)
	}
	w := bufio.NewWriter(c)
	sc := &serverConn{id: id, table: table, c: c, w: w,
		out: make(chan string, sendQueueLen), done: make(chan struct{})}
	// Publish before REPLY: Connect returns on REPLY, so the client's
	// very next commit may fan out before this function gets any
	// further, and a fan-out that misses the new connection is a lost
	// doorbell. Lines queue in sc.out until the writer starts below.
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		c.Close()
		return fmt.Errorf("notify: notifier closed")
	}
	// A re-registration (or a racing reconnect) may find an older
	// connection under the same id. Displace it and tear it down — the
	// old writer goroutine must not be left blocked on a channel nobody
	// closes, and its later drop() must not take this new connection
	// down with it (removal is identity-checked for that reason).
	old := n.conns[id]
	n.conns[id] = sc
	n.mu.Unlock()
	if old != nil {
		old.teardown()
	}
	c.SetWriteDeadline(time.Now().Add(n.writeTimeout))
	_, err = w.WriteString(Message{Verb: MsgReply}.Format() + "\n")
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		n.mu.Lock()
		if n.conns[id] == sc {
			delete(n.conns, id)
		}
		n.mu.Unlock()
		sc.teardown()
		return err
	}
	c.SetReadDeadline(time.Time{})
	c.SetWriteDeadline(time.Time{})
	n.mDials.Inc()
	n.wg.Add(1)
	go n.writeLoop(sc)
	// Read loop: waits for DISCONNECT (protocol step 10) or EOF.
	go func() {
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				n.drop(sc)
				return
			}
			msg, err := ParseMessage(line)
			if err == nil && msg.Verb == MsgDisconnect {
				n.drop(sc)
				return
			}
		}
	}()
	return nil
}

// drop retires one specific connection and removes its ConnectedUser
// entry. The map delete is identity-checked: if the id has already been
// re-registered with a fresh connection, that newcomer is left alone and
// only sc itself is torn down. Together with the sync.Once in teardown,
// this makes drop safe against the drop/drop, drop/Close and
// drop/redial races the old id-keyed version double-closed under.
func (n *Notifier) drop(sc *serverConn) {
	n.mu.Lock()
	registered := n.conns[sc.id] == sc
	if registered {
		delete(n.conns, sc.id)
	}
	closed := n.closed
	n.mu.Unlock()
	sc.teardown()
	if registered {
		n.mDroppedConns.Inc()
	}
	if registered && !closed {
		n.db.Exec("DELETE FROM "+database.TableConnectedUser+" WHERE id = ?", types.NewInt(sc.id))
	}
}

// ConnectionCount returns the number of live client connections.
func (n *Notifier) ConnectionCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.conns)
}

// Purge removes Notification rows already consumed by every connected
// client (protocol step 11). With no clients connected, nothing is purged
// (a late joiner may still replay).
func (n *Notifier) Purge() (int, error) {
	res, err := n.db.Query("SELECT MIN(last_seq) FROM " + database.TableConnectedUser)
	if err != nil {
		return 0, err
	}
	if len(res.Rows) != 1 || res.Rows[0][0].IsNull() {
		return 0, nil
	}
	min := res.Rows[0][0]
	del, err := n.db.Exec("DELETE FROM "+database.TableNotification+" WHERE seq_no < ?", min)
	if err != nil {
		return 0, err
	}
	return del.Affected, nil
}

// AutoPurge starts a goroutine applying the purge rule (protocol step 11)
// at the given interval until Close. It returns a stop function.
func (n *Notifier) AutoPurge(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				n.mu.Lock()
				closed := n.closed
				n.mu.Unlock()
				if closed {
					return
				}
				n.Purge()
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// Close tears down every connection. ConnectedUser entries are left in
// place so a restarted notifier can attempt reconnection.
func (n *Notifier) Close() {
	n.db.Journal(database.TableNotification, nil)
	n.mu.Lock()
	n.closed = true
	conns := make([]*serverConn, 0, len(n.conns))
	for _, sc := range n.conns {
		conns = append(conns, sc)
	}
	n.conns = map[int64]*serverConn{}
	n.mu.Unlock()
	for _, sc := range conns {
		sc.teardown()
	}
	n.wg.Wait()
}

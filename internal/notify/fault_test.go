package notify

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"ediflow/internal/database"
	"ediflow/internal/fault"
	"ediflow/internal/types"
)

// A dial-back whose connection drops right after the handshake (mid-
// flight network failure) must retire the registration, close the
// connection exactly once, and leak no goroutines — however many paths
// (write failure, read failure) race to tear it down.
func TestDialBackDropRemovesRegistration(t *testing.T) {
	baseline := runtime.NumGoroutine()

	db := database.MustOpenMemory()
	faults := &fault.Faults{}
	dialer := &fault.Dialer{Faults: faults}
	n, err := NewNotifier(db,
		WithDialer(dialer.Dial),
		WithWriteTimeout(300*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE authors (id INT PRIMARY KEY, name STRING)"); err != nil {
		t.Fatal(err)
	}
	cl, err := Connect(db, "viz", "authors")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO authors VALUES (1, 'a')"); err != nil {
		t.Fatal(err)
	}
	waitMsg(t, cl)

	// The network dies under the established dial-back. The next NOTIFY
	// write fails; the notifier must drop the client and its row.
	faults.SetDrop(true)
	if _, err := db.Exec("INSERT INTO authors VALUES (2, 'b')"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		cnt, err := db.QueryInt("SELECT COUNT(*) FROM " + database.TableConnectedUser)
		if err != nil {
			t.Fatal(err)
		}
		if cnt == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dropped dial-back's registration never removed")
		}
		time.Sleep(20 * time.Millisecond)
	}

	n.Close()
	cl.CloseAbrupt()
	db.Close()
	for _, wc := range dialer.Conns() {
		if got := wc.CloseCalls(); got > 1 {
			t.Errorf("dial-back connection closed %d times", got)
		}
	}
	if got := fault.Settle(baseline, 2*time.Second); got > baseline {
		t.Errorf("goroutines leaked: %d, baseline %d", got, baseline)
	}
}

// A blackholed dial-back (TCP connects, but the HELLO never arrives)
// must fail at the handshake deadline and remove the stale registration.
func TestBlackholedDialBackTimesOutAndCleansUp(t *testing.T) {
	baseline := runtime.NumGoroutine()

	db := database.MustOpenMemory()
	faults := &fault.Faults{}
	faults.SetBlackhole(true)
	dialer := &fault.Dialer{Faults: faults}
	n, err := NewNotifier(db,
		WithDialer(dialer.Dial),
		WithDialTimeout(150*time.Millisecond),
		WithWriteTimeout(150*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE authors (id INT PRIMARY KEY, name STRING)"); err != nil {
		t.Fatal(err)
	}

	// A listener that accepts (so TCP succeeds) backs the registration;
	// the blackhole eats its HELLO.
	hole, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hole.Close()
	go func() {
		for {
			c, err := hole.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()
	port := hole.Addr().(*net.TCPAddr).Port
	id, _ := db.NextID(database.TableConnectedUser)
	if _, err := db.Exec("INSERT INTO "+database.TableConnectedUser+
		" (id, username, host, port, tbl, last_seq) VALUES (?, 'hole', '127.0.0.1', ?, 'authors', 0)",
		types.NewInt(id), types.NewInt(int64(port))); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(3 * time.Second)
	for {
		cnt, err := db.QueryInt("SELECT COUNT(*) FROM "+database.TableConnectedUser+" WHERE id = ?", types.NewInt(id))
		if err != nil {
			t.Fatal(err)
		}
		if cnt == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blackholed registration never removed")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if n.reg.Counter("notify.dial_errors").Value() == 0 {
		t.Error("dial_errors not counted for the blackholed dial-back")
	}

	n.Close()
	db.Close()
	hole.Close() // stop the accept goroutine before counting
	if got := fault.Settle(baseline, 2*time.Second); got > baseline {
		t.Errorf("goroutines leaked: %d, baseline %d", got, baseline)
	}
}

// gatedConn parks its first Write — the dial-back's REPLY — until
// released, so a test can act inside the registration handshake.
type gatedConn struct {
	net.Conn
	once    sync.Once
	entered chan struct{} // closed when the first Write is reached
	release chan struct{} // close to let it through
}

func (g *gatedConn) Write(p []byte) (int, error) {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return g.Conn.Write(p)
}

// A commit that lands while the dial-back's REPLY is still in flight —
// Connect returns on REPLY, so from the client's side this is "the first
// edit after registering" — must ring the new client's doorbell: the
// connection has to be in the fan-out map before REPLY is written, with
// the NOTIFY queued behind it. The REPLY write is held at the dialer
// seam, the commit runs, then the write is released; no timing involved.
func TestCommitDuringReplyIsNotLost(t *testing.T) {
	db := database.MustOpenMemory()
	defer db.Close()
	gate := &gatedConn{entered: make(chan struct{}), release: make(chan struct{})}
	n, err := NewNotifier(db, WithDialer(func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		gate.Conn = c
		return gate, err
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := db.Exec("CREATE TABLE authors (id INT PRIMARY KEY, name STRING)"); err != nil {
		t.Fatal(err)
	}

	type connected struct {
		cl  *Client
		err error
	}
	done := make(chan connected, 1)
	go func() {
		cl, err := Connect(db, "viz", "authors")
		done <- connected{cl, err}
	}()
	<-gate.entered // HELLO read, REPLY about to be written
	if _, err := db.Exec("INSERT INTO authors VALUES (1, 'a')"); err != nil {
		t.Fatal(err)
	}
	close(gate.release)
	c := <-done
	if c.err != nil {
		t.Fatal(c.err)
	}
	defer c.cl.Close()
	if m := waitMsg(t, c.cl); m.Op != "INSERT" || m.Table != "authors" {
		t.Fatalf("got %+v, want the INSERT on authors", m)
	}
}

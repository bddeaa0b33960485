package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ediflow/internal/client"
	"ediflow/internal/database"
	"ediflow/internal/engine"
	"ediflow/internal/fault"
	"ediflow/internal/metrics"
	"ediflow/internal/module"
	"ediflow/internal/notify"
	"ediflow/internal/server"
	"ediflow/internal/storage"
	"ediflow/internal/types"
	"ediflow/internal/wf/enact"
)

// interactionTimeout is how long a user-visible interaction may take
// before it counts as failed (and as missing every latency figure).
const interactionTimeout = 2 * time.Second

// platform is what ediflow.Open assembles — database, notifier, procedure
// registry, workflow engine and optionally a TCP server — built from the
// same constructors, because ediflow.Open cannot take storage options and
// two workloads need fsync-on-commit.
type platform struct {
	db       *database.DB
	notifier *notify.Notifier
	registry *module.Registry
	wf       *enact.Engine
	srv      *server.Server
	hooks    *hooks
	tr       *tracer // nil in the untraced pass
}

// hooks are the benchmark-owned wrappers around the seams the program
// offers. They exist only in the traced pass; the untraced pass runs the
// program on the real OS and real sockets with nothing in between.
type hooks struct {
	fs  *countingFS
	net *netCounter
}

func newHooks() *hooks {
	return &hooks{fs: &countingFS{}, net: &netCounter{}}
}

// openPlatform opens a database in dir ("" = in-memory) and attaches the
// notifier and the workflow engine. Durable stores fsync on every commit.
// observe, when not nil, is installed as a batch observer ahead of the
// notifier's, so that it sees each dispatch batch right after the triggers
// and before any NOTIFY work.
func openPlatform(dir string, h *hooks, observe func([]engine.ChangeEvent)) (*platform, error) {
	opts := storage.Options{}
	if dir != "" {
		opts.Sync = storage.SyncCommit
		if h != nil {
			opts.FS = h.fs
		}
	}
	db, err := database.OpenWith(dir, opts)
	if err != nil {
		return nil, err
	}
	if observe != nil {
		db.ObserveBatch(observe)
	}
	var nopts []notify.NotifierOption
	if h != nil {
		nopts = append(nopts, notify.WithDialer(h.net.dial))
	}
	n, err := notify.NewNotifier(db, nopts...)
	if err != nil {
		db.Close()
		return nil, err
	}
	reg := module.NewRegistry()
	quiet := func(string, ...any) {}
	return &platform{db: db, notifier: n, registry: reg,
		wf: enact.NewEngine(db, reg, enact.WithLogf(quiet)), hooks: h}, nil
}

// serve exposes the database on a loopback port and returns its address.
func (p *platform) serve() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	if p.hooks != nil {
		ln = &countingListener{Listener: ln, nc: p.hooks.net}
	}
	p.srv = server.New(p.db, server.Config{})
	if err := p.srv.Serve(ln); err != nil {
		return "", err
	}
	return p.srv.Addr(), nil
}

// dial opens one client connection to the platform's server.
func (p *platform) dial(addr, name string) (*client.Conn, error) {
	opts := client.Options{ClientName: name, ReadTimeout: 20 * time.Second}
	if p.hooks != nil {
		opts.Dialer = p.hooks.net.dial
	}
	return client.Dial(addr, opts)
}

func (p *platform) close() error {
	if p.srv != nil {
		p.srv.Close()
	}
	p.wf.Close()
	p.notifier.Close()
	return p.db.Close()
}

// ---------------------------------------------------------------- fs seam

// countingFS passes every call through to the real OS and counts what the
// store writes and how long each write and fsync takes.
type countingFS struct {
	fault.OS
	writeCalls atomic.Int64
	writeBytes atomic.Int64
	writeNS    atomic.Int64
	mu         sync.Mutex
	syncs      []time.Duration
}

type countingFile struct {
	fault.File
	fs *countingFS
}

func (f *countingFS) wrap(file fault.File, err error) (fault.File, error) {
	if err != nil {
		return nil, err
	}
	return &countingFile{File: file, fs: f}, nil
}

func (f *countingFS) Create(name string) (fault.File, error) { return f.wrap(f.OS.Create(name)) }
func (f *countingFS) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	return f.wrap(f.OS.OpenFile(name, flag, perm))
}

func (f *countingFS) syncSamples() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Duration(nil), f.syncs...)
}

func (f *countingFS) wrote(t0 time.Time, n int) {
	f.writeNS.Add(int64(time.Since(t0)))
	f.writeCalls.Add(1)
	f.writeBytes.Add(int64(n))
}

func (cf *countingFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := cf.File.Write(p)
	cf.fs.wrote(t0, n)
	return n, err
}

func (cf *countingFile) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := cf.File.WriteAt(p, off)
	cf.fs.wrote(t0, n)
	return n, err
}

func (cf *countingFile) Sync() error {
	t0 := time.Now()
	err := cf.File.Sync()
	d := time.Since(t0)
	cf.fs.mu.Lock()
	cf.fs.syncs = append(cf.fs.syncs, d)
	cf.fs.mu.Unlock()
	return err
}

// --------------------------------------------------------------- net seam

// netCounter counts the bytes and write calls of every socket the program
// opens through a benchmark-supplied dialer or listener: both ends of the
// wire protocol and the notifier's dial-back sockets.
type netCounter struct {
	bytes  atomic.Int64
	writes atomic.Int64
}

type countingConn struct {
	net.Conn
	nc *netCounter
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.nc.bytes.Add(int64(n))
	c.nc.writes.Add(1)
	return n, err
}

func (nc *netCounter) dial(addr string, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, nc: nc}, nil
}

type countingListener struct {
	net.Listener
	nc *netCounter
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, nc: l.nc}, nil
}

// -------------------------------------------------------------- conn seam

// tracedConn is the driver.Conn a traced mirror runs over: it forwards to
// the real client connection and records one span per round trip under
// whatever span the driver has open (a Refresh, an initial load).
type tracedConn struct {
	*client.Conn
	tr          *tracer
	parent      int64
	interaction int64
}

func (c *tracedConn) Exec(sql string, args ...types.Value) (*engine.Result, error) {
	t0 := time.Now()
	res, err := c.Conn.Exec(sql, args...)
	c.tr.add(0, c.parent, c.interaction, "client.exec", t0, time.Now())
	return res, err
}

func (c *tracedConn) Query(sql string, args ...types.Value) (*engine.Result, error) {
	t0 := time.Now()
	res, err := c.Conn.Query(sql, args...)
	c.tr.add(0, c.parent, c.interaction, "client.query", t0, time.Now())
	return res, err
}

func (c *tracedConn) QueryValue(sql string, args ...types.Value) (types.Value, error) {
	t0 := time.Now()
	v, err := c.Conn.QueryValue(sql, args...)
	c.tr.add(0, c.parent, c.interaction, "client.query", t0, time.Now())
	return v, err
}

// ------------------------------------------------------------ accounting

// procStats is a point-in-time reading of what the process has consumed.
type procStats struct {
	totalAlloc uint64
	numGC      uint32
	pauseNS    uint64
	cpu        time.Duration
}

func readProc() procStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	ps := procStats{totalAlloc: m.TotalAlloc, numGC: m.NumGC, pauseNS: m.PauseTotalNs}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		ps.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return ps
}

// allocBytes returns the bytes the process has allocated so far. It is
// cheaper than readProc and is used around single calls.
func allocBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// settledHeap forces two collections and returns the live heap in bytes.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// counters is a reading of the program's own metrics registry.
type counters map[string]metrics.Sample

func readCounters(reg *metrics.Registry) counters {
	out := counters{}
	for _, s := range reg.Snapshot() {
		out[s.Name] = s
	}
	return out
}

// delta is how far a counter moved between two readings.
func (c counters) delta(since counters, name string) float64 {
	return float64(c[name].Count - since[name].Count)
}

// ratio is a/b, or 0 when b is 0: a per-layer ratio whose base did not
// occur in a workload reads 0 there.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// check is one correctness assertion of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// checks collects assertions; a run is correct when all of them hold.
type checks []check

func (cs *checks) add(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	*cs = append(*cs, c)
}

func (cs checks) allOK() bool {
	for _, c := range cs {
		if !c.OK {
			return false
		}
	}
	return true
}

// checkCounters requires that the program never left its fast paths or
// lost anything while the workload ran: no expression fell back to the
// interpreter, no delta was shed, no NOTIFY line was dropped.
func checkCounters(cs *checks, reg *metrics.Registry) {
	c := readCounters(reg)
	for _, name := range []string{"vm.fallback", "react.shed", "notify.dropped_lines"} {
		cs.add(name+" = 0", c[name].Count == 0, "%d", c[name].Count)
	}
}

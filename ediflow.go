// Package ediflow is the public API of the EdiFlow platform — a
// reproduction of "EdiFlow: data-intensive interactive workflows for
// visual analytics" (Benzaken, Fekete, Hémery, Khemiri, Manolescu,
// ICDE 2011).
//
// EdiFlow couples a persistent relational database with a workflow engine
// and a visualization layer:
//
//   - all state — application data, process definitions, process-instance
//     bookkeeping and visual attributes — lives in one embedded database
//     with WAL durability, statement-level triggers and incrementally
//     maintained materialized views;
//   - processes are declared in XML (sequence, AND/OR split-join,
//     conditionals; activities assign variables, run SQL, call black-box
//     procedures or ask users) and react to data changes through
//     update-propagation actions routed to procedure delta handlers;
//   - visualization components compute visual attributes once into a
//     shared table; any number of display views mirror that table over a
//     compact TCP notification protocol and refresh incrementally.
//
// Quickstart:
//
//	p, err := ediflow.Open("")             // in-memory platform
//	defer p.Close()
//	p.Exec("CREATE TABLE points (id INT PRIMARY KEY, v FLOAT)")
//	p.Procedures().Register("analyze", func() module.Procedure { ... })
//	proc, _ := p.DeployXML(processXML)
//	inst, _ := p.Start(proc.Name, "ana")
//	inst.Wait()
package ediflow

import (
	"sync"
	"time"

	"ediflow/internal/client"
	"ediflow/internal/database"
	"ediflow/internal/driver"
	"ediflow/internal/engine"
	"ediflow/internal/metrics"
	"ediflow/internal/module"
	"ediflow/internal/notify"
	"ediflow/internal/server"
	"ediflow/internal/tablesync"
	"ediflow/internal/types"
	"ediflow/internal/vis"
	"ediflow/internal/wf"
	"ediflow/internal/wf/enact"
	"ediflow/internal/wf/isolation"
)

// Re-exported core types, so callers interact with one import path.
type (
	// Value is a dynamically typed SQL value.
	Value = types.Value
	// Row is a tuple of values.
	Row = types.Row
	// Result is the outcome of a statement.
	Result = engine.Result
	// ChangeEvent is a statement-level change notification.
	ChangeEvent = engine.ChangeEvent
	// Process is a parsed process definition.
	Process = wf.Process
	// Instance is a running process instance.
	Instance = enact.Instance
	// Procedure is the black-box computation interface (§VI-D).
	Procedure = module.Procedure
	// ProcEnv is the environment handed to procedures.
	ProcEnv = module.Env
	// Delta describes a propagated data change.
	Delta = module.Delta
	// Mirror is a client-side in-memory table image (R_M).
	Mirror = tablesync.Mirror
	// Visualization groups visualization components.
	Visualization = vis.Visualization
	// Component assigns visual attributes to data items.
	Component = vis.Component
	// Attr is one item's visual attributes.
	Attr = vis.Attr
	// View is one display over shared visual attributes.
	View = vis.View
	// UserAgent answers askUser activities.
	UserAgent = enact.UserAgent
	// AgentFunc adapts a function to UserAgent.
	AgentFunc = enact.AgentFunc
	// Conn is the minimal database surface shared by the embedded DB and
	// the network client: tablesync/notify accept either, so code runs
	// unchanged in-process or against a remote ediserver (Fig. 3).
	Conn = driver.Conn
	// RemoteConn is a pooled client connection to an ediserver.
	RemoteConn = client.Conn
	// RemoteOptions tunes Dial (timeouts, pool size, retry backoff).
	RemoteOptions = client.Options
	// BatchStmt is one statement of a pipelined RemoteConn.ExecBatch
	// frame: many statements per network round trip.
	BatchStmt = client.BatchStmt
	// Server serves this platform's database over TCP.
	Server = server.Server
	// ServerConfig tunes Serve.
	ServerConfig = server.Config
)

// Value constructors, re-exported.
var (
	// Null is the NULL value.
	Null = types.Null
	// NewInt builds an INT value.
	NewInt = types.NewInt
	// NewFloat builds a FLOAT value.
	NewFloat = types.NewFloat
	// NewString builds a STRING value.
	NewString = types.NewString
	// NewBool builds a BOOL value.
	NewBool = types.NewBool
	// NewTime builds a TIME value.
	NewTime = types.NewTime
)

// System table names of the unified data model (Figure 3).
const (
	TableProcess          = database.TableProcess
	TableActivity         = database.TableActivity
	TableProcessInstance  = database.TableProcessInstance
	TableActivityInstance = database.TableActivityInstance
	TableNotification     = database.TableNotification
	TableConnectedUser    = database.TableConnectedUser
	TableVisualAttributes = database.TableVisualAttributes
)

// Platform is one EdiFlow deployment: database + notifier + procedure
// registry + workflow engine.
type Platform struct {
	db       *database.DB
	notifier *notify.Notifier
	registry *module.Registry
	wfEngine *enact.Engine
}

// Option configures Open.
type Option func(*config)

type config struct {
	agent enact.UserAgent
	logf  func(format string, args ...any)
}

// WithUserAgent sets the component answering askUser activities.
func WithUserAgent(a UserAgent) Option { return func(c *config) { c.agent = a } }

// WithLogf sets the platform progress logger (default: standard log).
func WithLogf(f func(format string, args ...any)) Option {
	return func(c *config) { c.logf = f }
}

// Open starts a platform over the given storage directory ("" for
// in-memory). It installs the system schema, attaches the notification
// protocol server and builds the workflow engine.
func Open(dir string, opts ...Option) (*Platform, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	db, err := database.Open(dir)
	if err != nil {
		return nil, err
	}
	notifier, err := notify.NewNotifier(db)
	if err != nil {
		db.Close()
		return nil, err
	}
	registry := module.NewRegistry()
	var enactOpts []enact.Option
	if cfg.agent != nil {
		enactOpts = append(enactOpts, enact.WithAgent(cfg.agent))
	}
	if cfg.logf != nil {
		enactOpts = append(enactOpts, enact.WithLogf(cfg.logf))
	}
	wfEngine := enact.NewEngine(db, registry, enactOpts...)
	return &Platform{db: db, notifier: notifier, registry: registry, wfEngine: wfEngine}, nil
}

// MustOpenMemory opens an in-memory platform or panics (tests/examples).
func MustOpenMemory(opts ...Option) *Platform {
	p, err := Open("", opts...)
	if err != nil {
		panic(err)
	}
	return p
}

// Close shuts the platform down (reactive workers first, then the
// notifier, then the database).
func (p *Platform) Close() error {
	p.wfEngine.Close()
	p.notifier.Close()
	return p.db.Close()
}

// Quiesce blocks until the reactive pipeline has drained: every delta
// queued by update propagation has been handed to its delta handler.
// Writers running concurrently can of course queue more.
func (p *Platform) Quiesce() { p.wfEngine.Quiesce() }

// DB exposes the underlying database facade.
func (p *Platform) DB() *database.DB { return p.db }

// Notifier exposes the notification server (purge, connection counts).
func (p *Platform) Notifier() *notify.Notifier { return p.notifier }

// Metrics exposes the platform's metrics registry — the same numbers
// `SELECT * FROM sys_metrics` returns (engine, WAL, server, notifier
// and tablesync instrumentation all record here).
func (p *Platform) Metrics() *metrics.Registry { return p.db.Metrics() }

// SlowLog exposes the slow-query ring buffer backing sys_slow_queries.
func (p *Platform) SlowLog() *metrics.SlowLog { return p.db.SlowLog() }

// Procedures exposes the procedure registry.
func (p *Platform) Procedures() *module.Registry { return p.registry }

// Workflows exposes the enactment engine.
func (p *Platform) Workflows() *enact.Engine { return p.wfEngine }

// Isolation exposes the §VI-A isolation manager.
func (p *Platform) Isolation() *isolation.Manager { return p.wfEngine.Isolation() }

// Exec runs one SQL statement.
func (p *Platform) Exec(sql string, args ...Value) (*Result, error) {
	return p.db.Exec(sql, args...)
}

// ExecScript runs a ';'-separated SQL script.
func (p *Platform) ExecScript(sql string, args ...Value) (*Result, error) {
	return p.db.ExecScript(sql, args...)
}

// Query runs a SELECT.
func (p *Platform) Query(sql string, args ...Value) (*Result, error) {
	return p.db.Query(sql, args...)
}

// QueryInt runs a single-value integer SELECT.
func (p *Platform) QueryInt(sql string, args ...Value) (int64, error) {
	return p.db.QueryInt(sql, args...)
}

// Checkpoint snapshots durable storage and truncates the WAL.
func (p *Platform) Checkpoint() error { return p.db.Checkpoint() }

// DeployXML parses, validates and deploys a process definition.
func (p *Platform) DeployXML(xmlText string) (*Process, error) {
	return p.wfEngine.DeployXML(xmlText)
}

// Deploy deploys an already-parsed process.
func (p *Platform) Deploy(proc *Process) error { return p.wfEngine.Deploy(proc) }

// Start launches a process instance on behalf of a user.
func (p *Platform) Start(processName, user string) (*Instance, error) {
	return p.wfEngine.Start(processName, user)
}

// Mirror opens a client-side in-memory image of a table, kept in sync
// through the notification protocol.
func (p *Platform) Mirror(user, table string) (*Mirror, error) {
	return tablesync.NewMirror(p.db, user, table)
}

// Serve exposes the platform's database over TCP at addr (e.g. ":7687",
// "127.0.0.1:0"), the paper's DBMS-on-its-own-machine deployment.
// Remote clients obtained with Dial can Exec/Query, register §VI-C
// notification quadruplets and open mirrors. Close the returned server
// before closing the platform.
func (p *Platform) Serve(addr string, cfg ...ServerConfig) (*Server, error) {
	var c ServerConfig
	if len(cfg) > 0 {
		c = cfg[0]
	}
	srv := server.New(p.db, c)
	if err := srv.Listen(addr); err != nil {
		return nil, err
	}
	return srv, nil
}

// Dial connects to a remote ediserver. The result satisfies Conn, so it
// drops in wherever the embedded database is accepted — including
// NewMirror and notify registration.
func Dial(addr string, opts ...RemoteOptions) (*RemoteConn, error) {
	var o RemoteOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	return client.Dial(addr, o)
}

// NewMirror opens a mirror over any Conn — the embedded DB of a
// Platform or a RemoteConn from Dial. With a remote Conn this is
// exactly the paper's deployment: R_D on the server machine, R_M in
// this process, synchronized over the wire.
func NewMirror(c Conn, user, table string) (*Mirror, error) {
	return tablesync.NewMirror(c, user, table)
}

// NewVisualization registers a visualization.
func (p *Platform) NewVisualization(name string) (*Visualization, error) {
	return vis.NewVisualization(p.db, name)
}

// OpenView opens a display view over a component's visual attributes,
// showing the given fraction of objects (1.0 = all).
func (p *Platform) OpenView(name string, compID int64, fraction float64) (*View, error) {
	return vis.OpenView(p.db, name, compID, fraction)
}

// LinkSelection propagates selection across the components of a
// visualization (Figure 3: selecting an item in one component triggers
// the others to reflect it).
func (p *Platform) LinkSelection(v *Visualization) error {
	return vis.NewSelectionLinker(p.db).Link(v)
}

// AutoMaintain starts background housekeeping for long-running
// deployments: the Notification table is purged of consumed entries
// (§VI-C step 11) and durable storage is checkpointed (snapshot + WAL
// truncation) at the given interval. It returns a stop function.
func (p *Platform) AutoMaintain(interval time.Duration) (stop func()) {
	stopPurge := p.notifier.AutoPurge(interval)
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				p.db.Checkpoint()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			stopPurge()
			close(done)
		})
	}
}

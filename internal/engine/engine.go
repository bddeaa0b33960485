// Package engine implements the SQL execution engine of the EdiFlow
// embedded database: DDL/DML execution, SELECT evaluation (filters,
// joins, grouping, ordering), transactions with an undo log, statement-
// level AFTER triggers (§VI-B of the paper), and maintenance of
// materialized views through the ivm package.
//
// Concurrency model: a single RWMutex serializes writers, and autocommit
// SELECTs do not take it at all — they capture an MVCC snapshot seq from
// the store and iterate version chains with zero engine locks held, so
// long analytical scans never stall the commit queue and committers
// never block readers (§VI-A time-based isolation; see storage/table.go
// and DESIGN.md §13). SELECTs inside an open transaction keep the
// historical locked read-latest path so they observe the transaction's
// own unpublished writes. The write lock covers apply + WAL append only — the durability wait
// (the store's group-commit fsync) happens after the lock is released,
// so concurrent autocommit writers share one fsync instead of
// serializing behind it. Commit order equals WAL append order.
// Statement-level change events are dispatched *after* the durability
// wait succeeds (and, inside a transaction, only after COMMIT), so
// handlers and observers never see writes the disk refused and may
// re-enter the engine. Delivery runs through an ordered queue (see
// settle): events claim their queue position under the write lock, in
// seq/WAL-append order, and one goroutine at a time drains resolved
// entries from the head — so events arrive in global seq order no
// matter how concurrent committers' fsync waits interleave. Delivery has
// one shape: a drained batch of events. Each trigger handler fires once
// per batch with its matching events, then each observer once with the
// whole batch (see deliver).
package engine

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ediflow/internal/catalog"
	"ediflow/internal/metrics"
	"ediflow/internal/sqltext"
	"ediflow/internal/storage"
	"ediflow/internal/types"
)

// ChangeOp is the kind of modification a statement performed.
type ChangeOp string

// Change operations.
const (
	OpInsert ChangeOp = "INSERT"
	OpUpdate ChangeOp = "UPDATE"
	OpDelete ChangeOp = "DELETE"
	// OpBatch marks a delta coalesced from events of more than one kind;
	// it never appears on a ChangeEvent, only on batch-level deltas built
	// from them (see internal/wf/react).
	OpBatch ChangeOp = "BATCH"
)

// ChangeEvent describes one statement's effect on one table. It is the
// payload of the paper's statement-level triggers: compact — table, op,
// affected tuple ids and a global sequence number (§VI-C keeps
// notifications "very compact").
type ChangeEvent struct {
	Seq     int64
	Table   string
	Op      ChangeOp
	TIDs    []int64
	Rows    []types.Row // new values (INSERT, UPDATE)
	OldRows []types.Row // previous values (UPDATE, DELETE)
}

// BatchTriggerFunc is a trigger handler: it receives all of a drained
// dispatch batch's matching events in one call (see RegisterBatchHandler).
type BatchTriggerFunc func([]ChangeEvent)

// Result is the outcome of one statement. A SELECT's Columns are its
// plan's, shared by every execution: read them, do not modify them.
type Result struct {
	Columns  []string
	Rows     []types.Row
	Affected int
	// TIDs are the tuple ids inserted by an INSERT statement, in order.
	TIDs []int64
}

// undoRun is what it takes to reverse one statement's row set: the set's
// tids and rows, shared with its change event.
type undoRun struct {
	op      ChangeOp
	table   string
	tids    []int64
	oldRows []types.Row // update, delete
	newRows []types.Row // insert, update
}

// Engine is one embedded database instance.
type Engine struct {
	mu    sync.RWMutex
	cat   *catalog.Catalog
	store *storage.Store

	// Named Go trigger handlers referenced by CREATE TRIGGER ... CALL 'x',
	// each invoked once per drained dispatch batch with every matching
	// event.
	handlers map[string]BatchTriggerFunc
	// Global observers, invoked once per drained dispatch batch with the
	// whole event slice (the notifier coalesces NOTIFY flushes from it).
	// Append-only, so a captured slice header stays valid.
	observers []func([]ChangeEvent)

	// Ordered dispatch queue (see settle): entries are enqueued under the
	// engine write lock — queue order is WAL append (seq) order — and
	// delivered by a single dispatcher only once resolved, so observers
	// see events in global seq order even when the durability waits of
	// concurrent committers finish out of order.
	dispatchMu  sync.Mutex
	dispatchQ   []*dispatchEntry
	dispatching bool

	views *viewSet

	seq int64 // change-event sequence number

	// inTxn is written under the write lock but read lock-free by the
	// SELECT path to pick between the snapshot read path and the locked
	// read-your-writes path, hence atomic.
	inTxn atomic.Bool
	// undo holds what it takes to reverse the row sets written by the open
	// transaction and by the statement in flight (in autocommit too: a
	// statement whose views fail after its set is undone, see execStmt),
	// one run a set. One slice, reused under the write lock.
	undo    []undoRun
	pending []ChangeEvent
	journal func([]ChangeEvent) error // see Journal

	// writeCtx is the statement context of the mutation currently holding
	// the write lock; IVM re-entry (EvalWith, Fold) reads through it so
	// writer-side SELECTs see the statement's own uncommitted writes and
	// charge their scans to the right statement.
	writeCtx *stmtCtx

	// Replica mode (see repl.go): mutations are rejected except DML on
	// the allowlisted per-node-local tables.
	readOnly     bool
	replicaAllow map[string]bool

	// Observability: the registry is adopted from the store so WAL and
	// engine metrics share one namespace; virtual tables expose both over
	// plain SELECT.
	reg  *metrics.Registry
	slow *metrics.SlowLog
	// virtMu guards the virtual-table map: RegisterVirtual may run while
	// lock-free SELECTs resolve names.
	virtMu  sync.RWMutex
	virtual map[string]*virtualTable

	mStatements   *metrics.Counter
	mErrors       *metrics.Counter
	mRowsScanned  *metrics.Counter
	mRowsReturned *metrics.Counter
	mExecH        *metrics.Histogram
	mSelectH      *metrics.Histogram
	mMutationH    *metrics.Histogram

	// plans caches statement plans keyed by statement shape (see
	// plancache.go), their compiled expression programs included
	// (compile.go / internal/engine/vm, the only expression evaluator).
	// Every invalidation purges it.
	plans      *planCache
	mPlanHit   *metrics.Counter
	mPlanMiss  *metrics.Counter
	mVMCompile *metrics.Counter
	mVMBatches *metrics.Counter
	mVMRows    *metrics.Counter

	// Morsel-driven scans (see parallel.go). The worker budget is
	// engine-wide: concurrent sessions draw extra workers from one
	// shared pool so they degrade to narrower plans instead of
	// oversubscribing the cores. parallelism is GOMAXPROCS at New and
	// otherwise written only from _test.go.
	parallelism atomic.Int64 // target workers per scan (1 = serial)
	parExtra    atomic.Int64 // extra workers currently running engine-wide
	mParQueries *metrics.Counter
	mParMorsels *metrics.Counter
	mParWorkers *metrics.Counter

	// udfMu guards the user scalar-function registry (RegisterFunc may
	// run while lock-free SELECTs resolve calls).
	udfMu sync.RWMutex
	udfs  map[string]ScalarFunc
}

// AdvanceSeq raises the change-event sequence counter, zero at open, to
// at least floor (see Journal).
func (e *Engine) AdvanceSeq(floor int64) {
	e.mu.Lock()
	e.seq = max(e.seq, floor)
	e.mu.Unlock()
}

// Journal installs the statement journal: each change event's row (false:
// none), stamped ts, goes to table as one set after its statement's, or at
// COMMIT, under the write lock, so one fsync and one snapshot cover both;
// if that write fails, so does the statement or COMMIT, undone. It fires
// no event, maintains no view and skips replicated records. A row's first
// column is its seq: installing raises the counter past every seq in
// table. A nil row uninstalls it.
func (e *Engine) Journal(table string, row func(ev *ChangeEvent, ts int64) (types.Row, bool)) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.store.Table(table)
	if e.journal = nil; row == nil {
		return nil
	} else if t == nil {
		return fmt.Errorf("engine: no such table %q", table)
	}
	for _, r := range t.Rows() {
		e.seq = max(e.seq, r.Values[0].Int())
	}
	e.journal = func(events []ChangeEvent) error {
		var rows []types.Row
		for i, ts := 0, time.Now().UnixNano(); i < len(events); i++ {
			if r, ok := row(&events[i], ts); ok {
				rows = append(rows, r)
			}
		}
		if len(rows) == 0 {
			return nil
		}
		_, err := e.store.InsertRows(table, rows, nil)
		return err // no undo run: nothing after it fails
	}
	return nil
}

// virtualTable is a read-only system table computed at query time.
type virtualTable struct {
	cols []string
	fn   func() []types.Row
}

// New creates an engine over an opened store, rebuilding the catalog from
// the store's tables and metadata.
func New(store *storage.Store) (*Engine, error) {
	e := &Engine{
		cat:      catalog.New(),
		store:    store,
		handlers: map[string]BatchTriggerFunc{},
		reg:      store.Metrics(),
		slow:     metrics.NewSlowLog(128, 10*time.Millisecond),
		virtual:  map[string]*virtualTable{},
	}
	e.mStatements = e.reg.Counter("engine.statements")
	e.mErrors = e.reg.Counter("engine.errors")
	e.mRowsScanned = e.reg.Counter("engine.rows_scanned")
	e.mRowsReturned = e.reg.Counter("engine.rows_returned")
	e.mExecH = e.reg.Histogram("engine.exec_latency")
	e.mSelectH = e.reg.Histogram("engine.select_latency")
	e.mMutationH = e.reg.Histogram("engine.mutation_latency")
	e.plans = newPlanCache(256)
	e.mPlanHit = e.reg.Counter("engine.plan_cache_hit")
	e.mPlanMiss = e.reg.Counter("engine.plan_cache_miss")
	e.mVMCompile = e.reg.Counter("vm.compile")
	e.mVMBatches = e.reg.Counter("vm.exec_batches")
	e.mVMRows = e.reg.Counter("vm.rows")
	e.parallelism.Store(int64(runtime.GOMAXPROCS(0)))
	e.mParQueries = e.reg.Counter("vm.parallel_queries")
	e.mParMorsels = e.reg.Counter("vm.morsels")
	e.mParWorkers = e.reg.Counter("vm.parallel_workers")
	e.registerSystemTables()
	e.views = newViewSet(e)
	if err := e.loadCatalog(e.cat, true); err != nil {
		return nil, err
	}
	// The first read sees what a view restore repaired.
	e.store.PublishSnapshot()
	return e, nil
}

// loadCatalog registers in cat every stored view and trigger definition,
// in the order it was created (loadMeta). Caller holds e.mu (or is New).
func (e *Engine) loadCatalog(cat *catalog.Catalog, materialize bool) error {
	for _, m := range e.store.Metas() {
		if err := e.loadMeta(cat, m, materialize); err != nil {
			return err
		}
	}
	return nil
}

// loadMeta registers one stored view or trigger definition in cat by
// re-parsing its DDL. New materializes a view (createView, into e.cat); a
// replica registers it catalog-only, as its backing rows arrive with the
// primary's records and re-materializing would draw tids of its own. A
// trigger whose table is gone is deleted from the store, not registered:
// DROP TABLE used to leave such entries behind (see dropTable), and a
// directory holding one must open again.
func (e *Engine) loadMeta(cat *catalog.Catalog, m storage.MetaEntry, materialize bool) error {
	st, err := sqltext.Parse(m.Text)
	if err != nil {
		return fmt.Errorf("engine: bad stored DDL %q: %w", m.Text, err)
	}
	switch d := st.(type) {
	case *sqltext.CreateView:
		if materialize {
			return e.createView(d, false)
		}
		return cat.AddView(&catalog.View{Name: d.Name, Query: d.Query, Backing: viewBackingPrefix + strings.ToLower(d.Name)})
	case *sqltext.CreateTrigger:
		if e.store.Table(d.Table) == nil {
			return e.store.DeleteMeta(m.Kind, m.Name)
		}
		return cat.AddTrigger(&catalog.Trigger{Name: d.Name, Event: d.Event, Table: d.Table, Handler: d.Handler})
	}
	return fmt.Errorf("engine: unexpected stored DDL %q", m.Text)
}

// Catalog exposes the views and triggers (read-only use); see Store.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Store exposes the physical store (read-only use): the one registry of
// tables, and CurrentStamp for the workflow layer's snapshot isolation.
func (e *Engine) Store() *storage.Store { return e.store }

// RegisterBatchHandler installs a named trigger handler that CREATE
// TRIGGER statements reference with CALL 'name'. Delivery is by batch:
// the handler fires at most once per drained dispatch batch, with every
// event of that batch whose (table, op) matched one of the name's
// triggers, in sequence order. At high commit rates one invocation
// absorbs the whole batch; with no other writer a batch is one
// statement's (or one transaction's) events.
func (e *Engine) RegisterBatchHandler(name string, fn BatchTriggerFunc) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handlers[name] = fn
}

// ObserveBatch installs a global change observer: it receives every
// drained dispatch batch (one slice per drain, events in sequence order,
// every table) after the batch's trigger handlers ran. Under concurrent
// load a batch carries many statements' events at once, so an observer
// can amortize per-flush work — the notification layer uses this to send
// one NOTIFY per (table, batch) instead of one per statement (§VI-C).
// The slice is shared; observers must not retain or mutate it.
func (e *Engine) ObserveBatch(fn func([]ChangeEvent)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.observers = append(e.observers, fn)
}

// Close flushes the store.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.store.Close()
}

// ErrCheckpointTxnOpen is returned by Checkpoint while a transaction is
// open. The engine holds uncommitted rows directly in the store (the
// undo log reverses them on ROLLBACK), so a mid-transaction snapshot
// would persist uncommitted data and then discard the WAL — after a
// crash the transaction could neither be rolled back nor distinguished
// from committed work. Callers (e.g. a periodic checkpoint loop) should
// treat this as "try again later".
var ErrCheckpointTxnOpen = errors.New("engine: checkpoint refused: transaction open")

// Checkpoint snapshots the store and truncates the WAL. It refuses to
// run while a transaction is open (see ErrCheckpointTxnOpen).
func (e *Engine) Checkpoint() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.inTxn.Load() {
		return ErrCheckpointTxnOpen
	}
	return e.store.Checkpoint()
}

// Exec parses and executes one statement. Positional `?` parameters are
// bound from args left to right. Plans are served from the plan cache
// when a text of the same shape repeats.
func (e *Engine) Exec(sql string, args ...types.Value) (*Result, error) {
	plans, args, err := e.planned(false, sql, args)
	if err != nil {
		return nil, err
	}
	return e.run(plans[0], args)
}

// planned returns the plans of text — one statement, or a script's
// statements — through the plan cache, and the arguments to execute them
// with. The text as written is looked up first: a parameterized
// statement is its own shape, and finds its entry at no extra cost. On a
// miss the text is shaped (sqltext.Shape) and looked up again, so every
// text of one shape shares one entry; the lifted literals travel in the
// returned arguments and are not retained.
func (e *Engine) planned(script bool, text string, args []types.Value) ([]*plan, []types.Value, error) {
	key, sargs := planKey{script, text}, args
	v, ok := e.plans.get(key)
	if !ok {
		if key.text, sargs = sqltext.Shape(text, args); key.text != text {
			v, ok = e.plans.get(key)
		}
	}
	if ok {
		e.mPlanHit.Inc()
		return v.([]*plan), sargs, nil
	}
	e.mPlanMiss.Inc()
	gen := e.plans.gen.Load()
	parse := func(text string) ([]sqltext.Statement, error) {
		if script {
			return sqltext.ParseScript(text)
		}
		st, err := sqltext.Parse(text)
		return []sqltext.Statement{st}, err
	}
	stmts, err := parse(key.text)
	if err != nil && key.text != text {
		// The error must quote the text the caller sent.
		key.text, sargs = text, args
		stmts, err = parse(text)
	}
	if err != nil {
		return nil, nil, err
	}
	plans := make([]*plan, len(stmts))
	for i, st := range stmts {
		plans[i] = e.newPlan(st, false)
	}
	e.plans.put(key, plans, gen)
	return plans, sargs, nil
}

// ExecScript executes a ';'-separated script, returning the last result.
func (e *Engine) ExecScript(sql string, args ...types.Value) (*Result, error) {
	plans, args, err := e.planned(true, sql, args)
	if err != nil {
		return nil, err
	}
	var last *Result
	for _, p := range plans {
		last, err = e.run(p, args)
		if err != nil {
			return nil, err
		}
	}
	return last, nil
}

// Query is Exec restricted to SELECT (convenience with clearer intent).
func (e *Engine) Query(sql string, args ...types.Value) (*Result, error) {
	plans, args, err := e.planned(false, sql, args)
	if err != nil {
		return nil, err
	}
	if p := plans[0]; p.kind != sqltext.KindSelect {
		return nil, fmt.Errorf("engine: Query requires a SELECT, got %s", p.kind.Keyword())
	}
	return e.run(plans[0], args)
}

// ExecStmt plans and executes an already-parsed statement. The plan is
// the statement's own, made for this execution: the caller may hold the
// tree and change it before the next.
func (e *Engine) ExecStmt(st sqltext.Statement, args ...types.Value) (*Result, error) {
	return e.run(e.newPlan(st, false), args)
}

// clockBase anchors statement timing: time.Since on it reads only the
// monotonic clock, where time.Now reads the wall clock too.
var clockBase = time.Now()

// run executes a plan, recording per-statement metrics (latency, rows,
// errors) and feeding the slow-query log.
func (e *Engine) run(p *plan, args []types.Value) (*Result, error) {
	ctx := &stmtCtx{snap: storage.SeqLatest}
	ctx.machines = ctx.machBuf[:0]
	defer ctx.release()
	if !e.reg.Enabled() {
		return e.execStmt(p, args, ctx)
	}
	t0 := time.Since(clockBase)
	res, err := e.execStmt(p, args, ctx)
	d := time.Since(clockBase) - t0
	e.mStatements.Inc()
	e.mExecH.Observe(d)
	var returned int64
	if res != nil {
		if len(res.Rows) > 0 {
			returned = int64(len(res.Rows))
		} else {
			returned = int64(res.Affected)
		}
		e.mRowsReturned.Add(int64(len(res.Rows)))
	}
	if p.kind == sqltext.KindSelect {
		e.mSelectH.Observe(d)
	} else {
		e.mMutationH.Observe(d)
	}
	if err != nil {
		e.mErrors.Inc()
	}
	if ctx.parWorkers > 0 {
		e.mParQueries.Inc()
		e.mParWorkers.Add(ctx.parWorkers)
	}
	if e.slow.ShouldRecord(d, err != nil) {
		errMsg := ""
		if err != nil {
			errMsg = err.Error()
		}
		// Rows-scanned comes from the per-statement context, so the value
		// is exact even when concurrent SELECTs overlap.
		e.slow.Record(p.stmt.String(), d, ctx.scanned, returned, errMsg)
	}
	return res, err
}

func (e *Engine) execStmt(p *plan, args []types.Value, ctx *stmtCtx) (*Result, error) {
	switch p.kind {
	case sqltext.KindSelect:
		return e.execSelect(e.current(p).sel, args, ctx)
	case sqltext.KindExplain:
		// EXPLAIN only prints the plan — catalog and table structure are
		// internally synchronized, so no engine lock is needed.
		return e.evalExplain(e.current(p).explain, ctx)
	case sqltext.KindBegin:
		return e.begin()
	case sqltext.KindCommit:
		return e.endTxn(true)
	case sqltext.KindRollback:
		return e.endTxn(false)
	}

	res, entry, wait, err := e.mutate(p, args, ctx)
	if !wait {
		return res, err
	}
	// A Commit failure means the statement may not be durable; report it
	// instead of acknowledging, and hold back the change events —
	// downstream observers must not act on writes the disk refused.
	if err := e.store.Commit(); err != nil {
		e.settle(entry, false)
		return nil, fmt.Errorf("engine: flush: %w", err)
	}
	e.settle(entry, true)
	return res, nil
}

// mutate is a mutating statement's part under the write lock, released
// BEFORE the durability wait (wait: one is due) so other sessions can
// join the same group-commit fsync. The plan is checked under the lock:
// DDL that ran since it was made has moved the cache on. A panic undoes
// the statement and lets go of the lock on its way up.
func (e *Engine) mutate(p *plan, args []types.Value, ctx *stmtCtx) (res *Result, entry *dispatchEntry, wait bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.writeCtx = ctx
	mark, views, done := len(e.undo), false, false
	defer func() {
		if !done {
			e.writeCtx = nil
			e.undoTo(mark, views)
		}
	}()
	res, events, err := e.execMutation(e.current(p), args)
	if views = err == nil; views && !e.inTxn.Load() && e.journal != nil {
		err = e.journal(events)
	}
	done, e.writeCtx = true, nil
	// A statement is atomic. A set that fails part-way through its rows
	// takes them back itself and logs nothing (Store.InsertRows); one
	// whose views (unseen) or journal write (views seen) fail after it is
	// undone here, so neither the table, nor the WAL's net effect, nor a
	// replica keeps half a statement. Outside a transaction a finished
	// statement needs its undo runs no longer.
	if err != nil {
		if uerr := e.undoTo(mark, views); uerr != nil {
			err = fmt.Errorf("%w (and undoing the statement failed: %v)", err, uerr)
		}
	} else if !e.inTxn.Load() {
		e.forgetUndo(0)
	}
	// Publish the statement's versions before releasing the write lock:
	// subsequent autocommit reads must see them (read-your-writes), and
	// publishing whole statements at a time is what makes snapshots
	// statement-atomic. Inside a transaction nothing is published until
	// COMMIT/ROLLBACK resolves it.
	if !e.inTxn.Load() {
		e.store.PublishSnapshot()
	}
	if p.kind.DDL() {
		// Plans bake in resolved entries, column positions and access
		// paths; a schema change makes them stale even when the SQL text
		// still parses. A failed DDL statement may have changed the
		// catalog on its way (a view's transient backing table), and a
		// plan made meanwhile must not outlive it either.
		e.plans.purge()
	}
	if err != nil {
		return nil, nil, false, err
	}
	if e.inTxn.Load() {
		e.pending = append(e.pending, events...)
		return res, nil, false, nil
	}
	// Enqueue the events into the ordered dispatch queue BEFORE releasing
	// the write lock: queue position is claimed in seq/WAL-append order,
	// so however the durability waits interleave, delivery happens in
	// global seq order.
	return res, e.enqueueLocked(events), true, nil
}

// execSelect runs a top-level SELECT. Autocommit reads acquire an MVCC
// snapshot and run with no engine lock held during row iteration;
// reads inside an open transaction keep the locked read-latest path so
// they see the transaction's own unpublished writes. AS OF pins the
// snapshot to an explicit commit-seq (§VI-A time-based isolation).
func (e *Engine) execSelect(sp *selPlan, args []types.Value, ctx *stmtCtx) (*Result, error) {
	s := sp.sel
	ctx.top = s
	switch {
	case s.AsOf != nil:
		v, ok := constVal(s.AsOf, args)
		if !ok || v.IsNull() {
			return nil, fmt.Errorf("engine: AS OF requires a literal or bound-parameter seq")
		}
		seq, err := v.AsInt()
		if err != nil {
			return nil, fmt.Errorf("engine: AS OF seq: %w", err)
		}
		snap, err := e.store.AcquireSnapshotAt(seq)
		if err != nil {
			return nil, err
		}
		defer e.store.ReleaseSnapshot(snap)
		ctx.snap = snap
	case e.inTxn.Load():
		e.mu.RLock()
		defer e.mu.RUnlock()
		ctx.snap = storage.SeqLatest
	default:
		snap := e.store.AcquireSnapshot()
		defer e.store.ReleaseSnapshot(snap)
		ctx.snap = snap
	}
	res, err := e.evalSelect(sp, args, nil, ctx)
	if err != nil {
		return nil, err
	}
	// This is the one place rows leave the engine. evalSelect builds fresh
	// row slices and MVCC versions are immutable, so only a BYTES payload
	// can still be shared with storage: detach those.
	for _, r := range res.Rows {
		for i := range r {
			if r[i].LaneKind() == types.KindBytes {
				r[i] = r[i].Clone()
			}
		}
	}
	return res, nil
}

// dispatchEntry is one committer's claim on a dispatch-queue position.
// It is enqueued pending (under the engine write lock, so queue order is
// seq order), then resolved — durable or aborted — after the durability
// wait. Aborted entries are skipped: their writes never became durable,
// so observers must not see them.
type dispatchEntry struct {
	events  []ChangeEvent
	durable bool
	settled bool
}

// enqueueLocked claims the next dispatch-queue position for events.
// Callers MUST hold e.mu (the write lock): that is what makes queue
// order equal seq order. Returns nil when there is nothing to deliver.
func (e *Engine) enqueueLocked(events []ChangeEvent) *dispatchEntry {
	if len(events) == 0 {
		return nil
	}
	entry := &dispatchEntry{events: events}
	e.dispatchMu.Lock()
	e.dispatchQ = append(e.dispatchQ, entry)
	e.dispatchMu.Unlock()
	return entry
}

// settle resolves a queued entry after its durability wait and delivers
// every leading resolved entry, outside the engine lock so handlers may
// re-enter. The first goroutine to find deliverable work becomes the
// dispatcher and drains until the queue is empty or its head is an
// unresolved entry (a concurrent committer still waiting on its fsync —
// its own settle will resume delivery, preserving global seq order).
// When no other writer is active, a statement's full trigger cascade
// delivers before its Exec returns: a handler's nested Exec lands in the
// queue behind the batch being delivered and is drained next. Under
// concurrent load, batches carry many statements' events at once for
// observers to coalesce.
func (e *Engine) settle(entry *dispatchEntry, durable bool) {
	if entry == nil {
		return
	}
	e.dispatchMu.Lock()
	entry.durable = durable
	entry.settled = true
	if e.dispatching {
		e.dispatchMu.Unlock()
		return // the active dispatcher delivers these promptly
	}
	e.dispatching = true
	for {
		var batch []ChangeEvent
		for len(e.dispatchQ) > 0 && e.dispatchQ[0].settled {
			head := e.dispatchQ[0]
			e.dispatchQ = e.dispatchQ[1:]
			if head.durable {
				batch = append(batch, head.events...)
			}
		}
		if len(batch) == 0 {
			break
		}
		e.dispatchMu.Unlock()
		e.deliver(batch)
		e.dispatchMu.Lock()
	}
	e.dispatching = false
	e.dispatchMu.Unlock()
}

// deliver fires one drained batch: each trigger handler once with its
// matching events, each event once however many of the handler's
// triggers it matches, handlers in the order of their first match, then each
// observer once with the whole slice, in registration order. Events are
// in sequence order by queue construction; the sort is a cheap invariant
// net.
func (e *Engine) deliver(events []ChangeEvent) {
	sort.SliceStable(events, func(i, j int) bool { return events[i].Seq < events[j].Seq })
	type call struct {
		fn     BatchTriggerFunc
		events []ChangeEvent
		last   int // 1 + the index of the last event appended
	}
	var calls []*call
	byName := map[string]*call{}
	e.mu.RLock()
	for i, ev := range events {
		for _, t := range e.cat.Triggers(ev.Table, string(ev.Op)) {
			fn, ok := e.handlers[t.Handler]
			if !ok {
				continue
			}
			c := byName[t.Handler]
			if c == nil {
				c = &call{fn: fn}
				byName[t.Handler] = c
				calls = append(calls, c)
			}
			if c.last != i+1 { // two triggers naming one handler: the event once
				c.events, c.last = append(c.events, ev), i+1
			}
		}
	}
	observers := e.observers
	e.mu.RUnlock()
	for _, c := range calls {
		c.fn(c.events)
	}
	for _, fn := range observers {
		fn(events)
	}
}

func (e *Engine) begin() (*Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.readOnly {
		return nil, ErrReadOnlyReplica
	}
	if e.inTxn.Load() {
		return nil, fmt.Errorf("engine: transaction already open")
	}
	e.inTxn.Store(true)
	e.pending = nil
	return &Result{}, nil
}

// endTxn runs COMMIT, which writes the transaction's journal rows, or
// ROLLBACK, which undoes it, as does a failed journal write. A failed
// durability wait fails the statement and holds back its events.
func (e *Engine) endTxn(commit bool) (*Result, error) {
	entry, jerr, err := e.resolveTxn(commit)
	if err != nil {
		return nil, err
	}
	if err := e.store.Commit(); err != nil {
		e.settle(entry, false)
		return nil, fmt.Errorf("engine: flush: %w", err)
	}
	e.settle(entry, true)
	if jerr != nil {
		return nil, fmt.Errorf("engine: commit: %w", jerr)
	}
	return &Result{}, nil
}

// resolveTxn is endTxn's part under the write lock. err, or a panic,
// leaves the transaction as it was.
func (e *Engine) resolveTxn(commit bool) (entry *dispatchEntry, jerr, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.inTxn.Load() {
		return nil, nil, fmt.Errorf("engine: no open transaction")
	}
	if commit && e.journal != nil {
		jerr = e.journal(e.pending)
	}
	if !commit || jerr != nil {
		if err = e.undoTo(0, true); err != nil {
			return nil, nil, err
		}
	} else {
		e.forgetUndo(0)
		entry = e.enqueueLocked(e.pending)
	}
	e.inTxn.Store(false)
	e.pending = nil
	// Snapshot readers see all of the transaction or none of it.
	e.store.PublishSnapshot()
	return entry, jerr, nil
}

// undoTo reverses the undo runs past mark, newest first, and drops them.
// Each run is reversed as one set, its rows newest first, as undoing
// them one at a time would: the compensating set is logged like any
// other. views says whether the materialized views saw the writes being
// undone: those of a finished statement, yes (ROLLBACK refreshes them);
// those of a statement whose view maintenance failed, not yet. Caller
// holds e.mu.
func (e *Engine) undoTo(mark int, views bool) error {
	for i := len(e.undo) - 1; i >= mark; i-- {
		u := &e.undo[i]
		tids, olds := reversed(u.tids), reversed(u.oldRows)
		var err error
		switch u.op {
		case OpInsert:
			_, err = e.store.DeleteRows(u.table, tids)
		case OpUpdate:
			_, err = e.store.UpdateRows(u.table, tids, olds, nil)
		case OpDelete:
			err = e.store.InsertRowsAt(u.table, tids, olds)
		}
		if err != nil {
			return fmt.Errorf("engine: rollback: %w", err)
		}
		if views {
			e.views.applyDelta(u.table, u.oldRows, u.newRows)
		}
	}
	e.forgetUndo(mark)
	return nil
}

// reversed returns a reversed copy of s.
func reversed[T any](s []T) []T {
	r := slices.Clone(s)
	slices.Reverse(r)
	return r
}

// forgetUndo drops the undo runs past mark, releasing their rows.
func (e *Engine) forgetUndo(mark int) {
	clear(e.undo[mark:])
	e.undo = e.undo[:mark]
}

// InTxn reports whether a transaction is open.
func (e *Engine) InTxn() bool { return e.inTxn.Load() }

// execMutation runs a non-SELECT statement under the write lock.
func (e *Engine) execMutation(p *plan, args []types.Value) (*Result, []ChangeEvent, error) {
	if e.readOnly && !e.replicaMayWrite(p) {
		return nil, nil, ErrReadOnlyReplica
	}
	switch s := p.stmt.(type) {
	case *sqltext.CreateTable:
		return e.execCreateTable(s)
	case *sqltext.DropTable:
		return e.execDropTable(s)
	case *sqltext.CreateIndex:
		return e.execCreateIndex(s)
	case *sqltext.CreateView:
		return e.execCreateView(s)
	case *sqltext.DropView:
		return e.execDropView(s)
	case *sqltext.CreateTrigger:
		return e.execCreateTrigger(s)
	case *sqltext.Insert:
		return e.execInsert(s, p.mut, args)
	case *sqltext.Update:
		return e.execUpdate(s, p.mut, args)
	case *sqltext.Delete:
		return e.execDelete(p.mut, args)
	}
	return nil, nil, fmt.Errorf("engine: unsupported statement %T", p.stmt)
}

// TableNames lists user tables (views excluded).
func (e *Engine) TableNames() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return slices.DeleteFunc(e.store.TableNames(), func(n string) bool { return strings.HasPrefix(n, viewBackingPrefix) })
}

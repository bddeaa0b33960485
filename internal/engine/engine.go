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
// Statement-level change events are dispatched to observers *after* the
// durability wait succeeds (and, inside a transaction, only after
// COMMIT), so observers never see writes the disk refused and may
// re-enter the engine. Delivery runs through an ordered queue (see
// settle): events claim their queue position under the write lock, in
// seq/WAL-append order, and one goroutine at a time drains resolved
// entries from the head — so observers see events in global seq order
// no matter how concurrent committers' fsync waits interleave.
package engine

import (
	"errors"
	"fmt"
	"runtime"
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

// TriggerFunc is a Go callback fired after a statement (or after COMMIT
// when the statement ran inside a transaction).
type TriggerFunc func(ChangeEvent)

// BatchTriggerFunc is a trigger handler that receives all of a drained
// dispatch batch's matching events in one call (see RegisterBatchHandler).
type BatchTriggerFunc func([]ChangeEvent)

// Result is the outcome of one statement.
type Result struct {
	Columns  []string
	Rows     []types.Row
	Affected int
	// TIDs are the tuple ids inserted by an INSERT statement, in order.
	TIDs []int64
}

type undoEntry struct {
	op      ChangeOp
	table   string
	tid     int64
	created int64
	oldRow  types.Row
	newRow  types.Row
}

// Engine is one embedded database instance.
type Engine struct {
	mu    sync.RWMutex
	cat   *catalog.Catalog
	store *storage.Store

	// Named Go trigger handlers referenced by CREATE TRIGGER ... CALL 'x'.
	handlers map[string]TriggerFunc
	// Batch trigger handlers: same CREATE TRIGGER indirection, but a name
	// registered here is invoked once per drained dispatch batch with every
	// matching event, not once per event.
	batchHandlers map[string]BatchTriggerFunc
	// Global observers, invoked for every change event.
	observers []TriggerFunc
	// Batch observers, invoked once per drained dispatch batch with the
	// whole event slice (the notifier coalesces NOTIFY flushes from it).
	batchObservers []func([]ChangeEvent)

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
	// undo holds what it takes to reverse the rows written by the open
	// transaction and by the statement in flight (in autocommit too: a
	// statement that fails part-way is undone, see execStmt). One slice,
	// reused under the write lock.
	undo    []undoEntry
	pending []ChangeEvent

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

	// plans caches parsed statements keyed by statement shape (see
	// plancache.go); DDL purges it.
	plans     *planCache
	mPlanHit  *metrics.Counter
	mPlanMiss *metrics.Counter

	// Compiled expression VM (see compile.go / internal/engine/vm), the
	// only expression evaluator: programs cached per expression identity,
	// purged with the plan cache on DDL and on function-registry changes.
	progs      *progCache
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

// AdvanceSeq raises the change-event sequence counter to at least floor.
// The counter starts at zero on every open, but ef_notification rows
// keyed by seq_no survive restarts — without restoring the high-water
// mark, a reopened database re-issues old sequence numbers and the
// notifier's bookkeeping INSERT dies on a duplicate key, silently
// breaking NOTIFY delivery. The notifier calls this during startup.
func (e *Engine) AdvanceSeq(floor int64) {
	e.mu.Lock()
	if e.seq < floor {
		e.seq = floor
	}
	e.mu.Unlock()
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
		store:         store,
		handlers:      map[string]TriggerFunc{},
		batchHandlers: map[string]BatchTriggerFunc{},
		reg:           store.Metrics(),
		slow:          metrics.NewSlowLog(128, 10*time.Millisecond),
		virtual:       map[string]*virtualTable{},
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
	e.progs = newProgCache(1024)
	e.mVMCompile = e.reg.Counter("vm.compile")
	e.mVMBatches = e.reg.Counter("vm.exec_batches")
	e.mVMRows = e.reg.Counter("vm.rows")
	e.parallelism.Store(int64(runtime.GOMAXPROCS(0)))
	e.mParQueries = e.reg.Counter("vm.parallel_queries")
	e.mParMorsels = e.reg.Counter("vm.morsels")
	e.mParWorkers = e.reg.Counter("vm.parallel_workers")
	e.registerSystemTables()
	e.views = newViewSet(e)
	if err := e.loadCatalog(e.restoreView); err != nil {
		return nil, err
	}
	return e, nil
}

// loadCatalog rebuilds the catalog from the store: every table, then
// every stored view and trigger definition in the order it was created.
// view says what a stored view becomes — New materializes it,
// ApplyReplSnapshot registers it catalog-only. Caller holds e.mu (or is
// New).
func (e *Engine) loadCatalog(view func(*sqltext.CreateView) error) error {
	e.cat = catalog.New()
	for _, name := range e.store.TableNames() {
		if err := e.cat.AddTable(e.store.Table(name).Schema); err != nil {
			return err
		}
	}
	for _, m := range e.store.Metas() {
		if err := e.loadMeta(m, view); err != nil {
			return err
		}
	}
	return nil
}

// loadMeta registers one stored view or trigger definition by re-parsing
// its DDL. A trigger whose table is gone is deleted from the store, not
// registered: DROP TABLE used to leave such entries behind (see
// dropTable), and a directory holding one must open again.
func (e *Engine) loadMeta(m storage.MetaEntry, view func(*sqltext.CreateView) error) error {
	st, err := sqltext.Parse(m.Text)
	if err != nil {
		return fmt.Errorf("engine: bad stored DDL %q: %w", m.Text, err)
	}
	switch d := st.(type) {
	case *sqltext.CreateView:
		return view(d)
	case *sqltext.CreateTrigger:
		if _, ok := e.cat.Table(d.Table); !ok {
			return e.store.DeleteMeta(m.Kind, m.Name)
		}
		return e.cat.AddTrigger(&catalog.Trigger{Name: d.Name, Event: d.Event, Table: d.Table, Handler: d.Handler})
	}
	return fmt.Errorf("engine: unexpected stored DDL %q", m.Text)
}

// Catalog exposes the metadata (read-only use).
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Store exposes the physical store (read-only use; the workflow layer
// needs CurrentStamp for snapshot isolation).
func (e *Engine) Store() *storage.Store { return e.store }

// RegisterHandler installs a named Go trigger handler that CREATE TRIGGER
// statements can reference.
func (e *Engine) RegisterHandler(name string, fn TriggerFunc) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.batchHandlers, name)
	e.handlers[name] = fn
}

// RegisterBatchHandler installs a named batch trigger handler. CREATE
// TRIGGER statements reference it exactly like a per-event handler, but
// delivery is coalesced: the handler fires at most once per drained
// dispatch batch, with every event of that batch whose (table, op)
// matched one of the name's triggers, in sequence order. This is the
// firehose path — at high commit rates one invocation absorbs the whole
// batch instead of paying the per-event fan-out. A name is either a
// per-event or a batch handler, never both; registering it here removes
// any per-event registration and vice versa.
func (e *Engine) RegisterBatchHandler(name string, fn BatchTriggerFunc) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.handlers, name)
	e.batchHandlers[name] = fn
}

// Observe installs a global change observer fired for every change event
// on every table. The notification layer and the workflow UP compiler are
// both observers.
func (e *Engine) Observe(fn TriggerFunc) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.observers = append(e.observers, fn)
}

// ObserveBatch installs a batch observer: it receives every drained
// dispatch batch (one slice per drain, events in sequence order) after
// the per-event triggers and observers ran for each event. Under
// concurrent load a batch carries many statements' events at once, so a
// batch observer can amortize per-flush work — the notification layer
// uses this to send one NOTIFY per (table, batch) instead of one per
// statement (§VI-C). The slice is shared; observers must not retain or
// mutate it.
func (e *Engine) ObserveBatch(fn func([]ChangeEvent)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.batchObservers = append(e.batchObservers, fn)
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
// bound from args left to right. Parsed statements are served from the
// plan cache when a text of the same shape repeats.
func (e *Engine) Exec(sql string, args ...types.Value) (*Result, error) {
	st, args, err := parseCached(e, false, sql, args, sqltext.Parse)
	if err != nil {
		return nil, err
	}
	return e.ExecStmt(st, args...)
}

// parseCached returns what parse makes of text — one statement, or a
// script's statements — through the plan cache, and the arguments to
// execute it with. The text as written is looked up first: a
// parameterized statement is its own shape, and finds its entry at no
// extra cost. On a miss the text is shaped (sqltext.Shape) and looked up
// again, so every text of one shape shares one entry, one AST and the
// AST's compiled programs; the lifted literals travel in the returned
// arguments and are not retained.
func parseCached[T any](e *Engine, script bool, text string, args []types.Value, parse func(string) (T, error)) (T, []types.Value, error) {
	if v, ok := e.plans.get(planKey{script, text}); ok {
		e.mPlanHit.Inc()
		return v.(T), args, nil
	}
	shaped, sargs := sqltext.Shape(text, args)
	if shaped != text {
		if v, ok := e.plans.get(planKey{script, shaped}); ok {
			e.mPlanHit.Inc()
			return v.(T), sargs, nil
		}
	}
	e.mPlanMiss.Inc()
	v, err := parse(shaped)
	if err != nil && shaped != text {
		// The error must quote the text the caller sent.
		shaped, sargs = text, args
		v, err = parse(text)
	}
	if err != nil {
		return v, nil, err
	}
	e.plans.put(planKey{script, shaped}, v)
	return v, sargs, nil
}

// ExecScript executes a ';'-separated script, returning the last result.
func (e *Engine) ExecScript(sql string, args ...types.Value) (*Result, error) {
	stmts, args, err := parseCached(e, true, sql, args, sqltext.ParseScript)
	if err != nil {
		return nil, err
	}
	var last *Result
	for _, st := range stmts {
		last, err = e.ExecStmt(st, args...)
		if err != nil {
			return nil, err
		}
	}
	return last, nil
}

// Query is Exec restricted to SELECT (convenience with clearer intent).
func (e *Engine) Query(sql string, args ...types.Value) (*Result, error) {
	st, args, err := parseCached(e, false, sql, args, sqltext.Parse)
	if err != nil {
		return nil, err
	}
	if _, ok := st.(*sqltext.Select); !ok {
		return nil, fmt.Errorf("engine: Query requires a SELECT, got %s", stmtKeyword(st))
	}
	return e.ExecStmt(st, args...)
}

// ExecStmt executes an already-parsed statement, recording per-statement
// metrics (latency, rows, errors) and feeding the slow-query log.
func (e *Engine) ExecStmt(st sqltext.Statement, args ...types.Value) (*Result, error) {
	ctx := &stmtCtx{snap: storage.SeqLatest}
	defer ctx.release()
	if !e.reg.Enabled() {
		return e.execStmt(st, args, ctx)
	}
	t0 := time.Now()
	res, err := e.execStmt(st, args, ctx)
	d := time.Since(t0)
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
	if _, isSel := st.(*sqltext.Select); isSel {
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
		e.slow.Record(st.String(), d, ctx.scanned, returned, errMsg)
	}
	return res, err
}

func (e *Engine) execStmt(st sqltext.Statement, args []types.Value, ctx *stmtCtx) (*Result, error) {
	switch s := st.(type) {
	case *sqltext.Select:
		return e.execSelect(s, args, ctx)
	case *sqltext.Explain:
		// EXPLAIN only plans — catalog and table structure are internally
		// synchronized, so no engine lock is needed.
		return e.evalExplain(s, args, ctx)
	case *sqltext.Begin:
		return e.begin()
	case *sqltext.Commit:
		return e.commit()
	case *sqltext.Rollback:
		return e.rollback()
	}

	// Mutating statements: apply + WAL append under the write lock, then
	// release it BEFORE the durability wait so other sessions can apply
	// their statements (and join the same group-commit batch) while this
	// one waits on the shared fsync.
	e.mu.Lock()
	e.writeCtx = ctx
	mark := len(e.undo)
	res, events, err := e.execMutation(st, args)
	e.writeCtx = nil
	// A statement is atomic: one that failed part-way through its rows
	// takes back the rows it did write — the views have not seen them
	// yet — so neither the table, nor the WAL's net effect, nor a replica
	// keeps half a statement. Outside a transaction a finished statement
	// needs its undo entries no longer.
	if err != nil {
		if uerr := e.undoTo(mark, false); uerr != nil {
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
	if err != nil {
		e.mu.Unlock()
		return nil, err
	}
	if isDDL(st) {
		e.plans.purge()
		// Compiled programs bake in resolved column positions; a schema
		// change makes them stale even when the SQL text still parses.
		e.progs.purge()
	}
	if e.inTxn.Load() {
		e.pending = append(e.pending, events...)
		e.mu.Unlock()
		return res, nil
	}
	// Enqueue the events into the ordered dispatch queue BEFORE releasing
	// the write lock: queue position is claimed in seq/WAL-append order,
	// so however the durability waits below interleave, delivery (and the
	// notifier's ef_notification inserts) happens in global seq order.
	entry := e.enqueueLocked(events)
	e.mu.Unlock()
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

// execSelect runs a top-level SELECT. Autocommit reads acquire an MVCC
// snapshot and run with no engine lock held during row iteration;
// reads inside an open transaction keep the locked read-latest path so
// they see the transaction's own unpublished writes. AS OF pins the
// snapshot to an explicit commit-seq (§VI-A time-based isolation).
func (e *Engine) execSelect(s *sqltext.Select, args []types.Value, ctx *stmtCtx) (*Result, error) {
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
	res, err := e.evalSelect(s, args, nil, ctx)
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

// stmtKeyword names a statement by its leading SQL keyword for error
// messages, without leaking internal type names.
func stmtKeyword(st sqltext.Statement) string {
	f := strings.Fields(st.String())
	if len(f) == 0 {
		return "statement"
	}
	return strings.ToUpper(f[0])
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
// When no other writer is active this reduces to the old behavior: a
// statement's full trigger cascade delivers before its Exec returns.
// Under concurrent load, batches carry many statements' events at once
// for batch observers to coalesce.
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

// deliver fires one drained batch: per-event triggers and observers in
// sequence order (guaranteed by queue construction; the sort is a cheap
// invariant net), then each batch observer once with the whole slice.
func (e *Engine) deliver(events []ChangeEvent) {
	sort.SliceStable(events, func(i, j int) bool { return events[i].Seq < events[j].Seq })
	// Batch-handler accumulation: while walking events for per-event
	// triggers, collect the events matching each batch handler so it fires
	// once with all of them after the per-event pass.
	type batchCall struct {
		fn     BatchTriggerFunc
		events []ChangeEvent
	}
	var batched []*batchCall
	batchIdx := map[string]*batchCall{}
	for _, ev := range events {
		e.mu.RLock()
		trigs := e.cat.Triggers(ev.Table, string(ev.Op))
		var fns []TriggerFunc
		for _, t := range trigs {
			if fn, ok := e.handlers[t.Handler]; ok {
				fns = append(fns, fn)
			} else if bfn, ok := e.batchHandlers[t.Handler]; ok {
				bc := batchIdx[t.Handler]
				if bc == nil {
					bc = &batchCall{fn: bfn}
					batchIdx[t.Handler] = bc
					batched = append(batched, bc)
				}
				bc.events = append(bc.events, ev)
			}
		}
		obs := make([]TriggerFunc, len(e.observers))
		copy(obs, e.observers)
		e.mu.RUnlock()
		for _, fn := range fns {
			fn(ev)
		}
		for _, fn := range obs {
			fn(ev)
		}
	}
	for _, bc := range batched {
		bc.fn(bc.events)
	}
	e.mu.RLock()
	bobs := make([]func([]ChangeEvent), len(e.batchObservers))
	copy(bobs, e.batchObservers)
	e.mu.RUnlock()
	for _, fn := range bobs {
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

func (e *Engine) commit() (*Result, error) {
	e.mu.Lock()
	if !e.inTxn.Load() {
		e.mu.Unlock()
		return nil, fmt.Errorf("engine: no open transaction")
	}
	e.inTxn.Store(false)
	e.forgetUndo(0)
	fire := e.pending
	e.pending = nil
	entry := e.enqueueLocked(fire)
	// COMMIT publishes the whole transaction's versions at once: snapshot
	// readers either see all of it or none of it.
	e.store.PublishSnapshot()
	e.mu.Unlock()
	// COMMIT is the durability point. The wait happens outside the write
	// lock (the records are already appended in order); a Commit failure
	// must surface as a failed COMMIT, and the pent-up change events must
	// not fire.
	if err := e.store.Commit(); err != nil {
		e.settle(entry, false)
		return nil, fmt.Errorf("engine: commit flush: %w", err)
	}
	e.settle(entry, true)
	return &Result{}, nil
}

func (e *Engine) rollback() (*Result, error) {
	e.mu.Lock()
	if !e.inTxn.Load() {
		e.mu.Unlock()
		return nil, fmt.Errorf("engine: no open transaction")
	}
	if err := e.undoTo(0, true); err != nil {
		e.mu.Unlock()
		return nil, err
	}
	e.inTxn.Store(false)
	e.pending = nil
	// The undo stamps cancelled the transaction's writes; publishing now
	// re-exposes exactly the pre-transaction logical state.
	e.store.PublishSnapshot()
	e.mu.Unlock()
	if err := e.store.Commit(); err != nil {
		return nil, fmt.Errorf("engine: rollback flush: %w", err)
	}
	return &Result{}, nil
}

// undoTo reverses the undo entries past mark, newest first, and drops
// them; the compensating writes are logged like any other. views says
// whether the materialized views saw the writes being undone: those of a
// finished statement, yes (ROLLBACK refreshes them); those of a statement
// that failed in its row loop, not yet. Caller holds e.mu.
func (e *Engine) undoTo(mark int, views bool) error {
	for i := len(e.undo) - 1; i >= mark; i-- {
		u := &e.undo[i]
		var err error
		switch u.op {
		case OpInsert:
			_, err = e.store.Delete(u.table, u.tid)
		case OpUpdate:
			_, err = e.store.Update(u.table, u.tid, u.oldRow)
		case OpDelete:
			err = e.store.InsertAt(u.table, u.tid, u.created, u.oldRow)
		}
		if err != nil {
			return fmt.Errorf("engine: rollback: %w", err)
		}
		if views {
			e.views.applyDelta(u.table, oneRow(u.oldRow), oneRow(u.newRow))
		}
	}
	e.forgetUndo(mark)
	return nil
}

// oneRow is the delta list of an undo entry's row: empty when the entry
// has none on that side (an insert has no old row, a delete no new one).
func oneRow(r types.Row) []types.Row {
	if r == nil {
		return nil
	}
	return []types.Row{r}
}

// undoKeepCap bounds the undo slice kept for reuse once it is emptied: a
// larger one, left by a big transaction, is released with its entries.
const undoKeepCap = 4096

// forgetUndo drops the undo entries past mark: their rows are released,
// and the slice is kept for the next statement unless it is emptied past
// undoKeepCap.
func (e *Engine) forgetUndo(mark int) {
	if mark == 0 && cap(e.undo) > undoKeepCap {
		e.undo = nil
		return
	}
	clear(e.undo[mark:])
	e.undo = e.undo[:mark]
}

// InTxn reports whether a transaction is open.
func (e *Engine) InTxn() bool { return e.inTxn.Load() }

// execMutation runs a non-SELECT statement under the write lock.
func (e *Engine) execMutation(st sqltext.Statement, args []types.Value) (*Result, []ChangeEvent, error) {
	if e.readOnly && !e.replicaMayWrite(st) {
		return nil, nil, ErrReadOnlyReplica
	}
	switch s := st.(type) {
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
		return e.execInsert(s, args)
	case *sqltext.Update:
		return e.execUpdate(s, args)
	case *sqltext.Delete:
		return e.execDelete(s, args)
	}
	return nil, nil, fmt.Errorf("engine: unsupported statement %T", st)
}

// TableNames lists user tables (views excluded).
func (e *Engine) TableNames() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var out []string
	for _, n := range e.cat.TableNames() {
		if !strings.HasPrefix(n, "__view_") {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

package engine

import (
	"fmt"
	"strings"
	"sync"

	"ediflow/internal/engine/vm"
	"ediflow/internal/sqltext"
	"ediflow/internal/types"
)

// This file is the engine side of the compiled expression VM
// (internal/engine/vm): compiling expressions against a relation's
// column layout, caching the programs, and running batches.
//
// Programs are cached per expression *pointer*. The plan cache
// (plancache.go) already guarantees pointer stability: a SQL text parses
// once and every execution reuses the same AST, so caching by expression
// identity is exactly "compiled programs live beside parsed plans" —
// with the bonus that statement-internal expressions (a view's fold and
// delta queries, UPDATE SET lists) cache the same way. DDL and
// function-registry changes purge the cache (and bump a generation so
// in-flight EXPLAINs never resurrect a stale program).

// progCache maps expression identity and layout width to its program.
type progCache struct {
	mu  sync.Mutex
	m   map[sqltext.Expr]*progEntry
	cap int
}

type progEntry struct {
	prog  *vm.Program
	ncols int // column-layout width the program was compiled for
}

func newProgCache(cap int) *progCache {
	return &progCache{m: make(map[sqltext.Expr]*progEntry), cap: cap}
}

func (c *progCache) get(x sqltext.Expr, ncols int) (*vm.Program, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[x]
	if !ok || e.ncols != ncols {
		return nil, false
	}
	return e.prog, true
}

func (c *progCache) put(x sqltext.Expr, ncols int, p *vm.Program) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.m) >= c.cap {
		// Unbounded keys are possible (evicted plans leave their ASTs
		// behind); a rare clear-all is cheaper than tracking LRU order.
		c.m = make(map[sqltext.Expr]*progEntry)
	}
	c.m[x] = &progEntry{prog: p, ncols: ncols}
}

func (c *progCache) purge() {
	c.mu.Lock()
	c.m = make(map[sqltext.Expr]*progEntry)
	c.mu.Unlock()
}

func (c *progCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// vmEnv is the compile environment of the binder's layout: column
// resolution is binder.resolve itself (an unknown or ambiguous name
// compiles to lanes holding its error), aggregate calls resolve to the
// group layout's columns (aggCol), then the scalar function registry and
// the engine's exact missing-parameter error.
func (b *binder) vmEnv() *vm.Env {
	return &vm.Env{Resolve: b.resolve, Agg: b.aggCol, Func: b.e.vmFunc, MissingParam: missingParam}
}

func missingParam(idx int) error {
	return fmt.Errorf("engine: missing argument for parameter %d", idx+1)
}

// vmFunc resolves a scalar function for the compiler: builtins first,
// then user-registered functions, else a function that fails with the
// unknown-function error once its arguments have evaluated. The
// implementation is baked into the program, so RegisterFunc purges
// compiled programs.
func (e *Engine) vmFunc(name string) vm.ScalarFunc {
	if builtinScalars[name] {
		return func(args []types.Value) (types.Value, error) {
			return callScalar(name, args)
		}
	}
	if fn := e.userFunc(name); fn != nil {
		return vm.ScalarFunc(fn)
	}
	err := fmt.Errorf("engine: unknown function %s", name)
	return func([]types.Value) (types.Value, error) { return types.Null, err }
}

// compiledProg returns the program for x over b's layout — rel's columns,
// then b's aggregate results — compiled on first sight and cached; nil
// only for a nil expression.
func (e *Engine) compiledProg(x sqltext.Expr, b *binder) *vm.Program {
	if x == nil {
		return nil
	}
	ncols := len(b.rel.cols) + len(b.aggs)
	if p, ok := e.progs.get(x, ncols); ok {
		return p
	}
	p := vm.Compile(x, b.vmEnv())
	e.mVMCompile.Inc()
	e.progs.put(x, ncols, p)
	return p
}

// machine acquires a machine from p's pool, bound to the statement's
// arguments and this binder's subqueries. The statement owns it until
// ExecStmt returns (stmtCtx.release). Machines are not goroutine-safe:
// each morsel worker acquires its own.
func (b *binder) machine(p *vm.Program) *vm.Machine {
	m := p.Acquire()
	m.Bind(b.args, b.subquery)
	ctx := b.ctx
	ctx.machMu.Lock()
	ctx.machines = append(ctx.machines, m)
	ctx.machMu.Unlock()
	return m
}

// evaluator runs several programs of one binder over a shared batch of
// the binder's layout, a batch of rows at a time. A nil program's
// machine and vector stay nil.
type evaluator struct {
	machines []*vm.Machine
	vecs     []*vm.Vec
	batch    *vm.Batch // nil when every program is nil
	sys      bool      // a program reads a base table's _tid or _created
	scratch  types.Row
}

func (b *binder) evaluator(progs []*vm.Program) evaluator {
	ev := evaluator{machines: make([]*vm.Machine, len(progs)), vecs: make([]*vm.Vec, len(progs))}
	used := usedCols(progs)
	ev.sys = len(used) > 0 && used[len(used)-1] >= len(b.rel.cols)-2
	for i, p := range progs {
		if p == nil {
			continue
		}
		ev.machines[i] = b.machine(p)
		if ev.batch == nil {
			kinds := batchKinds(b.rel.cols)
			for range b.aggs {
				kinds = append(kinds, types.KindNull)
			}
			ev.batch = ev.machines[i].Batch(kinds, used)
		}
	}
	return ev
}

// fill loads src's lanes into the batch. A base table's system columns,
// kept beside its rows, are spliced in row by row when a program reads
// them.
func (ev *evaluator) fill(src *batch) {
	if !ev.sys || src.tids == nil {
		ev.batch.Fill(src.rows)
		return
	}
	ev.batch.Reset()
	if ev.scratch == nil {
		ev.scratch = make(types.Row, 0, len(src.rows[0])+2)
	}
	for i, r := range src.rows {
		ev.scratch = append(append(ev.scratch[:0], r...), types.NewInt(src.tids[i]), types.NewInt(src.created[i]))
		ev.batch.Append(ev.scratch)
	}
}

// eval runs every program over the batch as loaded.
func (ev *evaluator) eval(e *Engine) {
	for i, m := range ev.machines {
		if m != nil {
			ev.vecs[i] = m.Eval(ev.batch)
		}
	}
	e.countVM(ev.batch.Len())
}

// load fills the batch with src's lanes (at most vm.BatchSize of them)
// and evaluates every program over them; without a lane or a program it
// does nothing.
func (ev *evaluator) load(e *Engine, src *batch) {
	if ev.batch != nil && len(src.rows) > 0 {
		ev.fill(src)
		ev.eval(e)
	}
}

// release returns every machine the statement acquired to its program's
// pool. Result rows hold copies of lane values, never the lanes.
func (ctx *stmtCtx) release() {
	for _, m := range ctx.machines {
		m.Release()
	}
	ctx.machines = nil
}

// countVM charges one executed batch of n rows to the vm.* counters.
func (e *Engine) countVM(n int) {
	if e.reg.Enabled() {
		e.mVMBatches.Inc()
		e.mVMRows.Add(int64(n))
	}
}

// batchKinds maps a relation layout to per-column batch kinds. Declared
// kinds are advisory (view backing tables infer them): the batch
// promotes a column to boxed lanes if a row disagrees.
func batchKinds(cols []colMeta) []types.Kind {
	kinds := make([]types.Kind, len(cols))
	for i, c := range cols {
		kinds[i] = c.kind
	}
	return kinds
}

// ScalarFunc is a user-registered scalar SQL function. Arguments are
// already evaluated; the implementation is responsible for its own NULL
// handling, like the built-ins in funcs.go. The args slice is reused
// between calls and must not be retained.
type ScalarFunc func(args []types.Value) (types.Value, error)

// RegisterFunc registers (or replaces) a scalar function under the
// given name, callable from any SQL expression. Built-in names cannot
// be overridden. Registration purges compiled programs: a cached
// program has the previous implementation baked in, and serving it
// after re-registration would silently return stale results.
func (e *Engine) RegisterFunc(name string, fn ScalarFunc) {
	e.udfMu.Lock()
	if e.udfs == nil {
		e.udfs = map[string]ScalarFunc{}
	}
	e.udfs[strings.ToUpper(name)] = fn
	e.udfMu.Unlock()
	e.progs.purge()
}

// userFunc looks up a registered scalar function by upper-cased name.
func (e *Engine) userFunc(name string) ScalarFunc {
	e.udfMu.RLock()
	fn := e.udfs[name]
	e.udfMu.RUnlock()
	return fn
}

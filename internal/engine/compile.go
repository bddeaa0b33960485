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
// with the bonus that statement-internal expressions (IVM refresh
// queries, UPDATE SET lists) cache the same way. DDL and
// function-registry changes purge the cache (and bump a generation so
// in-flight EXPLAINs never resurrect a stale program).

// progCache maps expression identity to its program — compiled, or the
// interpreter wrapper of an expression known not to lower, so fallback
// is decided once, not per execution.
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
		// Unbounded keys are possible (IVM MIN/MAX recompute builds fresh
		// ASTs); a rare clear-all is cheaper than tracking LRU order.
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

// vmEnv is the compile environment of the binder's relation: column
// resolution is binder.resolve itself (so an unknown or ambiguous name
// does not lower and the interpreter reports it), the scalar function
// registry, and the engine's exact missing-parameter error.
func (b *binder) vmEnv() *vm.Env {
	return &vm.Env{
		Resolve: func(cr *sqltext.ColumnRef) (int, bool) {
			i, err := b.resolve(cr)
			return i, err == nil
		},
		Func:         b.e.vmFunc,
		MissingParam: missingParam,
	}
}

func missingParam(idx int) error {
	return fmt.Errorf("engine: missing argument for parameter %d", idx+1)
}

// vmFunc resolves a scalar function for the compiler: builtins first
// (matching callScalarFn's precedence), then user-registered functions.
// The implementation is baked into the program, so RegisterFunc purges
// compiled programs.
func (e *Engine) vmFunc(name string) (vm.ScalarFunc, bool) {
	if builtinScalars[name] {
		return func(args []types.Value) (types.Value, error) {
			return callScalar(name, args)
		}, true
	}
	if fn := e.userFunc(name); fn != nil {
		return vm.ScalarFunc(fn), true
	}
	return nil, false
}

// compiledProg returns the program for x over b's relation, nil only
// for a nil expression: the cached compiled program, compiled on first
// sight, or — when x does not lower as a whole (counted once per
// expression in vm.fallback, never an error) — a vm.Interpret wrapper
// that calls b.eval per row. Every expression site therefore has one
// evaluation loop, and the sites that must know (width, projection
// pushdown, EXPLAIN markers) ask the program whether it is Interpreted.
func (e *Engine) compiledProg(x sqltext.Expr, b *binder) *vm.Program {
	if x == nil {
		return nil
	}
	ncols := len(b.rel.cols)
	if e.interpretAll.Load() {
		return vm.Interpret(x, ncols)
	}
	if p, ok := e.progs.get(x, ncols); ok {
		return p
	}
	p, err := vm.Compile(x, b.vmEnv())
	if err != nil {
		p = vm.Interpret(x, ncols)
		e.mVMFallback.Inc()
	} else {
		e.mVMCompile.Inc()
	}
	e.progs.put(x, ncols, p)
	return p
}

// machine acquires a machine from p's pool, bound to the statement's
// arguments and, for Interpreted programs, to this binder's interpreter.
// The statement owns it until ExecStmt returns (stmtCtx.release).
// Machines are not goroutine-safe and neither is the binder;
// Engine.workers keeps a scan with an Interpreted filter at width 1.
func (b *binder) machine(p *vm.Program) *vm.Machine {
	m := p.Acquire()
	m.Bind(b.args, b.eval)
	ctx := b.ctx
	ctx.machMu.Lock()
	ctx.machines = append(ctx.machines, m)
	ctx.machMu.Unlock()
	return m
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

// filterRows keeps the rows of b's relation that pass the predicate,
// batch by batch; the first erroring row in row order aborts.
func (e *Engine) filterRows(where sqltext.Expr, b *binder) ([]types.Row, error) {
	prog := e.compiledProg(where, b)
	rows := b.rel.rows
	m := b.machine(prog)
	batch := m.Batch(batchKinds(b.rel.cols), prog.Cols())
	kept := rows[:0:0]
	for start := 0; start < len(rows); start += vm.BatchSize {
		end := min(start+vm.BatchSize, len(rows))
		batch.Fill(rows[start:end])
		sel, err := m.Filter(batch)
		if err != nil {
			return nil, err
		}
		for _, i := range sel {
			kept = append(kept, rows[start+i])
		}
		e.countVM(batch.Len())
	}
	return kept, nil
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

// callScalarFn dispatches a scalar function call: built-ins first, then
// the user registry. Both the interpreter and the VM's compile-time
// resolution (vmFunc) follow this exact precedence.
func (e *Engine) callScalarFn(name string, args []types.Value) (types.Value, error) {
	if builtinScalars[name] {
		return callScalar(name, args)
	}
	if fn := e.userFunc(name); fn != nil {
		return fn(args)
	}
	return types.Null, fmt.Errorf("engine: unknown function %s", name)
}

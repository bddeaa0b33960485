package engine

import (
	"fmt"
	"slices"
	"strings"

	"ediflow/internal/engine/vm"
	"ediflow/internal/sqltext"
	"ediflow/internal/types"
)

// This file is the engine side of the compiled expression VM
// (internal/engine/vm): compiling a plan's expressions against the
// column layout they run over, and running batches through them.
// Programs are compiled once, while a statement is planned, and live in
// its plan (plancache.go); nothing else caches them.

// evalPlan is programs over one layout, compiled together: what an
// evaluator's machines run, and the shape of the batch they share. A nil
// program evaluates nothing.
type evalPlan struct {
	progs []*vm.Program
	kinds []types.Kind // the batch's column kinds: the layout's, then NULL per aggregate
	used  []int        // the columns the programs read, ascending
	sys   bool         // a program reads a base table's _tid or _created
}

// compile compiles x over rel — then, in an aggregate SELECT's group
// layout, each aggregate call of aggs in the column past rel's — and
// plans the subqueries it holds; nil only for a nil expression. Column
// resolution is rel.resolve (an unknown or ambiguous name compiles to
// lanes holding its error), then the scalar function registry and the
// engine's exact missing-parameter error.
func (pl *planner) compile(x sqltext.Expr, rel *relation, aggs map[*sqltext.FuncCall]int) *vm.Program {
	if x == nil {
		return nil
	}
	sqltext.WalkExpr(&x, func(p *sqltext.Expr) bool {
		var q *sqltext.Select
		switch y := (*p).(type) {
		case *sqltext.Subquery:
			q = y.Query
		case *sqltext.Exists:
			q = y.Query
		case *sqltext.InExpr:
			q = y.Query
		}
		if _, ok := pl.subs[q]; q != nil && !ok {
			pl.subs[q] = pl.selectPlan(q)
		}
		return true
	})
	agg := func(fc *sqltext.FuncCall) (int, error) {
		if i, ok := aggs[fc]; ok {
			return len(rel.cols) + i, nil
		}
		return 0, fmt.Errorf("engine: aggregate %s outside GROUP BY context", fc.Name)
	}
	pl.e.mVMCompile.Inc()
	return vm.Compile(x, &vm.Env{Resolve: rel.resolve, Agg: agg, Func: pl.e.vmFunc, MissingParam: missingParam})
}

// evalPlan compiles xs over rel (and aggs, see compile) into one plan.
func (pl *planner) evalPlan(rel *relation, aggs map[*sqltext.FuncCall]int, xs ...sqltext.Expr) evalPlan {
	progs := make([]*vm.Program, len(xs))
	for i, x := range xs {
		progs[i] = pl.compile(x, rel, aggs)
	}
	return newEvalPlan(rel, len(aggs), progs)
}

// newEvalPlan fixes the batch programs compiled over rel and naggs
// aggregate columns share.
func newEvalPlan(rel *relation, naggs int, progs []*vm.Program) evalPlan {
	ep := evalPlan{progs: progs, used: usedCols(progs)}
	if !slices.ContainsFunc(progs, func(p *vm.Program) bool { return p != nil }) {
		return ep
	}
	ep.sys = len(ep.used) > 0 && ep.used[len(ep.used)-1] >= len(rel.cols)-2
	ep.kinds = make([]types.Kind, len(rel.cols), len(rel.cols)+naggs)
	for i, c := range rel.cols {
		ep.kinds[i] = c.kind
	}
	for range naggs {
		ep.kinds = append(ep.kinds, types.KindNull)
	}
	return ep
}

func missingParam(idx int) error {
	return fmt.Errorf("engine: missing argument for parameter %d", idx+1)
}

// vmFunc resolves a scalar function for the compiler: builtins first,
// then user-registered functions, else a function that fails with the
// unknown-function error once its arguments have evaluated. The
// implementation is baked into the program, so RegisterFunc purges the
// plans.
func (e *Engine) vmFunc(name string) vm.ScalarFunc {
	if _, ok := builtinScalars[name]; ok {
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

// machine acquires a machine from p's pool, bound to the statement's
// arguments and, when p runs subqueries, this binder's. The statement
// owns it until ExecStmt returns (stmtCtx.release). Machines are not
// goroutine-safe: each morsel worker acquires its own.
func (b *binder) machine(p *vm.Program) *vm.Machine {
	m := p.Acquire()
	var sub vm.SubqueryFunc
	if p.Subqueries() {
		sub = b.subquery
	}
	m.Bind(b.args, sub)
	ctx := b.ctx
	ctx.machMu.Lock()
	ctx.machines = append(ctx.machines, m)
	ctx.machMu.Unlock()
	return m
}

// evaluator runs the programs of one evalPlan over a shared batch of its
// layout, a batch of rows at a time. A nil program's machine and vector
// stay nil; without a program there is no batch and nothing to run.
type evaluator struct {
	machines []*vm.Machine
	vecs     []*vm.Vec
	batch    *vm.Batch // nil when every program is nil
	sys      bool
	scratch  types.Row
}

func (b *binder) evaluator(ep *evalPlan) evaluator {
	if ep == nil || ep.kinds == nil {
		return evaluator{}
	}
	ev := evaluator{sys: ep.sys, machines: make([]*vm.Machine, len(ep.progs)), vecs: make([]*vm.Vec, len(ep.progs))}
	for i, p := range ep.progs {
		if p == nil {
			continue
		}
		ev.machines[i] = b.machine(p)
		if ev.batch == nil {
			ev.batch = ev.machines[i].Batch(ep.kinds, ep.used)
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
		tid := types.NewInt(src.tids[i]) // _tid, and _created: the same stamp
		ev.scratch = append(append(ev.scratch[:0], r...), tid, tid)
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

// ScalarFunc is a user-registered scalar SQL function. Arguments are
// already evaluated; the implementation is responsible for its own NULL
// handling, like the built-ins in funcs.go. The args slice is reused
// between calls and must not be retained.
type ScalarFunc func(args []types.Value) (types.Value, error)

// RegisterFunc registers (or replaces) a scalar function under the
// given name, callable from any SQL expression. Built-in names cannot
// be overridden. Registration purges the plans: a planned program has
// the previous implementation baked in, and serving it after
// re-registration would silently return stale results.
func (e *Engine) RegisterFunc(name string, fn ScalarFunc) {
	e.udfMu.Lock()
	if e.udfs == nil {
		e.udfs = map[string]ScalarFunc{}
	}
	e.udfs[strings.ToUpper(name)] = fn
	e.udfMu.Unlock()
	e.plans.purge()
}

// userFunc looks up a registered scalar function by upper-cased name.
func (e *Engine) userFunc(name string) ScalarFunc {
	e.udfMu.RLock()
	fn := e.udfs[name]
	e.udfMu.RUnlock()
	return fn
}

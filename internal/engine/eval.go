package engine

import (
	"fmt"
	"strings"
	"sync"

	"ediflow/internal/sqltext"
	"ediflow/internal/storage"
	"ediflow/internal/types"
)

// colMeta identifies one column of an intermediate relation.
type colMeta struct {
	qual   string     // lower-cased table alias, "" for computed columns
	name   string     // lower-cased column name
	hidden bool       // system columns (_tid, _created) excluded from `*`
	kind   types.Kind // declared kind; KindNull when unknown/computed. Advisory
	// only: the VM batch layer verifies each value and falls back to
	// boxed lanes on mismatch (view backing tables infer kinds).
}

// relation is the column layout of an intermediate result, the names a
// plan resolves against. tbl is set on a base table's layout
// (resolveRef): a join probes that table's storage indexes, or scans it
// to build its right side, instead of being handed its rows.
type relation struct {
	cols []colMeta
	tbl  *storage.Table
}

// resolve returns the column position of a reference: a qualified name
// the last column it names, an unqualified one the only column of its
// name (two make it ambiguous). Plans resolve once, so a walk over the
// columns is all it takes.
func (r *relation) resolve(cr *sqltext.ColumnRef) (int, error) {
	name, qual := strings.ToLower(cr.Column), strings.ToLower(cr.Table)
	at, n := -1, 0
	for i, c := range r.cols {
		if c.name == name && (qual == "" || c.qual == qual) {
			at, n = i, n+1
		}
	}
	switch {
	case n == 0 && qual != "":
		return 0, fmt.Errorf("engine: unknown column %s.%s", cr.Table, cr.Column)
	case n == 0:
		return 0, fmt.Errorf("engine: unknown column %s", cr.Column)
	case n > 1 && qual == "":
		return 0, fmt.Errorf("engine: ambiguous column %s", cr.Column)
	}
	return at, nil
}

// binder is one execution's state of a plan's expressions: the
// statement's arguments and context, which the machines it acquires are
// bound to, and the outcomes of the subqueries they run. The plan fixes
// everything else. A statement makes one binder where its subqueries
// run once: per SELECT for WHERE, the items and the fold, per aggregate
// tail (HAVING), per join's ON and per value row.
type binder struct {
	e    *Engine
	args []types.Value
	ctx  *stmtCtx // statement context (snapshot seq, scan tally, machines)
	subs map[*sqltext.Select]*selPlan

	subMu    sync.Mutex // held while a subquery runs: morsel workers share the binder
	subCache map[*sqltext.Select]subResult
}

func (e *Engine) newBinder(subs map[*sqltext.Select]*selPlan, args []types.Value, ctx *stmtCtx) *binder {
	return &binder{e: e, args: args, ctx: ctx, subs: subs}
}

// subResult is a subquery's cached outcome.
type subResult struct {
	rows []types.Row
	err  error
}

// subquery evaluates an uncorrelated subquery through its plan, once per
// binder — its error too: lanes hold errors and evaluation goes on, so
// an unmemoised failing subquery would run once per batch. The machines
// of every morsel worker of a scan share the binder, so the first caller
// runs the subquery under the lock and the others wait for its outcome.
func (b *binder) subquery(q *sqltext.Select) ([]types.Row, error) {
	b.subMu.Lock()
	defer b.subMu.Unlock()
	r, ok := b.subCache[q]
	if !ok {
		var res *Result
		if res, r.err = b.e.evalSelect(b.subs[q], b.args, nil, b.ctx); r.err == nil {
			r.rows = res.Rows
		}
		if b.subCache == nil {
			b.subCache = map[*sqltext.Select]subResult{}
		}
		b.subCache[q] = r
	}
	return r.rows, r.err
}

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

// relation is the column layout of an intermediate result. tbl is set on
// a base table's layout (resolveRef): a join probes that table's storage
// indexes, or scans it to build its right side, instead of being handed
// its rows.
type relation struct {
	cols []colMeta
	tbl  *storage.Table
}

// binder is the compile and run environment of one statement's
// expressions over one relation: how column references resolve, the
// statement's arguments, and its subqueries.
type binder struct {
	e    *Engine
	args []types.Value
	rel  *relation
	ctx  *stmtCtx // statement context (snapshot seq, scan tally)

	byQual    map[string]int // "qual.name" → position
	byName    map[string]int // "name" → position (unambiguous only)
	ambiguous map[string]bool

	// aggs is set on the binder of an aggregate SELECT's group layout
	// (groupBinder): each aggregate call of the items and HAVING, mapped
	// to its result's column past rel's. nil in row context.
	aggs map[*sqltext.FuncCall]int

	subMu    sync.Mutex // held while a subquery runs: morsel workers share the binder
	subCache map[*sqltext.Select]subResult
}

func newBinder(e *Engine, args []types.Value, rel *relation, ctx *stmtCtx) *binder {
	ncols := 0
	if rel != nil {
		ncols = len(rel.cols)
	}
	b := &binder{
		e: e, args: args, rel: rel, ctx: ctx,
		byQual:    make(map[string]int, ncols),
		byName:    make(map[string]int, ncols),
		ambiguous: map[string]bool{},
		subCache:  map[*sqltext.Select]subResult{},
	}
	if rel != nil {
		for i, c := range rel.cols {
			if c.qual != "" {
				b.byQual[c.qual+"."+c.name] = i
			}
			if _, dup := b.byName[c.name]; dup {
				b.ambiguous[c.name] = true
			} else {
				b.byName[c.name] = i
			}
		}
	}
	return b
}

// resolve returns the column position of a reference.
func (b *binder) resolve(cr *sqltext.ColumnRef) (int, error) {
	name := strings.ToLower(cr.Column)
	if cr.Table != "" {
		q := strings.ToLower(cr.Table) + "." + name
		if i, ok := b.byQual[q]; ok {
			return i, nil
		}
		return 0, fmt.Errorf("engine: unknown column %s.%s", cr.Table, cr.Column)
	}
	if b.ambiguous[name] {
		return 0, fmt.Errorf("engine: ambiguous column %s", cr.Column)
	}
	if i, ok := b.byName[name]; ok {
		return i, nil
	}
	return 0, fmt.Errorf("engine: unknown column %s", cr.Column)
}

// subResult is a subquery's cached outcome.
type subResult struct {
	rows []types.Row
	err  error
}

// groupBinder is b over an aggregate SELECT's group layout: rel's
// columns, then the result of each aggregate call in aggs.
func (b *binder) groupBinder(aggs map[*sqltext.FuncCall]int) *binder {
	return &binder{e: b.e, args: b.args, rel: b.rel, ctx: b.ctx, byQual: b.byQual, byName: b.byName,
		ambiguous: b.ambiguous, aggs: aggs, subCache: map[*sqltext.Select]subResult{}}
}

// aggCol maps an aggregate call to its column in the group layout; in row
// context every lane reading it holds the error.
func (b *binder) aggCol(fc *sqltext.FuncCall) (int, error) {
	if i, ok := b.aggs[fc]; ok {
		return len(b.rel.cols) + i, nil
	}
	return 0, fmt.Errorf("engine: aggregate %s outside GROUP BY context", fc.Name)
}

// subquery evaluates an uncorrelated subquery, once per binder — its
// error too: lanes hold errors and evaluation goes on, so an unmemoised
// failing subquery would run once per batch. The machines of every
// morsel worker of a scan share the binder, so the first caller runs the
// subquery under the lock and the others wait for its outcome.
func (b *binder) subquery(q *sqltext.Select) ([]types.Row, error) {
	b.subMu.Lock()
	defer b.subMu.Unlock()
	r, ok := b.subCache[q]
	if !ok {
		var res *Result
		if res, r.err = b.e.evalSelect(q, b.args, nil, b.ctx); r.err == nil {
			r.rows = res.Rows
		}
		b.subCache[q] = r
	}
	return r.rows, r.err
}

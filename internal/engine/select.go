package engine

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"ediflow/internal/catalog"
	"ediflow/internal/engine/vm"
	"ediflow/internal/sqltext"
	"ediflow/internal/storage"
	"ediflow/internal/types"
)

// stmtCtx carries per-statement execution state: the MVCC snapshot seq
// base-table reads resolve against, the outermost SELECT (AS OF is only
// honored there), and an exact rows-scanned tally. One ctx exists per
// statement and is touched only by the executing goroutine — except
// machines, which morsel workers append to concurrently under machMu.
type stmtCtx struct {
	snap       int64           // visibility ceiling for base-table reads
	top        *sqltext.Select // outermost SELECT of the statement, if any
	scanned    int64           // rows examined by this statement (exact)
	parWorkers int64           // widest fan-out any scan of the statement used

	machMu   sync.Mutex
	machines []*vm.Machine // acquired by binder.machine, released by ExecStmt
}

// writerCtx returns the context of the mutation currently holding the
// write lock, or a fresh read-latest context when the engine is re-entered
// outside a mutation (view restore at startup, rollback refresh).
func (e *Engine) writerCtx() *stmtCtx {
	if e.writeCtx != nil {
		return e.writeCtx
	}
	return &stmtCtx{snap: storage.SeqLatest}
}

// EvalWith implements ivm.Evaluator: evaluate a SELECT with some tables'
// contents substituted. The caller is the view maintainer running inside
// an engine mutation, which already holds the write lock — reads resolve
// at SeqLatest so the maintainer sees the statement's own writes.
func (e *Engine) EvalWith(sel *sqltext.Select, overrides map[string][]types.Row) ([]types.Row, error) {
	res, err := e.evalSelect(sel, nil, overrides, e.writerCtx())
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// evalSelect runs a SELECT — top-level, subquery or view query — against
// the snapshot captured in ctx, with overrides substituted for the tables
// they name. Result rows are always freshly built slices, but their
// values may share BYTES payloads with stored versions: only execSelect
// hands rows out of the engine, and it detaches them there.
func (e *Engine) evalSelect(sel *sqltext.Select, args []types.Value, overrides map[string][]types.Row, ctx *stmtCtx) (*Result, error) {
	if sel.AsOf != nil && sel != ctx.top {
		return nil, fmt.Errorf("engine: AS OF is only supported on the top-level SELECT")
	}
	// Build the source relation (FROM + JOINs + WHERE).
	var rel *relation
	var b *binder
	whereApplied := false
	if sel.From == nil {
		rel = &relation{rows: []types.Row{nil}} // one empty row: SELECT 1+1
		b = newBinder(e, args, rel, ctx)
	} else {
		var err error
		rel, b, whereApplied, err = e.buildFrom(sel, args, overrides, ctx)
		if err != nil {
			return nil, err
		}
	}

	// Scan-side projection (see scanProjection): rows already ARE the
	// output tuples, and the pushdown gates guarantee that only
	// DISTINCT and LIMIT/OFFSET remain to apply.
	colNames := rel.projNames
	out := rel.rows
	var srcRows []types.Row // representative source row per output row (for ORDER BY)
	var items []projItem
	var orderCols []int
	if colNames == nil {
		// WHERE (unless the scan already streamed it — see buildTableRef):
		// index-scan refiltering, post-join filters, and IVM override
		// evaluation alike — anything already materialized.
		var err error
		if sel.Where != nil && !whereApplied {
			if rel.rows, err = e.filterRows(sel.Where, b); err != nil {
				return nil, err
			}
		}

		// Projection: expand stars, determine output columns.
		if items, colNames, err = expandItems(sel, rel); err != nil {
			return nil, err
		}
		aggregate := len(sel.GroupBy) > 0 || sel.Having != nil
		for _, it := range items {
			aggregate = aggregate || (it.Expr != nil && sqltext.HasAggregate(it.Expr))
		}
		for _, o := range sel.OrderBy {
			aggregate = aggregate || sqltext.HasAggregate(o.Expr)
		}
		if aggregate {
			items, orderCols = aggOrderItems(sel, items)
			out, srcRows, err = e.evalAggregateSelect(sel, items, rel, b)
		} else {
			srcRows = rel.rows
			out, err = e.projectRows(items, b, make([]types.Row, 0, len(rel.rows)))
		}
		if err != nil {
			return nil, err
		}
	}

	// DISTINCT, over the visible columns (aggOrderItems may have appended
	// hidden sort keys).
	if sel.Distinct {
		seen := map[string]bool{}
		kept, keptSrc := out[:0:0], srcRows[:0:0]
		for i, r := range out {
			k := types.RowKey(r[:len(colNames)])
			if seen[k] {
				continue
			}
			seen[k] = true
			kept = append(kept, r)
			if i < len(srcRows) {
				keptSrc = append(keptSrc, srcRows[i])
			}
		}
		out, srcRows = kept, keptSrc
	}

	// ORDER BY (bounded top-k selection when LIMIT is statically known).
	if len(sel.OrderBy) > 0 {
		var err error
		if out, err = e.orderRows(sel, colNames, orderCols, out, srcRows, b); err != nil {
			return nil, err
		}
		if len(items) > len(colNames) {
			for i, r := range out {
				out[i] = r[:len(colNames):len(colNames)]
			}
		}
	}

	// LIMIT / OFFSET.
	if sel.Offset != nil {
		n, err := e.intArg(sel.Offset, b)
		if err != nil {
			return nil, err
		}
		if n > int64(len(out)) {
			n = int64(len(out))
		}
		if n > 0 {
			out = out[n:]
		}
	}
	if sel.Limit != nil {
		n, err := e.intArg(sel.Limit, b)
		if err != nil {
			return nil, err
		}
		if n < int64(len(out)) && n >= 0 {
			out = out[:n]
		}
	}

	return &Result{Columns: colNames, Rows: out}, nil
}

// aggOrderItems makes every ORDER BY key that contains an aggregate a
// column of the aggregate SELECT's output, so it is evaluated over its
// whole group like any item: the output item with the same text when
// there is one, else a hidden trailing item evalSelect strips after
// ordering. orderCols[i] is ORDER BY key i's column, -1 for a key that
// holds no aggregate.
func aggOrderItems(sel *sqltext.Select, items []projItem) ([]projItem, []int) {
	orderCols := make([]int, len(sel.OrderBy))
	for oi, o := range sel.OrderBy {
		orderCols[oi] = -1
		if !sqltext.HasAggregate(o.Expr) {
			continue
		}
		text := o.Expr.String()
		for i, it := range items {
			if it.Expr.String() == text {
				orderCols[oi] = i
				break
			}
		}
		if orderCols[oi] < 0 {
			orderCols[oi] = len(items)
			items = append(items, projItem{Expr: o.Expr})
		}
	}
	return items, orderCols
}

// intArg evaluates LIMIT or OFFSET (see valuesRow).
func (e *Engine) intArg(x sqltext.Expr, b *binder) (int64, error) {
	row, err := e.valuesRow([]sqltext.Expr{x}, b)
	if err != nil {
		return 0, err
	}
	return row[0].AsInt()
}

// valuesRow evaluates expressions that have no source row: the cells of
// an INSERT … VALUES row, LIMIT, OFFSET. A literal or parameter is read
// directly — every cell of a shaped bulk load — and a row with any other
// expression is projected over one empty row of b's layout, as SELECT
// 1+1 is: its columns read NULL.
func (e *Engine) valuesRow(exprs []sqltext.Expr, b *binder) (types.Row, error) {
	row := make(types.Row, len(exprs))
	for i, x := range exprs {
		v, ok := constVal(x, b.args)
		if !ok {
			rel := &relation{rows: []types.Row{nil}}
			if b.rel != nil {
				rel.cols = b.rel.cols
			}
			items := make([]projItem, len(exprs))
			for j, y := range exprs {
				items[j].Expr = y
			}
			out, err := e.projectRows(items, newBinder(e, b.args, rel, b.ctx), nil)
			if err != nil {
				return nil, err
			}
			return out[0], nil
		}
		row[i] = v
	}
	return row, nil
}

// projItem is a resolved projection item.
type projItem struct {
	Expr  sqltext.Expr
	Alias string
}

// expandItems resolves stars against the relation and returns projection
// expressions plus output column names.
func expandItems(sel *sqltext.Select, rel *relation) ([]projItem, []string, error) {
	var items []projItem
	var names []string
	for _, it := range sel.Items {
		switch {
		case it.Star:
			qual := strings.ToLower(it.Table)
			matched := false
			for _, c := range rel.cols {
				if c.hidden {
					continue
				}
				if qual != "" && c.qual != qual {
					continue
				}
				matched = true
				ref := &sqltext.ColumnRef{Column: c.name}
				if c.qual != "" {
					ref.Table = c.qual
				}
				items = append(items, projItem{Expr: ref})
				names = append(names, c.name)
			}
			if qual != "" && !matched {
				return nil, nil, fmt.Errorf("engine: unknown table %s in %s.*", it.Table, it.Table)
			}
		default:
			name := it.Alias
			if name == "" {
				if cr, ok := it.Expr.(*sqltext.ColumnRef); ok {
					name = cr.Column
				} else {
					name = it.Expr.String()
				}
			}
			items = append(items, projItem{Expr: it.Expr, Alias: it.Alias})
			names = append(names, name)
		}
	}
	return items, names, nil
}

// aggGroup is one output group of an aggregate SELECT: where its first
// source row sits in rel.rows and how many rows it has.
type aggGroup struct {
	first, count int
}

// evalAggregateSelect evaluates GROUP BY / aggregate projection. Rows
// carry a group ordinal so the group keys and every aggregate call's
// argument are evaluated once, batched, across all rows and folded per
// group (buildAggFold); each group's first source row represents it in
// the group layout, and emitGroups produces its output row.
func (e *Engine) evalAggregateSelect(sel *sqltext.Select, items []projItem, rel *relation, b *binder) ([]types.Row, []types.Row, error) {
	n := len(rel.rows)
	var groups []aggGroup
	var rowGroup []int32 // per-row group ordinal; nil = single group
	if len(sel.GroupBy) == 0 {
		// Single implicit group; aggregates over an empty relation still
		// produce one row (COUNT(*) = 0).
		groups = []aggGroup{{count: n}}
	} else {
		keys, err := e.groupKeys(sel, rel, b)
		if err != nil {
			return nil, nil, err
		}
		rowGroup = make([]int32, n)
		ordinal := make(map[string]int32)
		for i, k := range keys {
			g, ok := ordinal[k]
			if !ok {
				g = int32(len(groups))
				ordinal[k] = g
				groups = append(groups, aggGroup{first: i})
			}
			groups[g].count++
			rowGroup[i] = g
		}
	}
	exprs := make([]sqltext.Expr, len(items), len(items)+1)
	for i, it := range items {
		exprs[i] = it.Expr
	}
	exprs = append(exprs, sel.Having)
	fold := e.buildAggFold(exprs, b, rowGroup, groups)
	first := func(g int) types.Row {
		if groups[g].count == 0 {
			return nil // the empty implicit group
		}
		return rel.rows[groups[g].first]
	}
	var out, src []types.Row
	err := e.emitGroups(exprs, b, fold.cols, len(groups), first, fold.result, func(g int, row types.Row) {
		if row != nil {
			out, src = append(out, row), append(src, first(g))
		}
	})
	return out, src, err
}

// emitGroups is the per-group tail of an aggregate query, shared by
// SELECT and the materialized views' fold: exprs are the items, then
// HAVING (nil when there is none). Each of groups [0, n) is a row
// of the group layout — its representative source row rep(g) (nil for
// the empty implicit group), then every aggregate call's result(ci, g),
// an aggregate's error held as that lane's error — and HAVING and the
// items run as programs over batches of groups, row-major, so an error
// surfaces only if a kept group's evaluation reaches it. A bare column or
// a bare aggregate is read directly: a projection of those alone builds
// no group row. out receives every group's output row, nil when HAVING
// rejects the group; the first error stops the run.
func (e *Engine) emitGroups(exprs []sqltext.Expr, b *binder, cols map[*sqltext.FuncCall]int,
	n int, rep func(g int) types.Row, result func(ci, g int) (types.Value, error), out func(g int, row types.Row)) error {
	gb := b.groupBinder(cols)
	w := len(exprs) - 1
	bare, agg, progs := make([]int, w), make([]int, w), make([]*vm.Program, w+1) // HAVING's program rides last
	for i, x := range exprs[:w] {
		bare[i], agg[i] = -1, -1
		if c, ok := b.bareCol(x); ok {
			bare[i] = c
		} else if fc, ok := x.(*sqltext.FuncCall); ok && sqltext.IsAggregateName(fc.Name) {
			agg[i] = cols[fc]
		} else {
			progs[i] = e.compiledProg(x, gb)
		}
	}
	progs[w] = e.compiledProg(exprs[w], gb)
	ev, used := gb.evaluator(progs), usedCols(progs)
	reps := make([]types.Row, 0, min(n, vm.BatchSize))
	for start := 0; start < n; start += vm.BatchSize {
		reps = reps[:0]
		for g := start; g < min(start+vm.BatchSize, n); g++ {
			reps = append(reps, rep(g))
		}
		if ev.batch != nil {
			ev.batch.Fill(reps)
			for _, c := range used {
				if ci := c - len(b.rel.cols); ci >= 0 {
					for k := range reps {
						v, err := result(ci, start+k)
						ev.batch.SetLane(c, k, v, err)
					}
				}
			}
			ev.eval(e)
		}
		for k, r := range reps {
			if having := ev.vecs[w]; having != nil {
				keep, err := having.Truth(k)
				if err != nil {
					return err
				}
				if !keep {
					out(start+k, nil)
					continue
				}
			}
			row := make(types.Row, w)
			for i := range row {
				var err error
				switch {
				case bare[i] >= 0:
					if bare[i] < len(r) {
						row[i] = r[bare[i]]
					}
				case agg[i] >= 0:
					row[i], err = result(agg[i], start+k)
				default:
					if err = ev.vecs[i].Err(k); err == nil {
						row[i] = ev.vecs[i].Value(k)
					}
				}
				if err != nil {
					return err
				}
			}
			out(start+k, row)
		}
	}
	return nil
}

// groupKeys computes the RowKey of the GROUP BY expressions for every
// source row, batched through the VM. Errors surface in (row,
// expression) order.
func (e *Engine) groupKeys(sel *sqltext.Select, rel *relation, b *binder) ([]string, error) {
	keys := make([]string, len(rel.rows))
	if len(keys) == 0 {
		return keys, nil
	}
	progs := make([]*vm.Program, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		progs[i] = e.compiledProg(g, b)
	}
	keyVals := make(types.Row, len(progs))
	err := e.evalVecs(progs, b, func(start, count int, vecs []*vm.Vec) error {
		for ri := 0; ri < count; ri++ {
			for gi, vec := range vecs {
				if err := vec.Err(ri); err != nil {
					return err
				}
				keyVals[gi] = vec.Value(ri)
			}
			keys[start+ri] = types.RowKey(keyVals)
		}
		return nil
	})
	return keys, err
}

// scanProj is a projection compiled for evaluation inside the scan
// loop: per item either a direct column index (bare references) or a
// program run on the scan's batch. It is immutable; each scan worker
// runs the programs on machines of its own (see scanFiltered).
type scanProj struct {
	names []string
	progs []*vm.Program
	bare  []int
}

// scanProjection decides whether the statement's projection can run
// inside the compiled scan. It can when the scan serves the top-level
// SELECT itself (matchTable fabricates a star select for UPDATE/DELETE
// row matching and needs full-width rows with the _tid column — as do
// subquery sources feeding an outer binder) and nothing downstream
// needs the source rows: no GROUP BY / HAVING / ORDER BY, LIMIT and
// OFFSET are literals or parameters. DISTINCT is fine — it runs over
// output tuples.
func (e *Engine) scanProjection(sel *sqltext.Select, b *binder) *scanProj {
	if sel == nil || sel != b.ctx.top || len(sel.GroupBy) > 0 || sel.Having != nil || len(sel.OrderBy) > 0 ||
		!plainIntArg(sel.Limit) || !plainIntArg(sel.Offset) {
		return nil
	}
	items, names, err := expandItems(sel, b.rel)
	if err != nil || len(items) == 0 {
		return nil
	}
	for _, it := range items {
		// Aggregates route to evalAggregateSelect.
		if sqltext.HasAggregate(it.Expr) {
			return nil
		}
	}
	sp := &scanProj{
		names: names,
		progs: make([]*vm.Program, len(items)),
		bare:  make([]int, len(items)),
	}
	for i, it := range items {
		if c, ok := b.bareCol(it.Expr); ok {
			sp.bare[i] = c
			continue
		}
		sp.bare[i] = -1
		sp.progs[i] = e.compiledProg(it.Expr, b)
	}
	return sp
}

// bareCol reports the position of a projection item that is a plain
// resolvable column reference: it indexes the source row and needs no
// program. (Star expansions are all of this shape, rebuilt per
// execution.) An unresolvable one compiles to lanes holding its error.
func (b *binder) bareCol(x sqltext.Expr) (int, bool) {
	if cr, ok := x.(*sqltext.ColumnRef); ok {
		if c, err := b.resolve(cr); err == nil {
			return c, true
		}
	}
	return 0, false
}

// plainIntArg reports whether a LIMIT/OFFSET expression can be
// evaluated without the source relation in scope.
func plainIntArg(x sqltext.Expr) bool {
	switch x.(type) {
	case nil, *sqltext.Literal, *sqltext.Param:
		return true
	}
	return false
}

// emit projects the matched lanes of one scan batch — ev's, whose
// machine 0 is the filter's and machine 1+i item i's — into output
// tuples on dst (the scan range's output). A lane error is returned (not
// raised): the caller must keep scanning so a later row's WHERE error
// still wins, exactly as the interpreter's filter-everything-then-project
// order implies.
func (sp *scanProj) emit(dst *[]types.Row, ev *evaluator, lanes []int, vals []types.Row, tids, created []int64, nUser int) error {
	vecs := ev.vecs[1:]
	for i, mch := range ev.machines[1:] {
		if mch != nil {
			vecs[i] = mch.Eval(ev.batch)
		}
	}
	w := len(sp.names)
	slab := make([]types.Value, len(lanes)*w)
	for k, li := range lanes {
		row := types.Row(slab[k*w : (k+1)*w : (k+1)*w])
		for i := range sp.names {
			if c := sp.bare[i]; c >= 0 {
				switch {
				case c < len(vals[li]):
					row[i] = vals[li][c]
				case c == nUser:
					row[i] = types.NewInt(tids[li])
				case c == nUser+1:
					row[i] = types.NewInt(created[li])
				}
				continue
			}
			if err := vecs[i].Err(li); err != nil {
				return err
			}
			row[i] = vecs[i].Value(li)
		}
		*dst = append(*dst, row)
	}
	return nil
}

// projectRows evaluates the projection over b.rel.rows, one batch of
// source rows at a time: bare column references index the source row,
// every other item reads its program's result vector. Lanes hold their
// errors until the row-major materialization loop reaches them, so the
// first error surfaced is the (row, item) a row-at-a-time evaluation
// would have hit first.
func (e *Engine) projectRows(items []projItem, b *binder, out []types.Row) ([]types.Row, error) {
	rows := b.rel.rows
	if len(rows) == 0 {
		return out, nil
	}
	w := len(items)
	bare := make([]int, w)
	progs := make([]*vm.Program, w) // nil for bare items: they read no batch
	for i, it := range items {
		if c, ok := b.bareCol(it.Expr); ok {
			bare[i] = c
			continue
		}
		bare[i], progs[i] = -1, e.compiledProg(it.Expr, b)
	}
	// A projection of bare columns alone (the point select) fills no
	// batch and runs no machine.
	ev := b.evaluator(progs)
	for start := 0; start < len(rows); start += vm.BatchSize {
		chunk := rows[start:min(start+vm.BatchSize, len(rows))]
		ev.run(e, chunk)
		// One slab of values per batch instead of one allocation per
		// output row.
		slab := make([]types.Value, len(chunk)*w)
		for ri, src := range chunk {
			row := types.Row(slab[ri*w : (ri+1)*w : (ri+1)*w])
			for i := range items {
				if c := bare[i]; c >= 0 {
					if c < len(src) {
						row[i] = src[c]
					}
					continue
				}
				if err := ev.vecs[i].Err(ri); err != nil {
					return nil, err
				}
				row[i] = ev.vecs[i].Value(ri)
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// orderRows sorts output. ORDER BY keys may reference output
// aliases/columns, source-relation expressions (programs over srcRows,
// which align with out; the empty implicit group's is an all-NULL row)
// or — orderCols, see aggOrderItems — aggregates already evaluated as
// columns of out. When LIMIT (+ OFFSET) is statically known, a bounded
// heap keeps only the top limit+offset rows instead of sorting the whole
// result — O(n log k) comparisons instead of O(n log n), and the
// returned slice shrinks to k.
func (e *Engine) orderRows(sel *sqltext.Select, colNames []string, orderCols []int, out []types.Row, srcRows []types.Row, b *binder) ([]types.Row, error) {
	nk := len(sel.OrderBy)
	outCol := make([]int, nk) // the column of out a key reads, or -1 for a program
	progs := make([]*vm.Program, nk)
	for oi, o := range sel.OrderBy {
		outCol[oi] = -1
		// Alias / output column reference?
		if cr, ok := o.Expr.(*sqltext.ColumnRef); ok && cr.Table == "" {
			if outCol[oi] = slices.IndexFunc(colNames, func(n string) bool { return strings.EqualFold(n, cr.Column) }); outCol[oi] >= 0 {
				continue
			}
		}
		// Positional: ORDER BY 2.
		if lit, ok := o.Expr.(*sqltext.Literal); ok && lit.Value.Kind() == types.KindInt {
			p := int(lit.Value.Int()) - 1
			if p < 0 || p >= len(colNames) {
				return nil, fmt.Errorf("engine: ORDER BY position %d out of range", p+1)
			}
			outCol[oi] = p
			continue
		}
		if sqltext.HasAggregate(o.Expr) {
			outCol[oi] = orderCols[oi]
			continue
		}
		progs[oi] = e.compiledProg(o.Expr, b)
	}
	// Precompute keys, row-major: the first error is the first row's.
	ev := b.evaluator(progs)
	keys := make([][]types.Value, len(out))
	for start := 0; start < len(out); start += vm.BatchSize {
		end := min(start+vm.BatchSize, len(out))
		ev.run(e, srcRows[start:end])
		for i := start; i < end; i++ {
			keys[i] = make([]types.Value, nk)
			for j, c := range outCol {
				if c >= 0 {
					keys[i][j] = out[i][c]
					continue
				}
				if err := ev.vecs[j].Err(i - start); err != nil {
					return nil, err
				}
				keys[i][j] = ev.vecs[j].Value(i - start)
			}
		}
	}

	// less orders row indexes by the ORDER BY keys, breaking ties by
	// original position so the result matches a stable sort.
	var sortErr error
	less := func(a, bb int) bool {
		for j := range nk {
			c, err := types.Compare(keys[a][j], keys[bb][j])
			if err != nil {
				sortErr = err
				return false
			}
			if c != 0 {
				if sel.OrderBy[j].Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return a < bb
	}

	// Bound: LIMIT k (+ OFFSET m) means only the first k+m sorted rows
	// survive, so a size-k+m heap suffices.
	k := -1
	if sel.Limit != nil {
		if n, ok := constInt(b, sel.Limit); ok && n >= 0 {
			k = int(n)
			if sel.Offset != nil {
				if m, ok := constInt(b, sel.Offset); ok && m >= 0 {
					k += int(m)
				} else {
					k = -1
				}
			}
		}
	}

	var idx []int
	if k >= 0 && k < len(out) {
		idx = topKIndexes(len(out), k, less)
	} else {
		idx = make([]int, len(out))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, bb int) bool { return less(idx[a], idx[bb]) })
	}
	if sortErr != nil {
		return nil, sortErr
	}
	sorted := make([]types.Row, len(idx))
	for i, p := range idx {
		sorted[i] = out[p]
	}
	return sorted, nil
}

// constInt evaluates a LIMIT/OFFSET expression when it is a literal or a
// bound parameter; anything else is not statically known.
func constInt(b *binder, x sqltext.Expr) (int64, bool) {
	v, ok := constVal(x, b.args)
	if !ok || v.IsNull() {
		return 0, false
	}
	n, err := v.AsInt()
	if err != nil {
		return 0, false
	}
	return n, true
}

// topKIndexes selects the k smallest (per less) of n row indexes using a
// bounded max-heap whose root is the worst row kept so far, then sorts
// the survivors. O(n log k) comparisons, O(k) extra space.
func topKIndexes(n, k int, less func(a, b int) bool) []int {
	if k <= 0 {
		return nil
	}
	h := make([]int, 0, k)
	worse := func(a, b int) bool { return less(b, a) }
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			big := i
			if l < len(h) && worse(h[l], h[big]) {
				big = l
			}
			if r < len(h) && worse(h[r], h[big]) {
				big = r
			}
			if big == i {
				return
			}
			h[i], h[big] = h[big], h[i]
			i = big
		}
	}
	siftUp := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if !worse(h[i], h[p]) {
				return
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	}
	for i := 0; i < n; i++ {
		if len(h) < k {
			h = append(h, i)
			siftUp(len(h) - 1)
		} else if less(i, h[0]) {
			h[0] = i
			siftDown(0)
		}
	}
	sort.Slice(h, func(a, b int) bool { return less(h[a], h[b]) })
	return h
}

// buildFrom builds the FROM clause (with joins) into a relation and
// returns a binder over it. The returned bool reports whether the WHERE
// clause was already applied during the scan (streaming full scan).
func (e *Engine) buildFrom(sel *sqltext.Select, args []types.Value, overrides map[string][]types.Row, ctx *stmtCtx) (*relation, *binder, bool, error) {
	left, whereApplied, err := e.buildTableRef(*sel.From, args, overrides, sel, ctx)
	if err != nil {
		return nil, nil, false, err
	}
	for _, j := range sel.Joins {
		right, err := e.buildJoinSource(j.Right, args, overrides, ctx)
		if err != nil {
			return nil, nil, false, err
		}
		left, err = e.join(left, right, j, args, overrides, ctx)
		if err != nil {
			return nil, nil, false, err
		}
	}
	return left, newBinder(e, args, left, ctx), whereApplied, nil
}

// buildTableRef builds one FROM entry. When sel is non-nil (single base
// table with no joins), the planner chooses an access path from the
// WHERE clause: an index point/IN lookup fetching only candidate rows,
// or a streaming full scan that evaluates WHERE inside the scan loop so
// non-matching rows are never copied. The bool reports whether WHERE was
// fully applied by the scan.
func (e *Engine) buildTableRef(tr sqltext.TableRef, args []types.Value, overrides map[string][]types.Row, sel *sqltext.Select, ctx *stmtCtx) (*relation, bool, error) {
	if tr.Subquery != nil {
		res, err := e.evalSelect(tr.Subquery, args, overrides, ctx)
		if err != nil {
			return nil, false, err
		}
		qual := strings.ToLower(tr.Alias)
		rel := &relation{}
		for _, n := range res.Columns {
			rel.cols = append(rel.cols, colMeta{qual: qual, name: strings.ToLower(n)})
		}
		rel.rows = res.Rows
		return rel, false, nil
	}
	name := tr.Table
	qual := strings.ToLower(tr.Alias)
	if qual == "" {
		qual = strings.ToLower(name)
	}

	// Virtual system tables (sys_metrics, sys_slow_queries, sys_sessions)
	// are computed on the fly and shadow the catalog.
	if vt := e.lookupVirtual(name); vt != nil {
		rel := &relation{}
		for _, c := range vt.cols {
			rel.cols = append(rel.cols, colMeta{qual: qual, name: c})
		}
		rel.rows = vt.fn()
		e.countScanned(ctx, len(rel.rows))
		return rel, false, nil
	}

	// View resolution: the backing table holds the materialized rows.
	if v, ok := e.cat.View(name); ok {
		name = v.Backing
	}

	schema, ok := e.cat.Table(name)
	if !ok {
		return nil, false, fmt.Errorf("engine: no such table %q", tr.Table)
	}
	rel := &relation{cols: make([]colMeta, 0, len(schema.Columns)+2)}
	for _, c := range schema.Columns {
		rel.cols = append(rel.cols, colMeta{qual: qual, name: strings.ToLower(c.Name), kind: c.Type})
	}
	rel.cols = append(rel.cols,
		colMeta{qual: qual, name: catalog.SysTID, hidden: true, kind: types.KindInt},
		colMeta{qual: qual, name: catalog.SysCreated, hidden: true, kind: types.KindInt},
	)

	// IVM override: substitute rows (user columns only; system columns 0).
	if rows, ok := overrides[strings.ToLower(tr.Table)]; ok {
		w := len(schema.Columns) + 2
		slab := make(types.Row, len(rows)*w)
		rel.rows = make([]types.Row, 0, len(rows))
		for ri, r := range rows {
			if len(r) != len(schema.Columns) {
				return nil, false, fmt.Errorf("engine: override row arity %d for %s (want %d)", len(r), tr.Table, len(schema.Columns))
			}
			full := slab[ri*w : (ri+1)*w : (ri+1)*w]
			copy(full, r)
			full[w-2] = types.NewInt(0)
			full[w-1] = types.NewInt(0)
			rel.rows = append(rel.rows, full)
		}
		return rel, false, nil
	}

	tbl := e.store.Table(name)
	if tbl == nil {
		return nil, false, fmt.Errorf("engine: storage missing for table %q", name)
	}
	rel.tbl = tbl

	var where sqltext.Expr
	if sel != nil && len(sel.Joins) == 0 {
		where = sel.Where
	}

	// Index access path: fetch only candidate rows, then let the caller
	// re-apply the full WHERE (a conjunct only restricts, so the
	// candidate set over-approximates and re-filtering is sound).
	if where != nil {
		if plan := analyzeScan(where, schema, tbl, qual); plan.kind != pathFullScan {
			if found, ok := resolveScan(plan, schema, tbl, args, ctx.snap); ok {
				for _, sr := range found {
					rel.rows = append(rel.rows, fullRow(sr))
				}
				e.countScanned(ctx, len(found))
				return rel, false, nil
			}
		}
	}

	if where == nil {
		rel.lazy = true
		e.materializeRel(rel, ctx)
		return rel, false, nil
	}

	// Streaming full scan (see scanFiltered), with projection pushdown:
	// when the whole statement reduces to "filter, project, maybe
	// DISTINCT/LIMIT", the projection runs on the already-filled batch and
	// output tuples are emitted directly — matched rows are never
	// materialized at full table width.
	b := newBinder(e, args, rel, ctx)
	proj := e.scanProjection(sel, b)
	if err := e.scanFiltered(tbl, b, e.compiledProg(where, b), proj, len(schema.Columns)); err != nil {
		return nil, false, err
	}
	return rel, true, nil
}

// fullRow is a stored version as a base-table relation row: the user
// columns, then the _tid and _created system columns.
func fullRow(sr storage.StoredRow) types.Row {
	full := make(types.Row, 0, len(sr.Values)+2)
	full = append(full, sr.Values...)
	return append(full, types.NewInt(sr.TID), types.NewInt(sr.Created))
}

// buildJoinSource builds the right side of a join. Plain base tables
// stay lazy (columns only) so the join can probe their storage indexes
// without materializing; everything else falls back to buildTableRef.
func (e *Engine) buildJoinSource(tr sqltext.TableRef, args []types.Value, overrides map[string][]types.Row, ctx *stmtCtx) (*relation, error) {
	if tr.Subquery == nil && e.lookupVirtual(tr.Table) == nil {
		if _, hasOverride := overrides[strings.ToLower(tr.Table)]; !hasOverride {
			name := tr.Table
			if v, ok := e.cat.View(name); ok {
				name = v.Backing
			}
			if _, ok := e.cat.Table(name); ok {
				if rel, err := e.refCols(tr); err == nil && rel.tbl != nil {
					return rel, nil
				}
			}
		}
	}
	rel, _, err := e.buildTableRef(tr, args, overrides, nil, ctx)
	return rel, err
}

// materializeRel fills a lazy base-table relation's rows as of the
// statement's snapshot.
func (e *Engine) materializeRel(rel *relation, ctx *stmtCtx) {
	if !rel.lazy {
		return
	}
	rel.lazy = false
	scanned := 0
	// Sized up front: grown by appends, the row index of a large table
	// would leave about four times its final size behind as garbage.
	rel.rows = make([]types.Row, 0, rel.tbl.Len())
	for it := rel.tbl.Iterate(ctx.snap); ; {
		sr, more := it.Next()
		if !more {
			break
		}
		scanned++
		rel.rows = append(rel.rows, fullRow(sr))
	}
	e.countScanned(ctx, scanned)
}

// countScanned credits base-relation rows examined by a statement —
// rows the executor actually touched (streamed past, probed or
// materialized), not rows returned. The per-statement tally is exact;
// the global counter aggregates across statements for sys_metrics.
func (e *Engine) countScanned(ctx *stmtCtx, n int) {
	if n <= 0 {
		return
	}
	ctx.scanned += int64(n)
	if e.reg.Enabled() {
		e.mRowsScanned.Add(int64(n))
	}
}

// join combines two relations according to the join clause, using the
// planner's classification: hash join on the equality conjuncts of ON
// (probing the right side's storage index when one covers the key),
// otherwise a nested loop. The strategies differ only in the right rows
// they offer each left row; pairing, the ON check and LEFT padding are
// one loop.
func (e *Engine) join(left, right *relation, jc sqltext.JoinClause, args []types.Value, overrides map[string][]types.Row, ctx *stmtCtx) (*relation, error) {
	out := &relation{cols: append(append([]colMeta{}, left.cols...), right.cols...)}
	plan := e.analyzeJoin(left, right, jc, args, overrides, ctx)
	b := newBinder(e, args, out, ctx)

	// on is what a candidate pair must still satisfy: the residual
	// conjuncts beyond the hash equalities, the whole ON clause for a
	// nested loop, nothing for a cross join.
	on := plan.residual
	if plan.kind == "nested" {
		on = []sqltext.Expr{jc.On}
	}

	// rightFor returns the right rows to pair with one left row; buf is
	// where the index strategies gather them.
	var rightFor func(lr types.Row) []types.Row
	var buf []types.Row
	probed := 0
	switch {
	case plan.kind == "hash" && plan.probe != nil:
		key := make(types.Row, len(plan.perm))
		rightFor = func(lr types.Row) []types.Row {
			for i, p := range plan.perm {
				key[i] = lr[plan.eqL[p]]
			}
			buf = buf[:0]
			for _, sr := range right.tbl.Lookup(plan.probe, key, ctx.snap) {
				buf = append(buf, fullRow(sr))
			}
			probed += len(buf)
			return buf
		}
	case plan.kind == "hash":
		e.materializeRel(right, ctx)
		idx := buildJoinIndex(right.rows, plan.eqR)
		rightFor = func(lr types.Row) []types.Row {
			buf = buf[:0]
			if k, ok := joinKey(lr, plan.eqL); ok {
				for _, m := range idx[k] {
					buf = append(buf, right.rows[m])
				}
			}
			return buf
		}
	default:
		e.materializeRel(right, ctx)
		rightFor = func(types.Row) []types.Row { return right.rows }
	}

	concat := func(l, r types.Row) types.Row {
		row := make(types.Row, 0, len(l)+len(r))
		return append(append(row, l...), r...)
	}
	// Left rows settle in order: each kept pair is appended, and a LEFT
	// join pads a left row none of whose pairs was kept once a later row's
	// pair or the end is reached. matched is for left row next.
	next, matched := 0, false
	settle := func(to int) {
		for ; next < to; next++ {
			if !matched && jc.Kind == "LEFT" {
				pad := make(types.Row, len(left.rows[next])+len(right.cols)) // right side all NULL
				copy(pad, left.rows[next])
				out.rows = append(out.rows, pad)
			}
			matched = false
		}
	}
	// Candidate pairs meet the ON conjuncts in on a batch at a time, each
	// conjunct a program over the joined layout. A pair's verdict is its
	// first conjunct that errs (the statement fails) or is not TRUE (the
	// pair is dropped), so the first error in pair order wins — what
	// checking the conjuncts pair by pair would raise.
	progs := make([]*vm.Program, len(on))
	for i, c := range on {
		progs[i] = e.compiledProg(c, b)
	}
	ev := b.evaluator(progs)
	var pairs []types.Row
	var owner []int // each pair's left row
	flush := func() error {
		ev.run(e, pairs)
	verdicts:
		for k, row := range pairs {
			for _, v := range ev.vecs {
				if ok, err := v.Truth(k); err != nil {
					return err
				} else if !ok {
					continue verdicts
				}
			}
			settle(owner[k])
			matched = true
			out.rows = append(out.rows, row)
		}
		pairs, owner = pairs[:0], owner[:0]
		return nil
	}
	for li, lr := range left.rows {
		for _, rr := range rightFor(lr) {
			// Without a conjunct to check, every pair is kept at once.
			pairs, owner = append(pairs, concat(lr, rr)), append(owner, li)
			if len(pairs) == vm.BatchSize || len(on) == 0 {
				if err := flush(); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	settle(len(left.rows))
	e.countScanned(ctx, probed)
	return out, nil
}

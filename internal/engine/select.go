package engine

import (
	"container/heap"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"ediflow/internal/engine/vm"
	"ediflow/internal/sqltext"
	"ediflow/internal/storage"
	"ediflow/internal/types"
)

// stmtCtx carries per-statement execution state: the MVCC snapshot seq
// base-table reads resolve against, the outermost SELECT (AS OF is only
// honored there), and an exact rows-scanned tally. One ctx exists per
// statement. Its executing goroutine touches it, and so do morsel
// workers in two ways: they append to machines under machMu, and the
// worker a wide scan's sink runs on (handoff) reaches the rest only
// through binder.subquery, which holds the binder's subMu while the
// subquery runs — every subquery of the scan's WHERE and of its sink
// shares that binder and lock.
type stmtCtx struct {
	snap       int64           // visibility ceiling for base-table reads
	top        *sqltext.Select // outermost SELECT of the statement, if any
	scanned    int64           // rows examined by this statement (exact)
	parWorkers int64           // widest fan-out any scan of the statement used
	held       *int            // while set, where countScanned credits (holding)

	machMu   sync.Mutex
	machines []*vm.Machine // acquired by binder.machine, released by ExecStmt
	machBuf  [4]*vm.Machine
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
// at SeqLatest so the maintainer sees the statement's own writes. A
// view's delta query keeps its plan (viewSet.plans) until the plan cache
// moves on; the one-off queries of a view's creation are planned as run.
func (e *Engine) EvalWith(sel *sqltext.Select, overrides map[string][]types.Row) ([]types.Row, error) {
	p := e.views.plans[sel]
	if p == nil {
		p = e.newPlan(sel, false)
	}
	if p = e.current(p); overrides != nil {
		e.views.plans[sel] = p
	}
	res, err := e.evalSelect(p.sel, nil, overrides, e.writerCtx())
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// selPlan is one SELECT's plan (see plan): its FROM entry and joins as
// resolved, the layout its expressions run over, WHERE, the items and
// what runs them — a projection, or an aggregate fold and its per-group
// tail — ORDER BY, and a LIMIT or OFFSET that needs evaluating. err is
// the first FROM entry or join right side that does not resolve: the
// plan ends there, and an execution raises it when it opens that entry.
type selPlan struct {
	sel      *sqltext.Select
	subs     map[*sqltext.Select]*selPlan
	from     fromRef
	joins    []joinStep
	rel      *relation
	err      error
	where    evalPlan
	names    []string
	itemsErr error // a bad t.*: a projection error, raised after WHERE's
	width    int   // an output row's values: names, then hidden ORDER BY columns (aggOrderItems)
	proj     projPlan
	agg      *aggSpec // an aggregate SELECT's fold: its programs, then the group tail
	fold     evalPlan
	emit     emitPlan
	sort     *sortPlan
	limit    *projPlan // a LIMIT or OFFSET neither literal nor parameter
	offset   *projPlan
}

// selectPlan plans sel.
func (pl *planner) selectPlan(sel *sqltext.Select) *selPlan {
	sp := &selPlan{sel: sel, subs: pl.subs, rel: &relation{}}
	if sel.From != nil {
		where := sel.Where // a join's runs over the joined rows: no access path
		if len(sel.Joins) > 0 {
			where = nil
		}
		sp.from = pl.resolveRef(*sel.From, where)
		if sp.err = sp.from.err; sp.err != nil {
			return sp
		}
		sp.rel = sp.from.rel
		for _, jc := range sel.Joins {
			js := joinStep{jc: jc, right: pl.resolveRef(jc.Right, nil), lw: len(sp.rel.cols)}
			if sp.err = js.right.err; sp.err == nil {
				out := &relation{cols: append(slices.Clip(sp.rel.cols), js.right.rel.cols...)}
				js.plan = analyzeJoin(sp.rel, js.right.rel, jc)
				on := js.plan.residual
				if js.plan.kind == "nested-loop" {
					on = []sqltext.Expr{jc.On}
				}
				js.on, js.w, sp.rel = pl.evalPlan(out, nil, on...), len(out.cols), out
			}
			if sp.joins = append(sp.joins, js); sp.err != nil {
				return sp
			}
		}
	}
	rel := sp.rel
	sp.where = pl.evalPlan(rel, nil, sel.Where)
	items, names, err := expandItems(sel, rel)
	if sp.names, sp.itemsErr = slices.Clip(names), err; err != nil { // every Result shares names
		return sp
	}
	var orderCols []int
	aggregate := aggregates(sel, items)
	if aggregate {
		items, orderCols = aggOrderItems(sel, items)
	}
	sp.width = len(items)
	if len(sel.OrderBy) > 0 {
		sp.sort = pl.sortPlan(sel, names, orderCols, rel)
	}
	exprs := make([]sqltext.Expr, len(items), len(items)+1)
	for i, it := range items {
		exprs[i] = it.Expr
	}
	if aggregate {
		exprs = append(exprs, sel.Having)
		sp.agg = newAggSpec(sel.GroupBy, exprs)
		sp.fold, sp.emit = pl.evalPlan(rel, nil, sp.agg.fold...), pl.emitPlan(exprs, rel, sp.agg)
	} else {
		sp.proj = pl.projPlan(exprs, rel)
	}
	sp.limit, sp.offset = pl.valuesPlan(rel, sel.Limit), pl.valuesPlan(rel, sel.Offset)
	return sp
}

// evalSelect runs a SELECT's plan — top-level, subquery or view query —
// against the snapshot captured in ctx, with overrides substituted for the
// tables they name, as one pipeline: the FROM clause's source pushes
// batches through its joins and WHERE into the projection or the
// aggregate fold, whose rows pass DISTINCT and ORDER BY (output). Each
// phase holds its first error and the earlier phases run on, so the
// error reported is the first of each join's ON in join order, then
// WHERE, then projection or group key, then ORDER BY key, whatever rows
// they fail on. Result rows live in slabs the output owns (output), but
// their values may share BYTES payloads with stored versions: only
// execSelect hands rows out of the engine, and it detaches them there.
// Columns is the plan's.
func (e *Engine) evalSelect(sp *selPlan, args []types.Value, overrides map[string][]types.Row, ctx *stmtCtx) (*Result, error) {
	sel := sp.sel
	if sel.AsOf != nil && sel != ctx.top {
		return nil, fmt.Errorf("engine: AS OF is only supported on the top-level SELECT")
	}
	src, err := e.buildFrom(sp, args, overrides, ctx)
	if err != nil {
		return nil, err
	}
	b := e.newBinder(sp.subs, args, ctx)
	if sp.itemsErr != nil { // a bad t.* is a projection error: WHERE's comes first
		if werr := e.pipe(b, src, &sp.where, func(*batch) {}); werr != nil {
			return nil, werr
		}
		return nil, sp.itemsErr
	}
	out := &output{width: sp.width, visible: len(sp.names), stride: sp.width}
	if sel.Distinct {
		out.seen = map[string]bool{}
	}
	if sp.sort != nil { // a slot holds its row's keys after the row
		out.sort, out.stride = newSorter(sp.sort, b, sortBound(sel, args)), sp.width+len(sp.sort.by)
	}
	if sp.agg != nil {
		err = e.aggregate(sp, b, src, out)
	} else {
		p := e.newProject(&sp.proj, b, out)
		if err = e.pipe(b, src, &sp.where, p.add); err == nil {
			err = p.err
		}
	}
	if err != nil {
		return nil, err
	}
	rows, err := out.result()
	if err != nil {
		return nil, err
	}

	// LIMIT / OFFSET.
	if sel.Offset != nil {
		n, err := e.intArg(sel.Offset, sp.offset, b)
		if err != nil {
			return nil, err
		}
		if n > int64(len(rows)) {
			n = int64(len(rows))
		}
		if n > 0 {
			rows = rows[n:]
		}
	}
	if sel.Limit != nil {
		n, err := e.intArg(sel.Limit, sp.limit, b)
		if err != nil {
			return nil, err
		}
		if n < int64(len(rows)) && n >= 0 {
			rows = rows[:n]
		}
	}
	return &Result{Columns: sp.names, Rows: rows}, nil
}

// aggregates reports whether sel runs as an aggregate fold: it groups,
// has HAVING, or an item or an ORDER BY key calls an aggregate.
func aggregates(sel *sqltext.Select, items []projItem) bool {
	agg := len(sel.GroupBy) > 0 || sel.Having != nil
	for i := range items {
		agg = agg || sqltext.HasAggregate(&items[i].Expr)
	}
	for i := range sel.OrderBy {
		agg = agg || sqltext.HasAggregate(&sel.OrderBy[i].Expr)
	}
	return agg
}

// aggOrderItems makes every ORDER BY key that contains an aggregate a
// column of the aggregate SELECT's output, so it is evaluated over its
// whole group like any item: the output item with the same text when
// there is one, else a hidden trailing item the result leaves out
// (output.result). orderCols[i] is ORDER BY key i's column, -1 for a key that
// holds no aggregate.
func aggOrderItems(sel *sqltext.Select, items []projItem) ([]projItem, []int) {
	orderCols := make([]int, len(sel.OrderBy))
	for oi, o := range sel.OrderBy {
		orderCols[oi] = -1
		if !sqltext.HasAggregate(&sel.OrderBy[oi].Expr) {
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
func (e *Engine) intArg(x sqltext.Expr, pp *projPlan, b *binder) (int64, error) {
	row, err := e.valuesRow([]sqltext.Expr{x}, pp, b)
	if err != nil {
		return 0, err
	}
	return row[0].AsInt()
}

// valuesPlan is the plan valuesRow runs exprs by over rel: nil when each
// is a literal or a parameter, read directly.
func (pl *planner) valuesPlan(rel *relation, exprs ...sqltext.Expr) *projPlan {
	for _, x := range exprs {
		if x != nil && !constKeyExpr(x) {
			pp := pl.projPlan(exprs, rel)
			return &pp
		}
	}
	return nil
}

// valuesRow evaluates expressions that have no source row: the cells of
// an INSERT … VALUES row, LIMIT, OFFSET. A literal or parameter is read
// directly — every cell of a shaped bulk load — and a row with any other
// expression is projected by its plan (valuesPlan) over one empty row of
// the layout it was planned over, as SELECT 1+1 is: its columns read NULL.
func (e *Engine) valuesRow(exprs []sqltext.Expr, pp *projPlan, b *binder) (types.Row, error) {
	row := make(types.Row, len(exprs))
	for i, x := range exprs {
		v, ok := constVal(x, b.args)
		switch {
		case !ok && pp == nil: // literals and parameters only: x is unbound
			return nil, missingParam(x.(*sqltext.Param).Index)
		case !ok:
			w := len(pp.bare)
			out := &output{width: w, visible: w, stride: w}
			p := e.newProject(pp, e.newBinder(b.subs, b.args, b.ctx), out)
			if p.add(&batch{rows: []types.Row{nil}}); p.err != nil {
				return nil, p.err
			}
			rows, _ := out.result()
			return rows[0], nil
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

// aggregate runs an aggregate SELECT: the kept lanes of src fold into
// their groups (foldSink.add), a GROUP BY error surfacing once WHERE has
// run over every row, and then each group's output row goes to out, its
// representative row the source of ORDER BY's programs. A query without
// GROUP BY always has its implicit group: over no rows, COUNT(*) = 0.
func (e *Engine) aggregate(sp *selPlan, b *binder, src *source, out *output) error {
	f := &foldSink{aggSpec: sp.agg, groups: map[string]*foldGroup{}}
	f.start(e, b, &sp.fold)
	if err := e.pipe(b, src, &sp.where, f.add); err != nil {
		return err
	}
	if f.err != nil {
		return f.err
	}
	if len(f.opened) == 0 && len(f.keys) == 0 {
		f.open("", nil)
	}
	return e.emitGroups(&sp.emit, b, f, f.opened, out)
}

// emitPlan is the per-group tail of an aggregate query, shared by SELECT
// and the materialized views' fold: its items, then HAVING (nil when
// there is none), over the group layout — the source layout's ncols
// columns, then every aggregate call's result. A bare column (bareCol)
// or a bare aggregate is read directly: a projection of those alone
// builds no group row; any other item, and HAVING last, is a program.
type emitPlan struct {
	ncols     int
	bare, agg []int
	ev        evalPlan
}

func (pl *planner) emitPlan(exprs []sqltext.Expr, rel *relation, f *aggSpec) emitPlan {
	w := len(exprs) - 1
	ep := emitPlan{ncols: len(rel.cols), bare: make([]int, w), agg: make([]int, w)}
	progs := make([]*vm.Program, w+1) // HAVING's program rides last
	for i, x := range exprs[:w] {
		ep.bare[i], ep.agg[i] = -1, -1
		if c, ok := bareCol(x, rel); ok {
			ep.bare[i] = c
		} else if fc, ok := x.(*sqltext.FuncCall); ok && sqltext.IsAggregateName(fc.Name) {
			ep.agg[i] = f.cols[fc]
		} else {
			progs[i] = pl.compile(x, rel, f.cols)
		}
	}
	progs[w] = pl.compile(exprs[w], rel, f.cols)
	ep.ev = newEvalPlan(rel, len(f.cols), progs)
	return ep
}

// emitGroups runs an emitPlan over groups. Each group is a row of the
// group layout — its representative source row (nil for an empty
// implicit group), then every aggregate call's result, an aggregate's
// error held as that lane's error — and HAVING and the items run as
// programs over batches of groups, row-major, so an error surfaces only
// if a kept group's evaluation reaches it. Their subqueries run apart
// from the rows' (one binder for the tail). out loads each batch of
// groups' representative rows, then each kept group's row is written
// into the storage out hands out and kept; the first error stops the run.
func (e *Engine) emitGroups(ep *emitPlan, b *binder, f *foldSink, groups []*foldGroup, out rowSink) error {
	w := len(ep.bare)
	ev := e.newBinder(b.subs, b.args, b.ctx).evaluator(&ep.ev)
	reps := batch{rows: make([]types.Row, 0, min(len(groups), vm.BatchSize))}
	for start := 0; start < len(groups); start += vm.BatchSize {
		chunk := groups[start:min(start+vm.BatchSize, len(groups))]
		result := func(ci, k int) (types.Value, error) { return f.calls[ci].result(&chunk[k].states[ci], chunk[k].count) }
		reps.rows = reps.rows[:0]
		for _, g := range chunk {
			reps.rows = append(reps.rows, g.rep)
		}
		var having *vm.Vec
		if ev.batch != nil {
			ev.batch.Fill(reps.rows)
			for _, c := range ep.ev.used {
				if ci := c - ep.ncols; ci >= 0 {
					for k := range chunk {
						v, err := result(ci, k)
						ev.batch.SetLane(c, k, v, err)
					}
				}
			}
			ev.eval(e)
			having = ev.vecs[w]
		}
		out.load(e, &reps)
		for k, r := range reps.rows {
			if having != nil {
				keep, err := having.Truth(k)
				if err != nil {
					return err
				}
				if !keep {
					continue
				}
			}
			row := out.row(len(groups) - start - k)
			for i := range row {
				var err error
				switch {
				case ep.bare[i] >= 0:
					if ep.bare[i] < len(r) {
						row[i] = r[ep.bare[i]]
					}
				case ep.agg[i] >= 0:
					row[i], err = result(ep.agg[i], k)
				default:
					if err = ev.vecs[i].Err(k); err == nil {
						row[i] = ev.vecs[i].Value(k)
					}
				}
				if err != nil {
					return err
				}
			}
			out.add(k)
		}
	}
	return nil
}

// rowSink takes emitGroups' rows: load readies it for a batch of groups'
// representative rows, row hands out the storage of the next row, and
// add keeps that row, lane k's of the batch. The output is one; a view's
// fold keeps its rows apart (viewRows).
type rowSink interface {
	load(e *Engine, reps *batch)
	row(hint int) types.Row
	add(k int)
}

// bareCol reports the position of a projection item that is a plain
// resolvable column reference of rel: it indexes the source row and
// needs no program. (Star expansions are all of this shape.) An
// unresolvable one compiles to lanes holding its error.
func bareCol(x sqltext.Expr, rel *relation) (int, bool) {
	if cr, ok := x.(*sqltext.ColumnRef); ok {
		if c, err := rel.resolve(cr); err == nil {
			return c, true
		}
	}
	return 0, false
}

// projPlan is a projection's plan: per item, the column a bare item
// reads (bareCol), or -1 and the item's program.
type projPlan struct {
	bare []int
	ev   evalPlan
}

func (pl *planner) projPlan(exprs []sqltext.Expr, rel *relation) projPlan {
	pp := projPlan{bare: make([]int, len(exprs))}
	progs := make([]*vm.Program, len(exprs))
	for i, x := range exprs {
		if c, ok := bareCol(x, rel); ok {
			pp.bare[i] = c
			continue
		}
		pp.bare[i], progs[i] = -1, pl.compile(x, rel, nil)
	}
	pp.ev = newEvalPlan(rel, 0, progs)
	return pp
}

// project is the sink of a SELECT without aggregates: it writes each
// kept lane's output row — a bare column read from the lane, any other
// item from its program's vector — into out's next slot and hands it
// over. The first item error in (row, item) order is held and stops the
// projection.
type project struct {
	e    *Engine
	ev   evaluator // nil programs for bare items: they read no batch
	bare []int
	out  *output
	err  error
}

func (e *Engine) newProject(pp *projPlan, b *binder, out *output) *project {
	return &project{e: e, bare: pp.bare, out: out, ev: b.evaluator(&pp.ev)}
}

func (p *project) add(src *batch) {
	if p.err != nil {
		return
	}
	p.ev.load(p.e, src)
	p.out.load(p.e, src)
	for k := range src.rows {
		row := p.out.row(len(src.rows) - k)
		for i, c := range p.bare {
			if c >= 0 {
				row[i] = src.col(k, c)
				continue
			}
			if err := p.ev.vecs[i].Err(k); err != nil {
				p.err = err
				return
			}
			row[i] = p.ev.vecs[i].Value(k)
		}
		p.out.add(k)
	}
}

// output is the tail every result row passes, and it owns the rows'
// memory. A sink writes each row once, into the free slot of a slab
// (row), and hands it over (add): DISTINCT's seen-set over the visible
// columns keeps a row's first occurrence, then ORDER BY's sorter keys it
// (its keys follow the row in the slot), or the result keeps arrival
// order. A kept row takes its slot; a row not kept leaves it free. A
// bounded sort's heap copies what it keeps, so one slot serves it.
type output struct {
	width   int // a row's values: the visible columns, then hidden ones
	visible int
	stride  int // a slot's values: the row's, then any ORDER BY keys
	seen    map[string]bool
	kb      []byte // the current row's DISTINCT key
	sort    *sorter
	slabs   [][]types.Value // the slabs filled
	slab    []types.Value   // the slab being filled: the kept rows' slots, then room
	used    int             // the values of slab the kept rows take
	n       int             // rows kept
}

// load evaluates ORDER BY's programs over src, the lanes the next rows
// come from, while no key has failed.
func (o *output) load(e *Engine, src *batch) {
	if o.sort != nil && o.sort.err == nil {
		o.sort.ev.load(e, src)
	}
}

// row is the free slot's row, for the sink to write. A full slab is put
// by, and the new one holds hint rows, the rows the sink may still add,
// up to vm.BatchSize: a result kept in full fills its slabs exactly,
// which matters where storage keeps its rows (a view's).
func (o *output) row(hint int) types.Row {
	if o.used+o.stride > len(o.slab) {
		if o.sort != nil && o.sort.k >= 0 {
			hint = 1 // the heap copies: the slot is never taken
		}
		if o.used > 0 {
			o.slabs = append(o.slabs, o.slab)
		}
		o.slab, o.used = make([]types.Value, min(vm.BatchSize, hint)*o.stride), 0
	}
	return o.slab[o.used : o.used+o.width : o.used+o.width]
}

// add takes the row just written to the free slot, lane k's of the last
// batch loaded.
func (o *output) add(k int) {
	slot := o.slab[o.used : o.used+o.stride]
	if o.seen != nil {
		o.kb = types.AppendRowKey(o.kb[:0], slot[:o.visible])
		if o.seen[string(o.kb)] {
			return
		}
		o.seen[string(o.kb)] = true
	}
	if o.sort != nil && !o.sort.key(k, slot, o.width) {
		return
	}
	o.used += o.stride
	o.n++
}

// result is the rows in their final order, at the visible width, or the
// error ORDER BY held. A row's capacity ends with it, so appending to
// one never writes into its neighbour.
func (o *output) result() ([]types.Row, error) {
	s, v := o.sort, o.visible
	if s != nil && s.err != nil {
		return nil, s.err
	}
	var rows []types.Row
	if s == nil {
		rows = make([]types.Row, 0, o.n)
	} else if s.k < 0 {
		s.ents = make([]sortEnt, 0, o.n)
	}
	for i := 0; i <= len(o.slabs); i++ { // the kept slots, in arrival order
		slab := o.slab[:o.used]
		if i < len(o.slabs) {
			slab = o.slabs[i]
		}
		for j := 0; j < len(slab); j += o.stride {
			if s == nil {
				rows = append(rows, slab[j:j+v:j+v])
			} else {
				s.ents = append(s.ents, sortEnt{row: slab[j : j+o.width], keys: slab[j+o.width : j+o.stride], n: len(s.ents)})
			}
		}
	}
	if s == nil {
		return rows, nil
	}
	sort.Slice(s.ents, func(i, j int) bool { return s.less(s.ents[i], s.ents[j]) })
	if s.cmpErr != nil {
		return nil, s.cmpErr
	}
	rows = make([]types.Row, len(s.ents))
	for i, ent := range s.ents {
		rows[i] = ent.row[:v:v]
	}
	return rows, nil
}

// sortPlan is ORDER BY's plan. A key names an output column (alias,
// position, or an aggregate's column, see aggOrderItems) or is a program
// over the source lanes (for an aggregate query, the groups'
// representative rows; the empty implicit group's reads NULL). err is a
// position out of range, raised before any key.
type sortPlan struct {
	by     []sqltext.OrderItem
	outCol []int // the output column key j reads, or -1 for its program
	ev     evalPlan
	err    error
}

func (pl *planner) sortPlan(sel *sqltext.Select, colNames []string, orderCols []int, rel *relation) *sortPlan {
	nk := len(sel.OrderBy)
	s := &sortPlan{by: sel.OrderBy, outCol: make([]int, nk)}
	progs := make([]*vm.Program, nk)
	for oi, o := range sel.OrderBy {
		s.outCol[oi] = -1
		// Alias / output column reference?
		if cr, ok := o.Expr.(*sqltext.ColumnRef); ok && cr.Table == "" {
			if s.outCol[oi] = slices.IndexFunc(colNames, func(n string) bool { return strings.EqualFold(n, cr.Column) }); s.outCol[oi] >= 0 {
				continue
			}
		}
		// Positional: ORDER BY 2.
		if lit, ok := o.Expr.(*sqltext.Literal); ok && lit.Value.Kind() == types.KindInt {
			p := int(lit.Value.Int()) - 1
			if p < 0 || p >= len(colNames) {
				s.err = fmt.Errorf("engine: ORDER BY position %d out of range", p+1)
				return s
			}
			s.outCol[oi] = p
			continue
		}
		if sqltext.HasAggregate(&sel.OrderBy[oi].Expr) {
			s.outCol[oi] = orderCols[oi]
			continue
		}
		progs[oi] = pl.compile(o.Expr, rel, nil)
	}
	s.ev = newEvalPlan(rel, 0, progs)
	return s
}

// sorter is the ORDER BY sink of one execution of a sortPlan. Each row
// is keyed and numbered by arrival; the number breaks ties, so the
// result matches a stable sort. With LIMIT (+ OFFSET) statically known, a
// bounded max-heap holds the best k rows and only a row entering it is
// copied; otherwise every row stays in its output slot, keys beside it,
// and the slots are sorted at the end (output.result). The first key
// error, or the plan's, is held and stops the keying.
type sorter struct {
	by     []sqltext.OrderItem
	outCol []int
	ev     evaluator
	k      int // the heap's bound, -1 to keep every row
	ents   []sortEnt
	n      int // rows offered to the heap
	err    error
	cmpErr error // the last comparison that failed
}

type sortEnt struct {
	row  types.Row
	keys []types.Value
	n    int
}

func newSorter(sp *sortPlan, b *binder, k int) *sorter {
	if sp.err != nil {
		return &sorter{err: sp.err}
	}
	return &sorter{by: sp.by, outCol: sp.outCol, ev: b.evaluator(&sp.ev), k: k}
}

// key writes the keys of lane k's row, the first w values of its output
// slot, into the slot after the row. An unbounded sorter keeps the slot
// (true); a bounded one offers the row to its heap.
func (s *sorter) key(k int, slot []types.Value, w int) bool {
	if s.err != nil {
		return false
	}
	for j, c := range s.outCol {
		if c >= 0 {
			slot[w+j] = slot[c]
			continue
		}
		if err := s.ev.vecs[j].Err(k); err != nil {
			s.err = err
			return false
		}
		slot[w+j] = s.ev.vecs[j].Value(k)
	}
	if s.k >= 0 {
		s.offer(slot[:w], slot[w:])
	}
	return s.k < 0
}

// offer keeps a keyed row in the bounded heap if it ranks.
func (s *sorter) offer(row types.Row, keys []types.Value) {
	ent := sortEnt{keys: keys, n: s.n}
	s.n++
	switch {
	case len(s.ents) < s.k:
		ent.row, ent.keys = slices.Clone(row), slices.Clone(keys)
		heap.Push(s, ent)
	case s.k > 0 && s.less(ent, s.ents[0]):
		ent.row, ent.keys = slices.Clone(row), slices.Clone(keys)
		s.ents[0] = ent
		heap.Fix(s, 0)
	}
}

// less orders entries by the ORDER BY keys, then by arrival.
func (s *sorter) less(a, b sortEnt) bool {
	for j := range a.keys {
		c, err := types.Compare(a.keys[j], b.keys[j])
		if err != nil {
			s.cmpErr = err
			return false
		}
		if c != 0 {
			if s.by[j].Desc {
				return c > 0
			}
			return c < 0
		}
	}
	return a.n < b.n
}

// The heap of a bounded sorter is a max-heap: its root is the worst row
// kept so far.
func (s *sorter) Len() int           { return len(s.ents) }
func (s *sorter) Less(i, j int) bool { return s.less(s.ents[j], s.ents[i]) }
func (s *sorter) Swap(i, j int)      { s.ents[i], s.ents[j] = s.ents[j], s.ents[i] }
func (s *sorter) Push(x any)         { s.ents = append(s.ents, x.(sortEnt)) }
func (s *sorter) Pop() any {
	x := s.ents[len(s.ents)-1]
	s.ents = s.ents[:len(s.ents)-1]
	return x
}

// sortBound is the bound of ORDER BY's heap: LIMIT k (+ OFFSET m) means
// only the first k+m sorted rows survive, so a size-k+m heap suffices.
// -1 (keep every row) unless both are known before any row is: each a
// literal or a bound parameter (EXPLAIN binds none), a count >= 0.
func sortBound(sel *sqltext.Select, args []types.Value) int {
	n, ok := constInt(args, sel.Limit)
	if !ok || n < 0 {
		return -1
	}
	if m, ok := constInt(args, sel.Offset); sel.Offset == nil || ok && m >= 0 {
		return int(n + m)
	}
	return -1
}

// constInt evaluates a LIMIT/OFFSET expression when it is a literal or a
// bound parameter; anything else is not statically known.
func constInt(args []types.Value, x sqltext.Expr) (int64, bool) {
	v, ok := constVal(x, args)
	if !ok || v.IsNull() {
		return 0, false
	}
	n, err := v.AsInt()
	if err != nil {
		return 0, false
	}
	return n, true
}

// buildFrom opens the FROM clause: its entry's rows flowing through each
// join in order (a stage of the pipeline, see pipe), or without one a
// single empty row, as SELECT 1+1 has. Every join's right side is built
// here, before any row flows. A right side that fails to build fails its
// join: the joins before it still run, since the first join to fail is
// the one reported.
func (e *Engine) buildFrom(sp *selPlan, args []types.Value, overrides map[string][]types.Row, ctx *stmtCtx) (*source, error) {
	if sp.sel.From == nil {
		return &source{mem: batch{rows: []types.Row{nil}}}, nil
	}
	src, err := e.open(&sp.from, args, overrides, ctx)
	if err != nil {
		return nil, err
	}
	for i := range sp.joins {
		js := &sp.joins[i]
		j := &joinStage{e: e, ctx: ctx, outer: js.jc.Kind == "LEFT", lw: js.lw, w: js.w, plan: js.plan}
		src.joins = append(src.joins, j)
		ctx.holding(&j.built, func() { err = j.build(js, e.newBinder(sp.subs, args, ctx), overrides) })
		if err != nil {
			j.err = err
			return nil, e.pipe(e.newBinder(sp.subs, args, ctx), src, nil, func(*batch) {})
		}
	}
	return src, nil
}

// open is the source of a resolved FROM entry: a subquery's result, run
// now, whose errors come in its own phase order; a virtual table's rows;
// the IVM override rows of the table; or a base table, streamed
// (source.tbl), or only the candidate rows of its access path — WHERE
// re-checks them. An entry that did not resolve raises its error here.
func (e *Engine) open(ref *fromRef, args []types.Value, overrides map[string][]types.Row, ctx *stmtCtx) (*source, error) {
	switch {
	case ref.sub != nil:
		res, err := e.evalSelect(ref.sub, args, overrides, ctx)
		if err != nil {
			return nil, err
		}
		return &source{mem: batch{rows: res.Rows}}, nil
	case ref.err != nil:
		return nil, ref.err
	case ref.virtual != nil:
		rows := ref.virtual.fn()
		e.countScanned(ctx, len(rows))
		return &source{mem: batch{rows: rows}}, nil
	}
	if rows, ok := overrides[ref.key]; ok { // user columns only; system columns 0
		for _, r := range rows {
			if n := len(ref.rel.cols) - 2; len(r) != n {
				return nil, fmt.Errorf("engine: override row arity %d for %s (want %d)", len(r), ref.key, n)
			}
		}
		return &source{mem: batch{rows: rows, tids: make([]int64, len(rows))}}, nil
	}
	if ref.plan != nil && ref.plan.kind != pathFullScan {
		if m, ok := resolveScan(ref.plan, ref.rel.tbl.Schema, ref.rel.tbl, args, ctx.snap); ok {
			e.countScanned(ctx, len(m.rows))
			return &source{mem: m}, nil
		}
	}
	return &source{tbl: ref.rel.tbl}, nil
}

// holding runs fn with the rows it scans held in *to instead of credited
// (countScanned): a join's phase, credited only if the joins before it
// pass (pipe).
func (ctx *stmtCtx) holding(to *int, fn func()) {
	held := ctx.held
	ctx.held = to
	fn()
	ctx.held = held
}

// countScanned credits base-relation rows examined by a statement —
// rows the executor actually touched (streamed past, probed or
// fetched by an index), not rows returned. The per-statement tally is exact;
// the global counter aggregates across statements for sys_metrics.
// Rows scanned inside a join's phase are held instead (holding).
func (e *Engine) countScanned(ctx *stmtCtx, n int) {
	if n <= 0 {
		return
	}
	if ctx.held != nil {
		*ctx.held += n
		return
	}
	ctx.scanned += int64(n)
	if e.reg.Enabled() {
		e.mRowsScanned.Add(int64(n))
	}
}

// joinStage is one execution of a JOIN of a FROM clause (joinStep), a
// stage of the pipeline between the source and WHERE, using the
// planner's classification (analyzeJoin). It reads the left side's batches as they arrive and
// offers each left lane right rows by strategy: the rows a probe of the
// right table's storage index finds, used by reference; or, from the
// right side built once before the left side streams (a batch of lane
// references), the rows with the lane's hash key, or every row for a
// nested loop or a cross join. Each candidate pair is written into a
// pooled buffer of vm.BatchSize lanes at the joined width; the ON
// conjuncts left to check compact it in place (flush), and the kept
// lanes go downstream, which consumes them before the buffer is reused.
// A LEFT join writes a pad lane after each left lane's pairs — its left
// values, NULL in every right column — kept when none of the pairs is.
// The first ON error in pair order is held (err) and ends the stage.
type joinStage struct {
	e     *Engine
	ctx   *stmtCtx
	outer bool // a LEFT join
	plan  *joinPlan
	probe *storage.Table // the table plan.probe indexes, for a probe
	right batch          // the built right side, for any other strategy
	idx   joinIndex      // the hash join's index of right
	ev    evaluator      // the ON conjuncts left to check, over the joined layout
	lw, w int            // the left and the joined layout width
	next  func(*batch)   // downstream: the next join, or WHERE

	buf   *pairBuf
	kept  bool      // a pair of the left lane being paired was kept (LEFT)
	key   types.Row // a probe's key
	kb    []byte    // a hash join's key
	found batch     // a probe's finds, reused across probes

	// Rows scanned, credited when the statement settles (pipe): what
	// building the right side and the ON conjuncts' subqueries read, and
	// the rows the probes found.
	built, probed int
	err           error
}

// pairBuf is a join's output buffer: its lanes are slices of one slab
// at the joined width, and pad marks a LEFT join's pad lanes. cand is
// the pair lanes alone, the batch the ON conjuncts run over.
type pairBuf struct {
	rows, cand []types.Row
	pad        []bool
	slab       []types.Value
}

// pairPool holds join output buffers, which keep their largest slab:
// like lanePool's batches, they are pooled so a warm join allocates none.
var pairPool = sync.Pool{New: func() any { return new(pairBuf) }}

// build builds the join's right side and readies the ON conjuncts left
// to check: the residual beyond the hash equalities, the whole ON clause
// for a nested loop, nothing for a cross join. A base table stays unread
// when the join probes its index, and is scanned into the right side
// otherwise.
func (j *joinStage) build(js *joinStep, b *binder, overrides map[string][]types.Row) error {
	e := j.e
	src, err := e.open(&js.right, b.args, overrides, j.ctx)
	if err != nil {
		return err
	}
	j.key = make(types.Row, len(j.plan.eqL))
	switch {
	case src.tbl != nil && j.plan.probe != nil:
		j.probe = src.tbl
	case src.tbl != nil:
		e.scanTable(src.tbl, b, nil, func(s *batch) { // no WHERE: cannot fail
			j.right.rows = append(j.right.rows, s.rows...)
			j.right.tids = append(j.right.tids, s.tids...)
		})
	default:
		j.right = src.mem
	}
	if j.plan.kind == "hash-join" && j.probe == nil {
		j.idx, j.kb = buildJoinIndex(&j.right, j.plan.eqR, j.kb)
	}
	j.ev = b.evaluator(&js.on)
	return nil
}

// push pairs each lane of a left batch with the right rows the join's
// strategy offers it.
func (j *joinStage) push(in *batch) {
	for k := range in.rows {
		if j.err != nil {
			return
		}
		switch {
		case j.probe != nil:
			for i, p := range j.plan.perm {
				j.key[i] = in.col(k, j.plan.eqL[p])
			}
			j.found.rows, j.found.tids = j.probe.Lookup(j.plan.probe, j.key, j.ctx.snap, j.found.rows[:0], j.found.tids[:0])
			j.probed += len(j.found.tids)
			for i, tid := range j.found.tids {
				r := j.pair(in, k, false)
				n := copy(r, j.found.rows[i])
				r[n], r[n+1] = types.NewInt(tid), types.NewInt(tid)
			}
		case j.plan.kind == "hash-join":
			var ok bool
			if j.kb, ok = joinKey(j.kb, in, k, j.plan.eqL); ok {
				for m := j.idx.find(j.kb); m >= 0; m = j.idx.next[m] {
					j.right.put(j.pair(in, k, false), m)
				}
			}
		default:
			for m := range j.right.rows {
				j.right.put(j.pair(in, k, false), m)
			}
		}
		if j.outer {
			clear(j.pair(in, k, true)) // right side all NULL
		}
	}
}

// pair adds a lane to the buffer, flushing it first when it is full: left
// lane k of in, then the right columns, which the caller writes into the
// slice returned. The slab grows by demand, to at least the rest of the
// left batch, so a small join pays for a small buffer; lanes already
// written stay in the slab they were written to.
func (j *joinStage) pair(in *batch, k int, pad bool) []types.Value {
	b := j.buf
	if len(b.rows) == vm.BatchSize {
		j.flush()
	}
	n := len(b.rows)
	if (n+1)*j.w > len(b.slab) {
		b.slab = make([]types.Value, min(vm.BatchSize, max(2*n, n+len(in.rows)-k))*j.w)
	}
	row := b.slab[n*j.w : (n+1)*j.w : (n+1)*j.w]
	in.put(row[:j.lw], k)
	b.rows, b.pad = append(b.rows, row), append(b.pad, pad)
	return row[j.lw:]
}

// flush settles the buffered lanes and empties the buffer. A pair's
// verdict is its first ON conjunct that errs (the join's error) or is
// not TRUE (the pair is dropped), so the first error in pair order wins.
// A pad lane is kept when none of its left lane's pairs was. The kept
// lanes, compacted in place, go downstream.
func (j *joinStage) flush() {
	b := j.buf
	defer func() { b.rows, b.pad, b.cand = b.rows[:0], b.pad[:0], b.cand[:0] }()
	if j.err != nil || len(b.rows) == 0 {
		return
	}
	if j.ev.batch != nil { // conjuncts to check, over the pair lanes alone
		for i, r := range b.rows {
			if !b.pad[i] {
				b.cand = append(b.cand, r)
			}
		}
		j.ctx.holding(&j.built, func() { j.ev.load(j.e, &batch{rows: b.cand}) })
	}
	n, p := 0, 0
	for i, row := range b.rows {
		keep := !j.kept
		if b.pad[i] {
			j.kept = false
		} else {
			if keep = j.verdict(p); j.err != nil {
				return
			}
			j.kept = j.kept || keep
			p++
		}
		if keep {
			b.rows[n] = row
			n++
		}
	}
	if n > 0 {
		j.next(&batch{rows: b.rows[:n]})
	}
}

// verdict reports whether pair p is TRUE on every ON conjunct left to
// check; the first conjunct that errs on it is the join's error.
func (j *joinStage) verdict(p int) bool {
	for _, v := range j.ev.vecs {
		if ok, err := v.Truth(p); err != nil || !ok {
			j.err = err
			return false
		}
	}
	return true
}

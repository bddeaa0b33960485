package engine

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"ediflow/internal/catalog"
	"ediflow/internal/ivm"
	"ediflow/internal/sqltext"
	"ediflow/internal/storage"
	"ediflow/internal/types"
)

// viewState binds a catalog view to its incremental maintainer and
// backing storage table. rowIndex is a multiset index from row key
// (types.AppendRowKey) to the backing tids holding that value, so delta
// removals are O(1) instead of scanning the backing table; a list sits
// behind a pointer so it grows and shrinks without writing the map.
type viewState struct {
	def      *catalog.View
	m        *ivm.Maintainer
	rowIndex map[string]*[]int64
	kb       []byte // the current row's key
}

func (v *viewState) indexAdd(row types.Row, tid int64) {
	v.kb = types.AppendRowKey(v.kb[:0], row)
	p := v.rowIndex[string(v.kb)]
	if p == nil {
		p = new([]int64)
		v.rowIndex[string(v.kb)] = p
	}
	*p = append(*p, tid)
}

// indexTake removes and returns one tid holding the given row value.
func (v *viewState) indexTake(row types.Row) (int64, bool) {
	v.kb = types.AppendRowKey(v.kb[:0], row)
	p := v.rowIndex[string(v.kb)]
	if p == nil {
		return 0, false
	}
	tids := *p
	tid := tids[len(tids)-1]
	if len(tids) == 1 {
		delete(v.rowIndex, string(v.kb))
	} else {
		*p = tids[:len(tids)-1]
	}
	return tid, true
}

// viewSet tracks every materialized view and routes base-table deltas to
// the dependent maintainers. plans holds the plan of each view's delta
// query (EvalWith), by the query, for as long as the view lives.
type viewSet struct {
	e     *Engine
	views map[string]*viewState // lower-cased view name
	plans map[*sqltext.Select]*plan
}

func newViewSet(e *Engine) *viewSet {
	return &viewSet{e: e, views: map[string]*viewState{}, plans: map[*sqltext.Select]*plan{}}
}

func (vs *viewSet) dependents(table string) []*viewState {
	var out []*viewState
	for _, v := range vs.views {
		if v.m.DependsOn(table) {
			out = append(out, v)
		}
	}
	return out
}

const viewBackingPrefix = "__view_"

// execCreateView creates a materialized view: classify with ivm, create
// the backing table, compute initial contents, persist the DDL.
func (e *Engine) execCreateView(s *sqltext.CreateView) (*Result, []ChangeEvent, error) {
	if e.inTxn.Load() {
		return nil, nil, fmt.Errorf("engine: CREATE VIEW inside a transaction is not supported")
	}
	if err := e.createView(s, true); err != nil {
		return nil, nil, err
	}
	return &Result{}, nil, nil
}

func (e *Engine) createView(s *sqltext.CreateView, fresh bool) error {
	name := s.Name
	if _, dup := e.cat.View(name); dup {
		return fmt.Errorf("engine: view %q already exists", name)
	}
	if e.store.Table(name) != nil {
		return fmt.Errorf("engine: %q already names a table", name)
	}
	m, err := ivm.New(name, s.Query, e)
	if err != nil {
		return err
	}
	// Views over views are rejected: incremental deltas only flow from
	// base tables.
	for _, t := range m.Tables() {
		if _, isView := e.cat.View(t); isView {
			return fmt.Errorf("engine: view %q may not reference view %q", name, t)
		}
		if e.store.Table(t) == nil {
			return fmt.Errorf("engine: view %q references unknown table %q", name, t)
		}
	}

	backing := viewBackingPrefix + strings.ToLower(name)
	def := &catalog.View{Name: name, Query: s.Query, Backing: backing}

	if fresh {
		// Infer output column names and create the backing table.
		cols, err := e.viewColumns(s.Query)
		if err != nil {
			return err
		}
		if err := e.createTable(&catalog.TableSchema{Name: backing, Columns: cols}); err != nil {
			return err
		}
	} else if e.store.Table(backing) == nil {
		return fmt.Errorf("engine: backing table for view %q missing", name)
	}

	if err := e.cat.AddView(def); err != nil {
		return err
	}

	// fail takes back what a failed CREATE added: the catalog entry and a
	// fresh view's backing table, so the name can be used again.
	fail := func(err error) error {
		e.cat.DropView(name)
		if fresh {
			_ = e.dropTable(backing)
		}
		return err
	}
	// Compute initial contents: Init also builds an aggregate maintainer's
	// group state. The backing table gets only the difference, a stored
	// row matching one of rows that is sameRow: all of rows for a fresh
	// view, nothing on a restore unless the table went stale.
	rows, err := m.Init()
	if err != nil {
		return fail(err)
	}
	vs := &viewState{def: def, m: m, rowIndex: map[string]*[]int64{}}
	stale := map[string][]storage.StoredRow{} // by key, not matched yet
	var kb []byte
	for _, r := range e.store.Table(backing).Rows() {
		kb = types.AppendRowKey(kb[:0], r.Values)
		stale[string(kb)] = append(stale[string(kb)], r)
	}
	var adds []types.Row
	for _, r := range rows {
		kb = types.AppendRowKey(kb[:0], r)
		p := stale[string(kb)]
		if j := slices.IndexFunc(p, func(h storage.StoredRow) bool { return sameRow(h.Values, r) }); j >= 0 {
			vs.indexAdd(r, p[j].TID)
			stale[string(kb)] = slices.Delete(p, j, j+1)
		} else {
			adds = append(adds, r)
		}
	}
	var gone []int64
	for _, p := range stale {
		for _, h := range p {
			gone = append(gone, h.TID)
		}
	}
	slices.Sort(gone)
	if _, err := e.store.DeleteRows(backing, gone); err != nil {
		return fail(err)
	}
	if _, err := e.views.write(vs, adds, nil); err != nil {
		return fail(err)
	}

	e.views.views[strings.ToLower(name)] = vs
	if fresh {
		if err := e.store.PutMeta("view", name, s.String()); err != nil {
			return err
		}
	}
	return nil
}

// execDropView removes a view: catalog entry, maintainer, backing table
// and the persisted DDL.
func (e *Engine) execDropView(s *sqltext.DropView) (*Result, []ChangeEvent, error) {
	if e.inTxn.Load() {
		return nil, nil, fmt.Errorf("engine: DROP VIEW inside a transaction is not supported")
	}
	v, ok := e.cat.View(s.Name)
	if !ok {
		if s.IfExists {
			return &Result{}, nil, nil
		}
		return nil, nil, fmt.Errorf("engine: no such view %q", s.Name)
	}
	e.cat.DropView(s.Name)
	delete(e.views.views, strings.ToLower(s.Name))
	delete(e.views.plans, v.Query)
	if err := e.dropTable(v.Backing); err != nil {
		return nil, nil, err
	}
	if err := e.store.DeleteMeta("view", s.Name); err != nil {
		return nil, nil, err
	}
	return &Result{}, nil, nil
}

// viewColumns infers backing-table columns (names and advisory types) for
// a view query from the FROM tables' shapes, without touching any rows.
func (e *Engine) viewColumns(q *sqltext.Select) ([]catalog.Column, error) {
	sp := e.newPlan(q, false).sel
	if err := cmp.Or(sp.err, sp.itemsErr); err != nil {
		return nil, err
	}
	items, _, _ := expandItems(q, sp.rel)
	colKind := func(x sqltext.Expr) (types.Kind, bool) {
		if c, ok := bareCol(x, sp.rel); ok {
			return sp.rel.cols[c].kind, true
		}
		return types.KindString, false
	}
	kind := func(x sqltext.Expr) types.Kind {
		switch x := x.(type) {
		case *sqltext.Literal:
			return x.Value.Kind()
		case *sqltext.FuncCall:
			switch strings.ToUpper(x.Name) {
			case "COUNT":
				return types.KindInt
			case "AVG":
				return types.KindFloat
			case "SUM", "MIN", "MAX":
				if len(x.Args) == 1 {
					if k, ok := colKind(x.Args[0]); ok {
						return k
					}
				}
				return types.KindFloat
			}
		case *sqltext.Binary:
			return types.KindFloat
		}
		k, _ := colKind(x)
		return k
	}
	var cols []catalog.Column
	seen := map[string]bool{}
	for _, it := range items {
		name := it.Alias
		if cr, ok := it.Expr.(*sqltext.ColumnRef); ok && name == "" {
			name = cr.Column
		} else if name == "" {
			name = fmt.Sprintf("col%d", len(cols)+1)
		}
		n := strings.ToLower(name)
		if seen[n] {
			return nil, fmt.Errorf("engine: duplicate view column %q (use AS aliases)", name)
		}
		seen[n] = true
		cols = append(cols, catalog.Column{Name: n, Type: kind(it.Expr)})
	}
	return cols, nil
}

// applyDelta routes a base-table change to every dependent view, in name
// order, applies the computed deltas to the backing tables, and returns
// view-level change events (so the notification layer covers views too).
// Every view's delta is computed before any backing row is written: when
// one view fails, the views before it take their deltas back with the
// inverse delta and the statement fails.
func (vs *viewSet) applyDelta(table string, inserted, deleted []types.Row) ([]ChangeEvent, error) {
	deps := vs.dependents(table)
	slices.SortFunc(deps, func(a, b *viewState) int { return strings.Compare(a.def.Name, b.def.Name) })
	deltas := make([][2][]types.Row, len(deps))
	for j, v := range deps {
		adds, removes, err := v.m.Delta(table, inserted, deleted)
		if err == nil {
			deltas[j] = [2][]types.Row{adds, removes}
			continue
		}
		for i := j - 1; i >= 0; i-- {
			// The inverse retracts what view i just accepted: it cannot
			// fail. A float sum need not come back bit for bit, so the
			// backing table takes what delta and inverse net to and holds
			// what the fold emits. The failed statement fires no event and
			// reports view j's error whatever the write does.
			back, gone, _ := deps[i].m.Delta(table, deleted, inserted)
			_, adds, _, removes, _ := ivm.NetDelta(nil, append(deltas[i][0], back...), nil, append(deltas[i][1], gone...))
			_, _ = vs.write(deps[i], adds, removes)
		}
		return nil, fmt.Errorf("engine: maintaining view %s: %w", v.def.Name, err)
	}
	var events []ChangeEvent
	for j, v := range deps {
		if len(deltas[j][0]) == 0 && len(deltas[j][1]) == 0 {
			continue
		}
		ev, err := vs.write(v, deltas[j][0], deltas[j][1])
		if err != nil {
			return nil, err
		}
		vs.e.seq++
		ev.Seq = vs.e.seq
		events = append(events, ev)
	}
	return events, nil
}

// write applies one view's delta to its backing table — its removes as
// one delete set, then its adds as one insert set — and returns the
// change event describing it.
func (vs *viewSet) write(v *viewState, adds, removes []types.Row) (ChangeEvent, error) {
	ev := ChangeEvent{Table: v.def.Name, Op: OpUpdate}
	if len(removes) > 0 {
		// Remove one matching row per delta row (multiset semantics); the
		// row index finds a victim tid in O(1).
		tids := make([]int64, 0, len(removes))
		var stale error
		for _, rm := range removes {
			tid, found := v.indexTake(rm)
			if !found {
				stale = fmt.Errorf("engine: view %s: stale delta (row to remove not found)", v.def.Name)
				break
			}
			tids = append(tids, tid)
		}
		if len(tids) > 0 {
			if _, err := vs.e.store.DeleteRows(v.def.Backing, tids); err != nil {
				return ev, err
			}
		}
		if stale != nil {
			return ev, stale
		}
		ev.TIDs, ev.OldRows = tids, removes
	}
	if len(adds) > 0 {
		tids, err := vs.e.store.InsertRows(v.def.Backing, adds, nil)
		if err != nil {
			return ev, err
		}
		for i, add := range adds {
			v.indexAdd(add, tids[i])
		}
		ev.TIDs, ev.Rows = append(ev.TIDs, tids...), adds
	}
	return ev, nil
}

// Fold implements ivm.Evaluator: an aggregate view's maintenance is the
// query's own fold — the fold sink, aggregate states and group emit of
// an aggregate SELECT — run with signed weights. A column read outside
// an aggregate must sit inside a GROUP BY expression: what a SELECT reads
// there comes from its group's first row in table order, which a fold of
// deltas does not know.
func (e *Engine) Fold(sel *sqltext.Select) (ivm.Fold, error) {
	exprs := make([]sqltext.Expr, 0, len(sel.Items)+1) // the items, then HAVING
	for _, it := range sel.Items {
		exprs = append(exprs, it.Expr)
	}
	exprs = append(exprs, sel.Having)
	for i, x := range exprs {
		var err error
		sqltext.WalkExpr(&exprs[i], func(p *sqltext.Expr) bool {
			y := *p
			grouped := slices.ContainsFunc(sel.GroupBy, func(g sqltext.Expr) bool { return g.String() == y.String() })
			if fc, ok := y.(*sqltext.FuncCall); ok && sqltext.IsAggregateName(fc.Name) || grouped || err != nil {
				return false
			}
			if _, ok := y.(*sqltext.ColumnRef); ok {
				err = fmt.Errorf("output %s is neither a GROUP BY expression nor an aggregate", x)
			}
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	f := &viewFold{e: e, sel: sel, foldSink: &foldSink{aggSpec: newAggSpec(sel.GroupBy, exprs), groups: map[string]*foldGroup{}}}
	if len(sel.GroupBy) == 0 {
		f.open("", nil)
	}
	return f, nil
}

// viewFold is an aggregate view's fold: per group, the states of every
// aggregate call of the items and HAVING. The implicit group of a query
// without GROUP BY always exists; a GROUP BY group goes when its last
// row does. The fold runs the query's own plan over the delta rows
// (planner.delta), made at its first Apply and again when the plan
// cache moves on: its aggregate calls are the fold sink's, in the same
// order.
type viewFold struct {
	e    *Engine
	sel  *sqltext.Select
	plan *plan
	*foldSink
}

// Apply implements ivm.Fold. The delta rows go through the query's own
// pipeline — WHERE, then the fold sink gathering each row's group and
// aggregate arguments — the inserted rows, then the deleted ones, before
// any state changes; the first error of WHERE, group keys, arguments in
// that order is the result. Inserts fold before deletes: a delete may
// target a group the same batch opens. A fold or emit error un-folds the
// rows folded so far.
func (f *viewFold) Apply(inserted, deleted []types.Row) (adds, removes []types.Row, err error) {
	e := f.e
	if f.plan == nil {
		f.plan = e.newPlan(f.sel, true)
	}
	f.plan = e.current(f.plan)
	fr := f.plan.sel
	if fr.err != nil {
		return nil, nil, fr.err
	}
	b := e.newBinder(fr.subs, nil, e.writerCtx())
	f.start(e, b, &fr.fold)
	nIns, nk, nc := 0, len(f.keys), len(f.calls)
	for i, rows := range [][]types.Row{inserted, deleted} {
		err := e.pipe(b, &source{mem: batch{rows: rows}}, &fr.where, func(s *batch) { f.gather(s, i == 0) })
		if err != nil {
			err = fmt.Errorf("WHERE: %w", err)
		} else if err = f.err; err == nil {
			err = f.argErr
		}
		if err != nil {
			for _, g := range f.opened {
				delete(f.groups, g.key)
			}
			return nil, nil, err
		}
		if i == 0 {
			nIns = len(f.gs)
		}
	}
	na := len(f.args) / max(len(f.gs), 1) // argument values per row

	// Every group a row reaches is touched, the implicit one always.
	var touched []*foldGroup
	if nk == 0 {
		g := f.groups[""]
		g.touched, touched = true, append(touched, g)
	}
	for _, g := range f.gs {
		if g != nil && !g.touched {
			g.touched, touched = true, append(touched, g)
		}
	}
	// undo un-folds rows [0, n) and forgets the groups they opened.
	undo := func(n int) {
		for i := n - 1; i >= 0; i-- {
			g, w := f.gs[i], int64(1)
			if i >= nIns {
				w = -1
			}
			_ = f.foldRow(g, f.args[i*na:(i+1)*na], -w, nc) // un-folds an accepted row: cannot fail
			g.count -= w
		}
		for _, g := range touched {
			if g.touched = false; g.count == 0 && nk > 0 {
				delete(f.groups, g.key)
			}
		}
	}
	for i, g := range f.gs { // inserted rows, then deleted ones
		w := int64(1)
		if i >= nIns {
			w = -1
		}
		if g == nil || g.count+w < 0 {
			undo(i)
			return nil, nil, fmt.Errorf("delete from unknown group")
		}
		if err := f.foldRow(g, f.args[i*na:(i+1)*na], w, nc); err != nil {
			undo(i)
			return nil, nil, err
		}
		g.count += w
	}

	// Emit every touched group that still has rows, then diff against its
	// previous output.
	var live []*foldGroup
	for _, g := range touched {
		if g.count > 0 || nk == 0 {
			live = append(live, g)
		}
	}
	after := &viewRows{w: len(fr.emit.bare)}
	if err = e.emitGroups(&fr.emit, b, f.foldSink, live, after); err != nil {
		undo(len(f.gs))
		return nil, nil, err
	}
	for _, g := range touched {
		var row types.Row
		if len(live) > 0 && live[0] == g {
			row, live, after.rows = after.rows[0], live[1:], after.rows[1:]
		}
		if !sameRow(g.out, row) {
			if g.out != nil {
				removes = append(removes, g.out)
			}
			if row != nil {
				adds = append(adds, row)
			}
		}
		if g.out, g.touched = row, false; g.count == 0 && nk > 0 {
			delete(f.groups, g.key)
		}
	}
	return adds, removes, nil
}

// viewRows is a view fold's rowSink: per group emitted its output row,
// nil where HAVING rejects the group. Each row is its own allocation, as
// it lives on as its group's out for as long as the view.
type viewRows struct {
	w, base int // base: the current batch's first group
	rows    []types.Row
	next    types.Row // the row being written
}

func (v *viewRows) load(_ *Engine, reps *batch) {
	v.base, v.rows = len(v.rows), append(v.rows, make([]types.Row, len(reps.rows))...)
}
func (v *viewRows) row(int) types.Row { v.next = make(types.Row, v.w); return v.next }
func (v *viewRows) add(k int)         { v.rows[v.base+k] = v.next }

// foldRow folds one row's aggregate arguments — one per call with an
// argument — into g's states with weight w, over calls [0, n). On an
// error it un-folds the calls it had applied.
func (f *viewFold) foldRow(g *foldGroup, args []types.Value, w int64, n int) error {
	k := 0
	for ci := 0; ci < n; ci++ {
		c := &f.calls[ci]
		if c.arg == nil {
			continue
		}
		if k++; args[k-1].IsNull() {
			continue
		}
		if err := g.states[ci].apply(c.op, c.distinct, args[k-1], w); err != nil {
			_ = f.foldRow(g, args, -w, ci) // un-folds what it just folded: cannot fail
			return err
		}
	}
	return nil
}

// sameRow reports whether two output rows hold the same values of the
// same kinds: a SUM going from FLOAT 3 to INT 3 is a change.
func sameRow(a, b types.Row) bool {
	same := (a == nil) == (b == nil) && len(a) == len(b)
	for i := 0; same && i < len(a); i++ {
		same = a[i].Kind() == b[i].Kind() && types.Equal(a[i], b[i])
	}
	return same
}
